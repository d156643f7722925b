"""Exact arithmetic backbone.

Sparse multivariate Laurent polynomials over the rationals, with optional
half-integer exponents (stored internally as doubled integers so that
symmetrized weights such as ``k^(1/2)`` stay exact), optional series
truncation, rational elements (quotients of Laurent polynomials), series
expansion at 0/infinity, residue extraction, series exponential/logarithm,
and specialization at ``k = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import (
    NonExpandable,
    NonRational,
    NonzeroConstantTerm,
    PoleAtOne,
)

Scalar = Union[int, Fraction]

#: A monomial: sorted tuple of (variable name, doubled integer exponent).
Mono = tuple[tuple[str, int], ...]

_ZERO = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _coef(x) -> Scalar:
    """The canonical form of a coefficient: an ``int`` when it is integral,
    otherwise a ``Fraction`` with denominator > 1.  Never a float or a bool."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exp2(e: Scalar) -> int:
    """Convert a natural exponent (integer or half-integer) to doubled form."""
    d = _frac(e) * 2
    if d.denominator != 1:
        raise ValueError(f"exponent {e} is not a half-integer")
    return int(d)


def _mono(entries: Mapping[str, int] | Iterable[tuple[str, int]]) -> Mono:
    if isinstance(entries, tuple):
        items = entries
    else:
        items = entries.items() if isinstance(entries, Mapping) else entries
    return tuple(sorted((v, int(e)) for v, e in items if e))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """The product of two monomials, by one merge of their sorted entries."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    va, ea = a[0]
    vb, eb = b[0]
    while True:
        if va < vb:
            out.append(a[i])
            i += 1
            if i == na:
                break
            va, ea = a[i]
        elif vb < va:
            out.append(b[j])
            j += 1
            if j == nb:
                break
            vb, eb = b[j]
        else:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            va, ea = a[i]
            vb, eb = b[j]
    if i < na:
        out.extend(a[i:])
    elif j < nb:
        out.extend(b[j:])
    return tuple(out)


def _mono_pow(m: Mono, k: int) -> Mono:
    if k == 0:
        return ()
    return tuple((v, e * k) for v, e in m)


def _mono_deg2(m: Mono, names: frozenset[str]) -> int:
    return sum(e for v, e in m if v in names)


@dataclass(frozen=True)
class Trunc:
    """Series truncation: a bound on total doubled degree in ``names``.

    ``sign=+1`` keeps terms with degree <= order2 (series around 0);
    ``sign=-1`` keeps terms with degree >= -order2 (series around infinity).
    """

    names: frozenset[str]
    order2: int
    sign: int = 1

    def keeps(self, m: Mono) -> bool:
        return self.keeps_deg2(_mono_deg2(m, self.names))

    def keeps_deg2(self, d: int) -> bool:
        """Whether a monomial of doubled degree ``d`` in ``names`` is kept."""
        return d <= self.order2 if self.sign > 0 else d >= -self.order2


def _combine_trunc(a: Trunc | None, b: Trunc | None) -> Trunc | None:
    if a is None or a == b:
        return b
    if b is None:
        return a
    if a.sign != b.sign:
        raise ValueError("cannot combine series truncated in opposite directions")
    return Trunc(a.names | b.names, min(a.order2, b.order2), a.sign)


def _kept(
    terms: dict[Mono, Scalar], trunc: Trunc | None, within: Trunc | None = None
) -> dict[Mono, Scalar]:
    """``terms`` restricted to the monomials ``trunc`` keeps, order preserved.

    ``within`` is a truncation the terms are known to satisfy; when it equals
    ``trunc`` the terms come back unfiltered.
    """
    if trunc is None or trunc == within:
        return terms
    return {m: c for m, c in terms.items() if trunc.keeps(m)}


def _add_terms(out: dict[Mono, Scalar], pairs: Iterable[tuple[Mono, Scalar]]) -> None:
    """Add canonical (monomial, coefficient) pairs into ``out`` in place,
    dropping zero sums."""
    get = out.get
    for m, c in pairs:
        prev = get(m)
        if prev is None:
            out[m] = c
        else:
            total = prev + c
            if not total:
                del out[m]
            elif type(total) is int:
                out[m] = total
            else:
                out[m] = _coef(total)


class LaurentElement:
    """A finite sum of rational multiples of monomials, optionally truncated.

    Immutable by convention: no method mutates ``terms`` after construction,
    so elements may share one ``terms`` dict.  Equality compares the stored
    terms only (truncation metadata is carried along but is not part of the
    mathematical value).

    Every element is canonical: each key of ``terms`` is a monomial sorted by
    variable name with no zero exponent, each value is a nonzero exact
    rational stored as an ``int`` when it is integral and as a ``Fraction``
    with denominator > 1 otherwise (never a float), and every monomial is
    kept by ``trunc``.  Coefficients are nearly always integers, and ``int``
    arithmetic costs a fraction of ``Fraction`` arithmetic.  The constructor
    normalizes arbitrary input into this form; the arithmetic builds results
    that are canonical by construction and wraps them with ``_trusted``
    instead.
    """

    __slots__ = ("terms", "trunc")

    def __init__(
        self,
        terms: Mapping[Mono, Scalar] | None = None,
        trunc: Trunc | None = None,
    ) -> None:
        clean: dict[Mono, Scalar] = {}
        if terms:
            for m, c in terms.items():
                c = _coef(c)
                if not c:
                    continue
                m = _mono(m)
                if trunc is not None and not trunc.keeps(m):
                    continue
                acc = clean.get(m, 0) + c
                if acc:
                    clean[m] = _coef(acc)
                elif m in clean:
                    del clean[m]
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("LaurentElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: Trunc | None = None) -> "LaurentElement":
        return LaurentElement({}, trunc)

    @staticmethod
    def const(c: Scalar, trunc: Trunc | None = None) -> "LaurentElement":
        return LaurentElement({(): c}, trunc)

    @staticmethod
    def gen(name: str) -> "LaurentElement":
        return LaurentElement({((name, 2),): 1})

    @staticmethod
    def monomial(coeff: Scalar, exps: Mapping[str, Scalar]) -> "LaurentElement":
        m = _mono({v: _exp2(e) for v, e in exps.items()})
        return LaurentElement({m: coeff})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_fraction(self) -> Fraction | None:
        """The value as a rational constant, or None if not constant."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1 and () in self.terms:
            return Fraction(self.terms[()])
        return None

    def variables(self) -> set[str]:
        return {v for m in self.terms for v, _ in m}

    def coeff_of(self, var: str, exponent: Scalar) -> "LaurentElement":
        """Coefficient of ``var**exponent`` as an element without ``var``."""
        e2 = _exp2(exponent)
        out: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            if dict(m).get(var, 0) == e2:
                out[_mono_drop(m, var)] = c
        return _trusted(out)

    def coeffs_in(self, var: str) -> dict[int, "LaurentElement"]:
        """Split into {doubled exponent of var: coefficient element}."""
        grouped: dict[int, dict[Mono, Scalar]] = {}
        for m, c in self.terms.items():
            e2 = dict(m).get(var, 0)
            grouped.setdefault(e2, {})[_mono_drop(m, var)] = c
        return {e2: _trusted(t) for e2, t in grouped.items()}

    def val2(self, var: str) -> int | None:
        """Minimal doubled exponent of ``var`` over all terms (None if zero)."""
        if not self.terms:
            return None
        return min(dict(m).get(var, 0) for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalElement):
            return NotImplemented
        other = as_element(other)
        trunc = _combine_trunc(self.trunc, other.trunc)
        out = dict(_kept(self.terms, trunc, self.trunc))
        _add_terms(out, _kept(other.terms, trunc, other.trunc).items())
        return _trusted(out, trunc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentElement":
        return _trusted({m: -c for m, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, RationalElement):
            return NotImplemented
        return self + (-as_element(other))

    def __rsub__(self, other):
        if isinstance(other, RationalElement):
            return NotImplemented
        return as_element(other) - self

    def __mul__(self, other):
        if isinstance(other, RationalElement):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            if not c:
                return LaurentElement.zero(self.trunc)
            return _trusted(
                _canonical({m: k * c for m, k in self.terms.items()}), self.trunc
            )
        other = as_element(other)
        trunc = _combine_trunc(self.trunc, other.trunc)
        out: dict[Mono, Scalar] = {}
        get = out.get
        if trunc is None:
            right = list(other.terms.items())
            for m1, c1 in self.terms.items():
                for m2, c2 in right:
                    m = _mono_mul(m1, m2)
                    prev = get(m)
                    if prev is None:
                        out[m] = c1 * c2
                    else:
                        total = prev + c1 * c2
                        if total:
                            out[m] = total
                        else:
                            del out[m]
            return _trusted(_canonical(out))
        names = trunc.names
        keeps = trunc.keeps_deg2
        graded = [(m2, c2, _mono_deg2(m2, names)) for m2, c2 in other.terms.items()]
        for m1, c1 in self.terms.items():
            d1 = _mono_deg2(m1, names)
            for m2, c2, d2 in graded:
                # Degrees add under multiplication, so a pair out of range is
                # dropped before its monomial is formed.
                if not keeps(d1 + d2):
                    continue
                m = _mono_mul(m1, m2)
                prev = get(m)
                if prev is None:
                    out[m] = c1 * c2
                else:
                    total = prev + c1 * c2
                    if total:
                        out[m] = total
                    else:
                        del out[m]
        return _trusted(_canonical(out), trunc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentElement":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.monomial_inverse() ** (-k)
        acc = LaurentElement.const(1, self.trunc)
        for _ in range(k):
            acc = acc * self
        return acc

    def monomial_inverse(self) -> "LaurentElement":
        if len(self.terms) != 1:
            raise ValueError("only single-term elements have a monomial inverse")
        (m, c), = self.terms.items()
        return _trusted({_mono_pow(m, -1): _coef(Fraction(1, c))})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        if isinstance(other, RationalElement):
            return as_rational(self) / other
        other = as_element(other)
        if other.is_monomial():
            return self * other.monomial_inverse()
        return RationalElement(self, other)

    def __rtruediv__(self, other):
        return as_rational(other) / as_rational(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalElement):
            return other == self
        try:
            other = as_element(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    # -- structure ---------------------------------------------------------

    def truncate(self, names: Iterable[str], order: int, sign: int = 1) -> "LaurentElement":
        t = _combine_trunc(self.trunc, Trunc(frozenset(names), 2 * order, sign))
        return _trusted(_kept(self.terms, t, self.trunc), t)

    def without_trunc(self) -> "LaurentElement":
        return _trusted(self.terms)

    def trunc_zero_part(self) -> "LaurentElement":
        """Terms of total degree 0 in the truncation variables."""
        if self.trunc is None:
            raise ValueError("element is not a truncated series")
        names = self.trunc.names
        return _trusted(
            {m: c for m, c in self.terms.items() if _mono_deg2(m, names) == 0}
        )

    def invert_series(self) -> "LaurentElement":
        """Inverse of a truncated series whose constant part is a monomial."""
        if self.trunc is None:
            if self.is_monomial():
                return self.monomial_inverse()
            raise ValueError("inversion of a multi-term element needs truncation")
        if _below_zero(self):
            raise NonExpandable("series has a term below its constant part")
        if not self.trunc_zero_part().is_monomial():
            raise NonExpandable("series constant term is not an invertible monomial")
        t = self.trunc
        terms = _series_div(ONE, self, t.names, t.sign, t.order2, "series constant term")
        return _trusted(terms, t)

    def negate_var(self, var: str) -> "LaurentElement":
        """Substitute ``var -> var**-1`` by negating its exponents."""
        trunc = self.trunc
        if trunc is not None and var in trunc.names:
            if trunc.names != frozenset({var}):
                raise ValueError("cannot negate one variable of a joint truncation")
            trunc = Trunc(trunc.names, trunc.order2, -trunc.sign)
        out = {
            tuple((v, -e) if v == var else (v, e) for v, e in m): c
            for m, c in self.terms.items()
        }
        return _trusted(out, trunc)

    # -- substitution ------------------------------------------------------

    def subs_monomial(self, var: str, value: "LaurentElement") -> "LaurentElement":
        """Substitute a single-term value for ``var`` (any exponents)."""
        value = as_element(value)
        if len(value.terms) != 1:
            raise ValueError("subs_monomial needs a single-term value")
        (vm, vc), = value.terms.items()
        out: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            e2 = dict(m).get(var, 0)
            rest = _mono_drop(m, var)
            if e2:
                if e2 % 2 == 0:
                    c = _coef(c * Fraction(vc) ** (e2 // 2))
                elif vc != 1:
                    raise ValueError(
                        "half-integer power of a value with coefficient != 1"
                    )
                scaled: list[tuple[str, int]] = []
                for w, f2 in vm:
                    prod = f2 * e2
                    if prod % 2:
                        raise ValueError("substitution produces a quarter-integer power")
                    scaled.append((w, prod // 2))
                newm = _mono_mul(rest, _mono(scaled))
            else:
                newm = rest
            _add_terms(out, ((newm, c),))
        return _trusted(_kept(out, self.trunc), self.trunc)

    def subs_poly(self, var: str, value: "LaurentElement") -> "LaurentElement":
        """Substitute a general value for ``var``; needs nonneg integer powers."""
        value = as_element(value)
        pieces = self.coeffs_in(var)
        trunc = _combine_trunc(self.trunc, value.trunc)
        powers: dict[int, LaurentElement] = {0: LaurentElement.const(1, trunc)}

        def terms():
            for e2 in sorted(pieces):
                if e2 < 0 or e2 % 2:
                    raise ValueError(
                        f"subs_poly needs nonnegative integer powers of {var!r}"
                    )
                k = e2 // 2
                if k not in powers:
                    p = powers[max(powers)]
                    for _ in range(max(powers), k):
                        p = p * value
                    powers[k] = p
                yield pieces[e2] * powers[k]

        return laurent_sum(terms(), trunc)

    def subs_zero(self, var: str) -> "LaurentElement":
        """Substitute 0 for ``var`` (drops terms with positive powers)."""
        v2 = self.val2(var)
        if v2 is not None and v2 < 0:
            raise ZeroDivisionError(f"negative power of {var!r} at 0")
        return _trusted(self.coeff_of(var, 0).terms, self.trunc)

    def subs_one(self, var: str) -> "LaurentElement":
        """Substitute 1 for ``var`` (drops it from every monomial)."""
        out: dict[Mono, Scalar] = {}
        _add_terms(out, ((_mono_drop(m, var), c) for m, c in self.terms.items()))
        return _trusted(_kept(out, self.trunc), self.trunc)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in sorted(self.terms.items()):
            factors = []
            for v, e2 in m:
                if e2 == 2:
                    factors.append(v)
                elif e2 % 2 == 0:
                    factors.append(f"{v}^{e2 // 2}")
                else:
                    factors.append(f"{v}^({e2}/2)")
            body = "*".join(factors)
            ac = abs(c)
            if body and ac == 1:
                text = body
            elif body:
                text = f"{ac}*{body}"
            else:
                text = str(ac)
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts)


_set_terms = LaurentElement.terms.__set__
_set_trunc = LaurentElement.trunc.__set__


def _below_zero(series: LaurentElement) -> bool:
    """Whether a truncated series has a term of negative degree in its
    expansion direction; no power of such a series ever truncates to zero."""
    t = series.trunc
    return any(t.sign * _mono_deg2(m, t.names) < 0 for m in series.terms)


def _trusted(terms: dict[Mono, Scalar], trunc: Trunc | None = None) -> LaurentElement:
    """Wrap ``terms`` as an element without normalizing them.

    ``terms`` must already be canonical (see LaurentElement) and must not be
    mutated afterwards.
    """
    el = object.__new__(LaurentElement)
    _set_terms(el, terms)
    _set_trunc(el, trunc)
    return el


def _canonical(terms: dict[Mono, Scalar]) -> dict[Mono, Scalar]:
    """``terms`` with every coefficient in canonical form (see ``_coef``),
    changed in place: products and sums of Fractions may be integral."""
    for m, c in terms.items():
        if type(c) is not int:
            terms[m] = _coef(c)
    return terms


def _mono_drop(m: Mono, var: str) -> Mono:
    """``m`` without ``var``; dropping an entry keeps a monomial sorted."""
    return tuple(entry for entry in m if entry[0] != var)


def as_element(x) -> LaurentElement:
    if isinstance(x, LaurentElement):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentElement.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent element")


def laurent_sum(items: Iterable, trunc: Trunc | None = None) -> LaurentElement:
    """The sum of Laurent elements or scalars, built in place in one dict.

    Equal to folding ``+`` over ``items`` from ``LaurentElement.zero(trunc)``,
    truncation included, at a cost linear in the terms added instead of a
    copy of the running sum per item.
    """
    out: dict[Mono, Scalar] = {}
    for x in items:
        x = as_element(x)
        if x.trunc != trunc:
            combined = _combine_trunc(trunc, x.trunc)
            if combined != trunc:
                for m in [m for m in out if not combined.keeps(m)]:
                    del out[m]
                trunc = combined
        _add_terms(out, _kept(x.terms, trunc, x.trunc).items())
    return _trusted(out, trunc)


def _graded(
    terms: dict[Mono, Scalar], names: frozenset[str], sign: int
) -> dict[int, dict[Mono, Scalar]]:
    """``terms`` split by ``sign`` times the total doubled degree in ``names``."""
    pieces: dict[int, dict[Mono, Scalar]] = {}
    for m, c in terms.items():
        pieces.setdefault(sign * _mono_deg2(m, names), {})[m] = c
    return pieces


def _series_div(
    num: LaurentElement,
    den: LaurentElement,
    names: frozenset[str],
    sign: int,
    top: int,
    lead_name: str,
) -> dict[Mono, Scalar]:
    """The terms of graded degree <= ``top`` of the series num/den.

    The grading is ``sign`` times the total doubled degree in ``names``, and
    ``num`` must be nonzero.  The lowest graded piece d of ``den`` must be a
    single monomial (NonExpandable otherwise, naming it ``lead_name``).  With
    h_e the degree-e piece of den/d - 1, the quotient's degree-n piece is
    q_n = p_n - Σ_e h_e·q_{n-e}, where p_n is the degree-n piece of num/d:
    each piece is computed once (power-series division, Knuth TAOCP vol. 2,
    §4.7), and every term returned is exact.
    """
    den_pieces = _graded(den.terms, names, sign)
    low = min(den_pieces)
    lead = den_pieces.pop(low)
    if len(lead) != 1:
        raise NonExpandable(f"{lead_name} is not a single monomial")
    lead_inv = _trusted(lead).monomial_inverse()
    steps = [(e - low, -(_trusted(p) * lead_inv)) for e, p in sorted(den_pieces.items())]
    pref = _graded((num * lead_inv).terms, names, sign)
    out: dict[Mono, Scalar] = {}
    quot: dict[int, LaurentElement] = {}
    for n in range(min(pref), top + 1):
        items = [_trusted(pref[n])] if n in pref else []
        for e, step in steps:
            prev = quot.get(n - e)
            if prev is not None:
                items.append(step * prev)
        piece = laurent_sum(items)
        if piece:
            quot[n] = piece
            out.update(piece.terms)
    return out


ONE = LaurentElement.const(1)
ZERO = LaurentElement.zero()


def _mono_content(el: LaurentElement) -> Mono:
    """Largest monomial dividing every term of ``el`` (exponent-wise min)."""
    if not el.terms:
        return ()
    names = el.variables()
    out = []
    for v in names:
        e = min(dict(m).get(v, 0) for m in el.terms)
        if e:
            out.append((v, e))
    return tuple(sorted(out))


class RationalElement:
    """Quotient of two untruncated Laurent elements.

    The denominator is normalized to have trivial monomial content; a
    single-term denominator is folded into the numerator, so elements that
    are secretly Laurent have ``den == 1``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None) -> None:
        num = as_element(num)
        den = ONE if den is None else as_element(den)
        if num.trunc is not None or den.trunc is not None:
            raise NonRational("truncated series cannot form a rational element")
        if not den.terms:
            raise ZeroDivisionError("zero denominator")
        content = _mono_content(den)
        if content:
            shrink = LaurentElement({_mono_pow(content, -1): 1})
            num = num * shrink
            den = den * shrink
        if den.is_monomial():
            num = num * den.monomial_inverse()
            den = ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("RationalElement is immutable")

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den == ONE

    def maybe_laurent(self) -> "LaurentElement | RationalElement":
        return self.num if self.is_laurent() else self

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RationalElement":
        other = as_rational(other)
        if self.den == other.den:
            return RationalElement(self.num + other.num, self.den)
        return RationalElement(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalElement":
        return RationalElement(-self.num, self.den)

    def __sub__(self, other) -> "RationalElement":
        return self + (-as_rational(other))

    def __rsub__(self, other) -> "RationalElement":
        return as_rational(other) - self

    def __mul__(self, other) -> "RationalElement":
        other = as_rational(other)
        return RationalElement(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalElement":
        other = as_rational(other)
        if not other.num.terms:
            raise ZeroDivisionError("division by zero rational element")
        return RationalElement(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalElement":
        return as_rational(other) / self

    def __pow__(self, k: int) -> "RationalElement":
        if k < 0:
            return (RationalElement(self.den, self.num)) ** (-k)
        return RationalElement(self.num**k, self.den**k)

    def __eq__(self, other) -> bool:
        try:
            other = as_rational(other)
        except TypeError:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    # -- substitution ------------------------------------------------------

    def subs_monomial(self, var: str, value: LaurentElement) -> "RationalElement":
        return RationalElement(
            self.num.subs_monomial(var, value), self.den.subs_monomial(var, value)
        )

    def subs_poly(self, var: str, value: LaurentElement) -> "RationalElement":
        num, den = self.num, self.den
        vmin = min(num.val2(var) or 0, den.val2(var) or 0)
        shift2 = max(0, -vmin)
        if shift2 % 2:
            shift2 += 1
        if shift2:
            scale = LaurentElement({((var, shift2),): 1})
            num = num * scale
            den = den * scale
        return RationalElement(num.subs_poly(var, value), den.subs_poly(var, value))

    def subs_one(self, var: str) -> "RationalElement":
        return RationalElement(self.num.subs_one(var), self.den.subs_one(var))

    def negate_var(self, var: str) -> "RationalElement":
        return RationalElement(self.num.negate_var(var), self.den.negate_var(var))

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        if self.is_laurent():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def as_rational(x) -> RationalElement:
    if isinstance(x, RationalElement):
        return x
    return RationalElement(as_element(x))


# -- expansion and residues ---------------------------------------------------

Element = Union[LaurentElement, RationalElement]


def _expand_zero(
    num: LaurentElement, den: LaurentElement, var: str, order2: int
) -> LaurentElement:
    """Series of num/den around ``var = 0`` up to doubled degree order2."""
    trunc = Trunc(frozenset({var}), order2, 1)
    if not num.terms:
        return LaurentElement.zero(trunc)
    lead_name = f"denominator constant term in {var!r}"
    return _trusted(_series_div(num, den, trunc.names, 1, order2, lead_name), trunc)


def expand(f: Element, point: str, order: int, *, var: str = "z") -> LaurentElement:
    """Series expansion of a rational element around ``var = 0`` or infinity.

    Returns a truncated Laurent element: all terms with degree in ``var``
    up to ``order`` (around 0) or down to ``-order`` (around infinity) are
    exact.  Requires the denominator to become a unit monomial at the point
    after factoring out a power of ``var``; raises NonExpandable otherwise.
    """
    if point not in ("zero", "infinity"):
        raise ValueError("point must be 'zero' or 'infinity'")
    if isinstance(f, LaurentElement):
        if f.trunc is not None and var in f.trunc.names:
            raise NonRational(f"already a truncated series in {var!r}")
        sign = 1 if point == "zero" else -1
        return f.truncate({var}, order, sign)
    num, den = f.num, f.den
    if point == "infinity":
        num, den = num.negate_var(var), den.negate_var(var)
    res = _expand_zero(num, den, var, 2 * order)
    if point == "infinity":
        res = res.negate_var(var)
    return res


def expand_general(
    f: Element, point: str, order: int, *, var: str = "z"
) -> dict[Fraction, RationalElement]:
    """Expansion with coefficients in the rational-function field.

    Returns a map {exponent of var: coefficient}, where coefficients are
    rational elements in the remaining variables.  Handles denominators
    whose constant term is not a monomial (where ``expand`` raises).
    """
    if point not in ("zero", "infinity"):
        raise ValueError("point must be 'zero' or 'infinity'")
    f = as_rational(f) if isinstance(f, LaurentElement) else f
    num, den = f.num, f.den
    if num.trunc is not None or den.trunc is not None:
        raise NonRational("cannot expand a truncated series")
    if point == "infinity":
        num, den = num.negate_var(var), den.negate_var(var)
    if not num.terms:
        return {}
    vn, vd = num.val2(var), den.val2(var)
    assert vn is not None and vd is not None
    ncoeffs = {e2 - vn: el for e2, el in num.coeffs_in(var).items()}
    dcoeffs = {e2 - vd: el for e2, el in den.coeffs_in(var).items()}
    d0 = as_rational(dcoeffs[0])
    lead = vn - vd
    needed = 2 * order - lead
    out: dict[Fraction, RationalElement] = {}
    series: dict[int, RationalElement] = {}
    for j in range(0, max(needed, -1) + 1):
        s = as_rational(ncoeffs.get(j, ZERO))
        for i in range(1, j + 1):
            if i in dcoeffs and (j - i) in series:
                s = s - as_rational(dcoeffs[i]) * series[j - i]
        series[j] = s / d0
        if series[j]:
            e = Fraction(lead + j, 2)
            out[-e if point == "infinity" else e] = series[j]
    return out


def expand_around_one(
    f: Element, order: int, *, var: str = "z", aug: str = "zeta"
) -> dict[Fraction, RationalElement]:
    """Expansion around ``var = 1`` in powers of ``aug := 1 - var``."""
    shifted = as_rational(f).subs_poly(
        var, LaurentElement.const(1) - LaurentElement.gen(aug)
    )
    return expand_general(shifted, "zero", order, var=aug)


def residue_K(f: Element, *, var: str = "z"):
    """The degree-0 coefficient of (expansion at infinity - expansion at 0)."""
    if isinstance(f, LaurentElement):
        if f.trunc is not None and var in f.trunc.names:
            raise NonRational(f"residue of a truncated series in {var!r}")
        return LaurentElement.zero()
    try:
        fp = expand(f, "zero", 0, var=var).coeff_of(var, 0)
        fm = expand(f, "infinity", 0, var=var).coeff_of(var, 0)
        return (fm - fp).without_trunc()
    except NonExpandable:
        zero = Fraction(0)
        fp2 = expand_general(f, "zero", 0, var=var).get(zero, as_rational(0))
        fm2 = expand_general(f, "infinity", 0, var=var).get(zero, as_rational(0))
        return (fm2 - fp2).maybe_laurent()


def residue_coh(f: Element, *, var: str = "u"):
    """Coefficient of ``var**-1`` in the expansion around infinity."""
    if isinstance(f, LaurentElement):
        if f.trunc is not None and var in f.trunc.names:
            raise NonRational(f"residue of a truncated series in {var!r}")
        return f.coeff_of(var, -1)
    try:
        return expand(f, "infinity", 1, var=var).coeff_of(var, -1).without_trunc()
    except NonExpandable:
        got = expand_general(f, "infinity", 1, var=var).get(Fraction(-1))
        return got.maybe_laurent() if got is not None else LaurentElement.zero()


# -- series exponential / logarithm -------------------------------------------


def plethystic_exp(g: LaurentElement) -> LaurentElement:
    """exp of a truncated series with zero constant term."""
    g = as_element(g)
    if not g.terms:
        return LaurentElement.const(1, g.trunc)
    if g.trunc is None:
        raise ValueError("series exponential needs a truncated input")
    if g.trunc_zero_part():
        raise NonzeroConstantTerm("series exponential needs zero constant term")
    if _below_zero(g):
        raise NonExpandable("series exponential of a term below degree 0")

    def terms():
        term = LaurentElement.const(1, g.trunc)
        yield term
        m = 0
        while term:
            m += 1
            term = term * g / m
            yield term

    return laurent_sum(terms())


def plethystic_log(f: LaurentElement) -> LaurentElement:
    """log of a truncated series with constant term 1."""
    f = as_element(f)
    if f.trunc is None:
        raise ValueError("series logarithm needs a truncated input")
    if f.trunc_zero_part() != ONE:
        raise NonzeroConstantTerm("series logarithm needs constant term 1")
    if _below_zero(f):
        raise NonExpandable("series logarithm of a term below degree 0")
    h = f - LaurentElement.const(1)

    def terms():
        power = LaurentElement.const(1, f.trunc)
        m = 0
        while True:
            m += 1
            power = power * h
            if not power:
                return
            yield Fraction((-1) ** (m + 1), m) * power

    return laurent_sum(terms(), f.trunc)


def exact_laurent_div(num: Element, den: Element, var: str) -> LaurentElement:
    """Exact division of Laurent polynomials along ``var``.

    Both inputs are read as Laurent polynomials in ``var`` with coefficients
    in the remaining variables.  The divisor's leading coefficient must be a
    single monomial and the division must leave no remainder; anything else
    raises NonExpandable.
    """
    num = as_element(num)
    den = as_element(den)
    if num.trunc is not None or den.trunc is not None:
        raise NonRational("exact division needs untruncated inputs")
    if not den.terms:
        raise ZeroDivisionError("exact division by zero")
    if not num.terms:
        return LaurentElement.zero()
    cn = num.coeffs_in(var)
    cd = den.coeffs_in(var)
    top = max(cd)
    lead = cd[top]
    if not lead.is_monomial():
        raise NonExpandable("divisor leading coefficient is not a single monomial")
    lead_inv = lead.monomial_inverse()
    # For an exact division the quotient's lowest var-degree is forced.
    floor = min(cn) - min(cd)
    # Each lower divisor coefficient, negated, with its degree below the top.
    lower = [(eb - top, -cb) for eb, cb in cd.items() if eb != top]
    rem = {e: dict(c.terms) for e, c in cn.items()}
    out: dict[Mono, Scalar] = {}
    while rem:
        e = max(rem)
        qe = e - top
        if qe < floor:
            raise NonExpandable("division is not exact")
        qc = _trusted(rem.pop(e)) * lead_inv
        shift = ((var, qe),) if qe else ()
        _add_terms(out, ((_mono_mul(m, shift), c) for m, c in qc.terms.items()))
        for offset, cb in lower:
            product = qc * cb
            ne = e + offset
            left = rem.get(ne)
            if left is None:
                rem[ne] = dict(product.terms)
            else:
                _add_terms(left, product.terms.items())
                if not left:
                    del rem[ne]
    return _trusted(out)


# -- specialization at kappa = 1 ----------------------------------------------


def specialize_kappa(f: Element, *, var: str = "k"):
    """Value at ``var = 1`` when the limit exists; PoleAtOne otherwise."""
    if isinstance(f, LaurentElement):
        if f.trunc is not None and var in f.trunc.names:
            raise NonRational(f"cannot specialize a truncated series in {var!r}")
        return f.subs_one(var)
    num, den = f.num, f.den
    root_minus_one = LaurentElement({((var, 1),): 1, (): -1})
    while den.subs_one(var) == ZERO:
        if num.subs_one(var) != ZERO:
            raise PoleAtOne(f"genuine pole at {var} = 1")
        if not num.terms:
            break
        num = exact_laurent_div(num, root_minus_one, var)
        den = exact_laurent_div(den, root_minus_one, var)
    d1 = den.subs_one(var)
    if not num.terms:
        return LaurentElement.zero()
    result = num.subs_one(var) / d1
    if isinstance(result, RationalElement):
        return result.maybe_laurent()
    return result


def kappa_one_vanishing_order(f: Element, *, var: str = "k") -> int | None:
    """Order of vanishing at ``var = 1`` (negative for poles, None for 0)."""
    root_minus_one = LaurentElement({((var, 1),): 1, (): -1})

    def _order(el: LaurentElement) -> int | None:
        if not el.terms:
            return None
        n = 0
        while el.subs_one(var) == ZERO:
            el = exact_laurent_div(el, root_minus_one, var)
            n += 1
        return n

    if isinstance(f, LaurentElement):
        return _order(f)
    on = _order(f.num)
    if on is None:
        return None
    od = _order(f.den)
    assert od is not None
    return on - od


# -- slopes and weight symbols -------------------------------------------------


def _parse_slope_entry(x) -> tuple[int, Fraction]:
    if isinstance(x, (int, Fraction)):
        return (0, _frac(x))
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf"):
            return (1, _ZERO)
        if s == "-inf":
            return (-1, _ZERO)
        return (0, Fraction(s))
    raise ValueError(f"cannot parse slope entry {x!r}")


@dataclass(frozen=True)
class SlopeValue:
    """A lexicographically ordered tuple of rationals extended by +-infinity.

    Each entry is stored as (tier, value) with tier -1/0/+1 for -infinity,
    finite, +infinity; tuple comparison then realizes the total order.
    """

    entries: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def of(*values) -> "SlopeValue":
        return SlopeValue(tuple(_parse_slope_entry(v) for v in values))

    def __lt__(self, other: "SlopeValue") -> bool:
        return self.entries < other.entries

    def __le__(self, other: "SlopeValue") -> bool:
        return self.entries <= other.entries

    def __gt__(self, other: "SlopeValue") -> bool:
        return self.entries > other.entries

    def __ge__(self, other: "SlopeValue") -> bool:
        return self.entries >= other.entries

    def __str__(self) -> str:
        def fmt(e: tuple[int, Fraction]) -> str:
            return {-1: "-inf", 1: "inf"}.get(e[0], str(e[1]))

        return "(" + ", ".join(fmt(e) for e in self.entries) + ")"
