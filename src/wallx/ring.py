"""Exact arithmetic backbone.

Sparse multivariate Laurent polynomials over the rationals, with optional
half-integer exponents so that symmetrized weights such as ``k^(1/2)`` stay
exact, rational elements (quotients of Laurent polynomials), series
expansion at 0/infinity, residue extraction and the series exponential, with
κ always the variable ``KAPPA``.  The specialization at κ = 1 is an oracle
of the acceptance checks (``selftest.specialize_kappa``).

An element is a plain Laurent polynomial.  A series is read to a fixed
order by an argument of the operation that needs it, never by state of the
element: ``truncate(names, order, sign)`` keeps the terms within that
window, and ``expand`` and ``exp_times`` compute only the terms within it.

How a monomial is stored is private to this module.  Other code builds
elements with ``gen``, ``const``, ``monomial``, ``truncate``, ``subs``, the
arithmetic and ``laurent_sum``, and reads their terms through
``LaurentElement.monomials()``, in natural exponents.  ``subs`` takes its
rule from the value: zero keeps the part free of the variable, a single
term meets any power, and any other value only nonnegative integer ones.

Every Laurent quotient in this module rests on one power-series division
on raw term dicts: ``expand``, ``residue_K``, ``residue_coh``,
``exact_laurent_div`` (the series at infinity, run one divisor span below
an exact quotient's floor) and ``expand_general`` (with a fresh variable
standing for a lowest piece that is not a monomial).  It
returns the quotient's pieces keyed by graded degree, and with one grading
variable it drops that variable from every monomial, since the key holds
its degree.  A residue reads one piece: degree 0 at both points, or
``var**-1`` at infinity.  The only other quotient is the packed ``div_d``,
the exact division by a power of D at the end of the ``vw_wcf`` peel: a
running sum on packed keys, where unpacking for the series division was
measured slower.  The one series exponential, ``exp_times``, Π factors·exp(g),
runs the same kind of graded recurrence on the pieces of g graded once and
multiplies each factor's pieces in under the same degree cap; it serves
``kclasses.theta_series`` (a binomial factor) and
``descendent.factorized_entry`` (one corner entry per block).

``packed_algebra`` serves one computation over a fixed set of variables,
the peel of ``wallcross.vw_wcf`` or a column of ``descendent.exp_minus_delta``:
it packs each monomial into one int with a slot per variable, sized from a
bound on the exponents the computation can reach, and unpacks the result.
Its slots live as long as the caller keeps the algebra.  A packed element
is a term dict: ``mul_terms`` and ``sum_terms`` serve it and the words of
the ``ucoeff`` peel alike, since packed keys add as words concatenate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import NonExpandable, NonzeroConstantTerm

Scalar = Union[int, Fraction]

#: The name of the quantum parameter κ; its half power κ**(1/2) is ``k^(1/2)``.
KAPPA = "k"

#: A monomial: sorted tuple of (variable name, doubled integer exponent).
Mono = tuple[tuple[str, int], ...]

_ZERO = Fraction(0)


def canonical_coefficient(x) -> Scalar:
    """The canonical form of a coefficient: an ``int`` when it is integral,
    otherwise a ``Fraction`` with denominator > 1.  Never a float or a bool:
    a bool reads as its ``int``, and anything that is not an ``int`` or a
    ``Fraction`` raises TypeError, since a float's binary fraction is not
    the number it was written as.  The free Lie layer keeps the same rule."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"a coefficient is an int or a Fraction, not {type(x).__name__}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def add_terms(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, coefficient) pairs into ``out`` in place and return it:
    the one add-into loop of the package, for monomials, packed keys and
    words alike.

    ``out`` holds canonical coefficients, and each pair's coefficient is a
    nonzero ``int`` or ``Fraction``.  An ``int`` inserted under a new key is
    stored as it is, which keeps the common case to one dict write; any
    other insert, and every sum that is not an ``int``, goes through
    ``canonical_coefficient``.  A key whose sum is zero is dropped.
    """
    get = out.get
    for m, c in pairs:
        prev = get(m)
        if prev is None:
            out[m] = c if type(c) is int else canonical_coefficient(c)
        else:
            total = prev + c
            if not total:
                del out[m]
            elif type(total) is int:
                out[m] = total
            else:
                out[m] = canonical_coefficient(total)
    return out


def scaled_terms(terms: Mapping, factor) -> dict:
    """``terms``, a map to canonical coefficients, times the scalar
    ``factor``, with every coefficient canonical; ``terms`` itself when
    ``factor`` is 1.

    Most products by 1/k! are integral: an ``int`` coefficient is scaled by
    one exact ``divmod``, which costs a fraction of a ``Fraction`` product.
    """
    factor = canonical_coefficient(factor)
    if type(factor) is int:
        if factor == 1:
            return terms
        if not factor:
            return {}
        if factor == -1:
            # A negated coefficient is canonical, and ``-c`` costs a
            # fraction of a ``Fraction`` product.
            return {m: -c for m, c in terms.items()}
        return {
            m: c * factor if type(c) is int else canonical_coefficient(c * factor)
            for m, c in terms.items()
        }
    num, den = factor.numerator, factor.denominator
    out = {}
    for m, c in terms.items():
        if type(c) is int:
            q, r = divmod(c * num, den)
            out[m] = Fraction(c * num, den) if r else q
        else:
            out[m] = canonical_coefficient(c * factor)
    return out


def mul_terms(left: Mapping, right: Mapping) -> dict:
    """The product of two term dicts whose keys multiply by ``+``: packed
    monomials add, and words (the peel's, and the free Lie layer's in its
    products, brackets and expansions) concatenate, so every ``left`` key
    comes first.  A key whose sum is zero is dropped, and coefficients are
    left as the products made them (a product of ``Fraction``s may be
    integral), for the reader to make canonical.  A one-term factor shifts
    every key of the other, which merges none."""
    if len(right) == 1:
        ((shift, k),) = right.items()
        return {m + shift: c * k for m, c in left.items()}
    if len(left) == 1:
        ((shift, k),) = left.items()
        return {shift + m: k * c for m, c in right.items()}
    out: dict = {}
    get = out.get
    pairs = list(right.items())
    for m1, c1 in left.items():
        for m2, c2 in pairs:
            m = m1 + m2
            prev = get(m)
            if prev is None:
                out[m] = c1 * c2
            else:
                total = prev + c1 * c2
                if total:
                    out[m] = total
                else:
                    del out[m]
    return out


def sum_terms(items: Iterable[Mapping]) -> Mapping:
    """The sum of term dicts (none: ``{}``), summed by ``add_terms``.  Empty
    items are skipped, and a lone nonempty item is returned as it is, not
    copied, so a result may share its dict with an input."""
    items = [x for x in items if x]
    if len(items) < 2:
        return items[0] if items else {}
    out = dict(items[0])
    for x in items[1:]:
        add_terms(out, x.items())
    return out


def _exp2(e: Scalar) -> int:
    """Convert a natural exponent (integer or half-integer) to doubled form.
    An exponent is an ``int`` or a ``Fraction``; a float, a bool or any
    other type raises TypeError, as a coefficient does."""
    if type(e) is int:
        return 2 * e
    if isinstance(e, bool) or not isinstance(e, (int, Fraction)):
        raise TypeError(f"an exponent is an int or a Fraction, not {type(e).__name__}")
    d = Fraction(e) * 2
    if d.denominator != 1:
        raise ValueError(f"exponent {e} is not a half-integer")
    return int(d)


def _mono(entries: Iterable[tuple[str, int]]) -> Mono:
    return tuple(sorted((v, int(e)) for v, e in entries if e))


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


class LaurentElement:
    """A finite sum of rational multiples of monomials.

    Immutable by convention: no method mutates ``terms`` after construction,
    so elements may share one ``terms`` dict; a product may share an
    operand's, as a product by the unit does.  Equality compares the terms.

    Every element is canonical: each key of ``terms`` is a monomial sorted by
    variable name with no zero exponent, each value is a nonzero exact
    rational stored as an ``int`` when it is integral and as a ``Fraction``
    with denominator > 1 otherwise (never a float).  Coefficients are nearly
    always integers, and ``int`` arithmetic costs a fraction of ``Fraction``
    arithmetic.  The constructor normalizes arbitrary input into this form;
    the arithmetic builds results that are canonical by construction and
    wraps them with ``_trusted`` instead.

    ``terms`` holds one entry per term, but the form of its keys (and so the
    constructor's input) is private to this module: read the terms through
    ``monomials()``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None) -> None:
        clean: dict[Mono, Scalar] = {}
        if terms:
            for m, c in terms.items():
                c = canonical_coefficient(c)
                if not c:
                    continue
                m = _mono(m)
                acc = clean.get(m, 0) + c
                if acc:
                    clean[m] = canonical_coefficient(acc)
                elif m in clean:
                    del clean[m]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("LaurentElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentElement":
        return LaurentElement({})

    @staticmethod
    def const(c: Scalar) -> "LaurentElement":
        return LaurentElement({(): c})

    @staticmethod
    def gen(name: str) -> "LaurentElement":
        return LaurentElement({((name, 2),): 1})

    @staticmethod
    def monomial(coeff: Scalar, exps: Mapping[str, Scalar]) -> "LaurentElement":
        m = _mono((v, _exp2(e)) for v, e in exps.items())
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

    def monomials(self) -> Iterator[tuple[dict[str, Scalar], Scalar]]:
        """The terms as (exponents, coefficient) pairs.

        ``exponents`` maps each variable of the term, in name order, to its
        natural exponent: an ``int``, or a ``Fraction`` for a half-integer.
        ``laurent_sum(monomial(c, e) for e, c in el.monomials())`` rebuilds
        ``el``.
        """
        for m, c in self.terms.items():
            yield {v: e2 // 2 if e2 % 2 == 0 else Fraction(e2, 2) for v, e2 in m}, c

    def coeff_of(self, var: str, exponent: Scalar) -> "LaurentElement":
        """Coefficient of ``var**exponent`` as an element without ``var``."""
        e2 = _exp2(exponent)
        out: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            e, rest = _split_var(m, var)
            if e == e2:
                out[rest] = c
        return _trusted(out)

    def _val2(self, var: str) -> int | None:
        """Minimal doubled exponent of ``var`` over all terms (None if zero)."""
        if not self.terms:
            return None
        return min(_split_var(m, var)[0] for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalElement):
            return NotImplemented
        out = dict(self.terms)
        add_terms(out, as_element(other).terms.items())
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentElement":
        return _trusted(scaled_terms(self.terms, -1))

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
            return _trusted(scaled_terms(self.terms, other))
        left, right = self.terms, as_element(other).terms
        if len(right) == 1 or len(left) == 1:
            # A monomial shift keeps distinct monomials distinct and nonzero
            # coefficients nonzero, so the product is one dict build in the
            # order of the longer operand, with no collision or zero checks.
            if len(right) == 1:
                many, ((shift, c2),) = left, right.items()
            else:
                many, ((shift, c2),) = right, left.items()
            if not shift and c2 == 1:
                return _trusted(many)
            return _trusted(_canonical({_mono_mul(m, shift): c * c2 for m, c in many.items()}))
        out: dict[Mono, Scalar] = {}
        _add_products(out, left.items(), right)
        return _trusted(_canonical(out))

    __rmul__ = __mul__

    def __pow__(self, k: int | Fraction) -> "LaurentElement":
        """``self**k`` for an integer ``k`` (an ``int`` or an integral
        ``Fraction``), or for any other ``Fraction`` when ``self`` is a
        coefficient-1 monomial, computed on the doubled exponents
        (ValueError for any other element, and when an exponent of the
        result is not a half-integer)."""
        if type(k) is Fraction and k.denominator != 1:
            if len(self.terms) != 1:
                raise ValueError("only a single-term element has a fractional power")
            ((m, c),) = self.terms.items()
            if c != 1:
                raise ValueError("only a coefficient-1 monomial has a fractional power")
            out = []
            for v, e2 in m:
                e = e2 * k
                if e.denominator != 1:
                    raise ValueError(f"exponent {Fraction(e, 2)} of {v} is not a half-integer")
                out.append((v, e.numerator))
            return _trusted({tuple(out): 1})
        if type(k) is Fraction:
            k = k.numerator
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.monomial_inverse() ** (-k)
        acc = ONE
        for _ in range(k):
            acc = acc * self
        return acc

    def monomial_inverse(self) -> "LaurentElement":
        if len(self.terms) != 1:
            raise ValueError("only single-term elements have a monomial inverse")
        (m, c), = self.terms.items()
        # A unit coefficient is its own inverse.
        inverse = c if c == 1 or c == -1 else canonical_coefficient(Fraction(1, c))
        return _trusted({_mono_pow(m, -1): inverse})

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

    __hash__ = None  # type: ignore[assignment]

    # -- structure ---------------------------------------------------------

    def truncate(self, names: Iterable[str], order: int, sign: int = 1) -> "LaurentElement":
        """The terms whose total degree in ``names`` is at most ``order``
        (``sign`` 1, a series around 0) or at least ``-order`` (``sign``
        -1, a series around infinity)."""
        names, sign = frozenset(names), 1 if sign > 0 else -1
        return _trusted(
            {m: c for m, c in self.terms.items() if sign * _mono_deg2(m, names) <= 2 * order}
        )

    def rename(self, names: Mapping[str, str]) -> "LaurentElement":
        """The element with each variable ``v`` named ``names[v]``: a
        one-to-one map of every variable, so no two terms merge."""
        return _trusted(
            {tuple(sorted([(names[v], e) for v, e in m])): c for m, c in self.terms.items()}
        )

    # -- substitution ------------------------------------------------------

    def subs(self, var: str, value) -> "LaurentElement":
        """Substitute ``value``, an element or a scalar, for ``var``.  Zero
        keeps the terms free of ``var`` (ZeroDivisionError at a negative
        power).  A single term c·m meets any power e as c**e·m**e, where a
        half-integer e needs c = 1 and m**e half-integer exponents.  Any
        other value meets only nonnegative integer powers.  Another
        refused power raises ValueError."""
        value = as_element(value)
        if len(value.terms) == 1:
            return _trusted(add_terms({}, _subs_term(self.terms, var, value.terms)))
        pieces = _graded(self.terms, frozenset((var,)), 1)
        if not value.terms:
            if pieces and min(pieces) < 0:
                raise ZeroDivisionError(f"negative power of {var!r} at 0")
            return _trusted(pieces.get(0, {}))
        if any(e2 < 0 or e2 % 2 for e2 in pieces):
            raise ValueError(f"a sum meets only nonnegative integer powers of {var!r}")
        out: dict[Mono, Scalar] = {}
        power, k = ONE, 0
        for e2 in sorted(pieces):
            for _ in range(k, e2 // 2):
                power = power * value
            k = e2 // 2
            add_terms(out, (_trusted(pieces[e2]) * power).terms.items())
        return _trusted(out)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # One pass over the terms.  str(c) gives a coefficient's sign and
        # digits at once, and the text "1" marks a unit coefficient, which
        # a monomial leaves out.
        out: list[str] = []
        for m, c in sorted(self.terms.items()):
            text = str(c)
            if text[0] == "-":
                out.append(" - " if out else "-")
                text = text[1:]
            elif out:
                out.append(" + ")
            if not m:
                out.append(text)
                continue
            factors = [] if text == "1" else [text]
            for v, e2 in m:
                if e2 == 2:
                    factors.append(v)
                elif e2 % 2:
                    factors.append(f"{v}^({e2}/2)")
                else:
                    factors.append(f"{v}^{e2 // 2}")
            out.append("*".join(factors))
        return "".join(out)


_set_terms = LaurentElement.terms.__set__


def _trusted(terms: dict[Mono, Scalar]) -> LaurentElement:
    """Wrap ``terms`` as an element without normalizing them.

    ``terms`` must already be canonical (see LaurentElement) and must not be
    mutated afterwards.
    """
    el = object.__new__(LaurentElement)
    _set_terms(el, terms)
    return el


def _canonical(terms: dict[Mono, Scalar]) -> dict[Mono, Scalar]:
    """``terms`` with every coefficient in canonical form (see ``canonical_coefficient``),
    changed in place: products and sums of Fractions may be integral."""
    for m, c in terms.items():
        if type(c) is not int:
            terms[m] = canonical_coefficient(c)
    return terms


def _split_var(m: Mono, var: str) -> tuple[int, Mono]:
    """The doubled exponent of ``var`` in ``m`` (0 if absent) and ``m``
    without it; dropping an entry keeps a monomial sorted."""
    for i, (v, e) in enumerate(m):
        if v == var:
            return e, m[:i] + m[i + 1 :]
    return 0, m


def _subs_term(terms: dict[Mono, Scalar], var: str, value: dict[Mono, Scalar]):
    """The terms of ``LaurentElement.subs`` at a single-term ``value``, not
    yet summed.  ``var`` is split off inline: a ``_split_var`` call per
    term was measured slower."""
    ((vm, vc),) = value.items()
    for m, c in terms.items():
        i = 0
        for v, e2 in m:
            if v == var:
                rest = m[:i] + m[i + 1 :]
                if vc != 1:
                    if e2 % 2:
                        raise ValueError("half-integer power of a value with coefficient != 1")
                    c = canonical_coefficient(c * Fraction(vc) ** (e2 // 2))
                if vm:
                    scaled = []
                    for w, f2 in vm:
                        prod = f2 * e2
                        if prod % 2:
                            raise ValueError("substitution produces a quarter-integer power")
                        scaled.append((w, prod // 2))
                    rest = _mono_mul(rest, tuple(scaled))
                yield rest, c
                break
            i += 1
        else:
            yield m, c


def as_element(x) -> LaurentElement:
    if isinstance(x, LaurentElement):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentElement.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent element")


def laurent_sum(items: Iterable) -> LaurentElement:
    """The sum of Laurent elements or scalars, built in place in one dict.

    Equal to folding ``+`` over ``items`` from ``LaurentElement.zero()``, at
    a cost linear in the terms added instead of a copy of the running sum
    per item.
    """
    out: dict[Mono, Scalar] = {}
    for x in items:
        add_terms(out, as_element(x).terms.items())
    return _trusted(out)


def _graded(
    terms: dict[Mono, Scalar], names: frozenset[str], sign: int
) -> dict[int, dict[Mono, Scalar]]:
    """``terms`` split by ``sign`` times the total doubled degree in ``names``.
    With one name, a piece's key holds that name's exponent, so its
    monomials drop the name; ``_ungraded`` puts it back."""
    pieces: dict[int, dict[Mono, Scalar]] = {}
    if len(names) == 1:
        (var,) = names
        for m, c in terms.items():
            e, rest = _split_var(m, var)
            pieces.setdefault(sign * e, {})[rest] = c
        return pieces
    for m, c in terms.items():
        pieces.setdefault(sign * _mono_deg2(m, names), {})[m] = c
    return pieces


def _ungraded(
    pieces: dict[int, dict[Mono, Scalar]], names: frozenset[str], sign: int
) -> dict[Mono, Scalar]:
    """The terms of ``_graded`` pieces in one dict, each monomial whole again."""
    out: dict[Mono, Scalar] = {}
    for n, piece in pieces.items():
        if len(names) == 1 and n:
            shift = ((*names, sign * n),)
            piece = {_mono_mul(m, shift): c for m, c in piece.items()}
        out.update(piece)
    return out


def _add_products(
    piece: dict[Mono, Scalar], step: Iterable[tuple[Mono, Scalar]], prev: dict[Mono, Scalar]
) -> None:
    """Add every product of a term of ``step`` and a term of ``prev`` into
    ``piece`` in place, dropping zero sums; the coefficients are left for
    ``_canonical``."""
    get = piece.get
    for m1, c1 in step:
        for m2, c2 in prev.items():
            m = _mono_mul(m1, m2)
            total = get(m, 0) + c1 * c2
            if total:
                piece[m] = total
            else:
                del piece[m]


def _series_div(
    num: dict[Mono, Scalar],
    dens: list[dict[Mono, Scalar]],
    names: frozenset[str],
    sign: int,
    top: int,
    lead_name: str,
) -> dict[int, dict[Mono, Scalar]]:
    """The pieces of graded degree <= ``top`` of the series num/∏dens,
    keyed by degree and stored as ``_graded`` stores them.

    ``num`` (nonzero) and each den are canonical terms, graded by ``sign``
    times the total doubled degree in ``names``.  Every den's lowest piece d
    must be a single monomial (NonExpandable otherwise, naming it
    ``lead_name``); all are checked first.  num is multiplied by every 1/d,
    then divided by one den/d at a time, each quotient's pieces feeding the
    next division, which reads them up to ``top`` plus the lows of the dens
    after it.  With h_e the degree-e piece of 1 - den/d, q_n = p_n +
    Σ_e h_e·q_{n-e}: each piece once (power-series division, Knuth TAOCP
    vol. 2, §4.7), as a plain dict product, every term exact.  A residue
    reads one piece; ``expand`` and ``exact_laurent_div`` put the variable
    back through ``_ungraded``.
    """
    divisors = []
    shift: Mono = ()
    scale: Scalar = 1
    for den in dens:
        den_pieces = _graded(den, names, sign)
        low = min(den_pieces)
        lead = den_pieces.pop(low)
        if len(lead) != 1:
            raise NonExpandable(f"{lead_name} is not a single monomial")
        ((lead_m, lead_c),) = lead.items()
        inv = _mono_pow(lead_m, -1)
        # A unit coefficient is its own inverse and keeps every product an int.
        cinv = lead_c if lead_c in (1, -1) else Fraction(1, lead_c)
        shift, scale = _mono_mul(shift, inv), scale * cinv
        steps = [
            (
                e - low,
                [(_mono_mul(m, inv), canonical_coefficient(-c * cinv)) for m, c in piece.items()],
            )
            for e, piece in sorted(den_pieces.items())
        ]
        divisors.append((low, steps))
    pieces = {
        e: {_mono_mul(m, shift): canonical_coefficient(c * scale) for m, c in piece.items()}
        for e, piece in _graded(num, names, sign).items()
    }
    cap = top + sum(low for low, _ in divisors)
    for low, steps in divisors:
        cap -= low
        quot = {e - low: piece for e, piece in pieces.items() if e - low <= cap}
        if not quot:
            return quot
        # quot starts as the pieces p_n and takes each q_n in place, in rising n.
        for n in range(min(quot), cap + 1):
            piece = quot.pop(n, {})
            for e, step in steps:
                prev = quot.get(n - e)
                if prev is not None:
                    _add_products(piece, step, prev)
            if piece:
                quot[n] = _canonical(piece)
        pieces = quot
    return {n: piece for n, piece in pieces.items() if n <= top}


ONE = LaurentElement.const(1)


def _mono_content(el: LaurentElement) -> Mono:
    """Largest monomial dividing every term of ``el`` (exponent-wise min).

    One pass over the terms: a variable missing from some term has exponent
    0 there, so its minimum is capped at 0.
    """
    low: dict[str, int] = {}
    seen: dict[str, int] = {}
    for m in el.terms:
        for v, e in m:
            prev = low.get(v)
            if prev is None or e < prev:
                low[v] = e
            seen[v] = seen.get(v, 0) + 1
    n = len(el.terms)
    return _mono((v, e if seen[v] == n else min(e, 0)) for v, e in low.items())


def _quotient(num: LaurentElement, factors, q=None) -> "RationalElement":
    """num/∏factors, built in ``q`` if given; a single-term factor folds into num."""
    q = object.__new__(RationalElement) if q is None else q
    kept = []
    for den in factors:
        if len(den.terms) > 1:
            kept.append(den)
        elif den.terms:
            num = num * den.monomial_inverse()
        else:
            raise ZeroDivisionError("zero denominator")
    object.__setattr__(q, "_num", num)
    object.__setattr__(q, "_factors", tuple(kept))
    object.__setattr__(q, "_normal", None if kept else (num, ONE))
    return q


class RationalElement:
    """Quotient of a Laurent numerator by Laurent factors.

    The denominator is kept as the factors it was built from (one for
    ``RationalElement(num, den)``; ``*``, ``/`` and ``**`` concatenate or
    repeat them), a single-term factor folds into the numerator, and
    ``expand`` and the residues divide by one factor at a time.  ``num`` and
    ``den`` are built when first read: ``den`` is the product of the
    factors, its monomial content (the product of theirs) moved into
    ``num``, so ``den == 1`` exactly when every factor was a single term.
    No common factor is cancelled: ``RationalElement(1 - t, t - 1)`` equals
    -1 but prints as ``(1 - t) / (-1 + t)``, and its ``is_laurent()`` is
    False.  A rational element is meant to carry one quotient on its way to
    a residue or an expansion, not to chain field operations.
    """

    __slots__ = ("_num", "_factors", "_normal")

    def __init__(self, num, den=None) -> None:
        num = as_element(num)
        den = ONE if den is None else as_element(den)
        _quotient(num, () if den.terms == ONE.terms else (den,), self)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("RationalElement is immutable")

    def _normalized(self) -> tuple[LaurentElement, LaurentElement]:
        if self._normal is None:
            num, den = self._num, ONE
            for factor in self._factors:
                den = den * factor
            content = _mono_content(den)
            if content:
                shrink = _trusted({_mono_pow(content, -1): 1})
                num, den = num * shrink, den * shrink
            object.__setattr__(self, "_normal", (num, den))
        return self._normal

    num = property(lambda self: self._normalized()[0])
    den = property(lambda self: self._normalized()[1])

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_laurent(self) -> bool:
        return not self._factors

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
        return _quotient(-self._num, self._factors)

    def __sub__(self, other) -> "RationalElement":
        return self + (-as_rational(other))

    def __rsub__(self, other) -> "RationalElement":
        return as_rational(other) - self

    def __mul__(self, other) -> "RationalElement":
        other = as_rational(other)
        return _quotient(self._num * other._num, self._factors + other._factors)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalElement":
        other = as_rational(other)
        if not other._num.terms:
            raise ZeroDivisionError("division by zero rational element")
        num = self._num if other.is_laurent() else self._num * other.den
        return _quotient(num, self._factors + (other.num,))

    def __rtruediv__(self, other) -> "RationalElement":
        return as_rational(other) / self

    def __pow__(self, k: int) -> "RationalElement":
        if k < 0:
            return (RationalElement(self.den, self.num)) ** (-k)
        return _quotient(self._num**k, self._factors * k)

    def __eq__(self, other) -> bool:
        try:
            other = as_rational(other)
        except TypeError:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    # -- substitution ------------------------------------------------------

    def subs(self, var: str, value) -> "RationalElement":
        """``LaurentElement.subs`` in numerator and denominator."""
        return RationalElement(self.num.subs(var, value), self.den.subs(var, value))

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


def fresh_name(base: str, values) -> str:
    """``base`` primed until it names no variable of the elements ``values``."""
    taken = {v for value in values for v in value.variables()}
    while base in taken:
        base += "'"
    return base


# -- expansion and residues ---------------------------------------------------

Element = Union[LaurentElement, RationalElement]


def _expansion(f: RationalElement, var: str, order2: int, sign: int) -> dict:
    """The ``_series_div`` pieces of ``f`` around ``var = 0`` (``sign`` 1) or
    infinity (``sign`` -1), up to graded degree order2: keyed by ``sign``
    times the doubled degree in ``var``, with ``var`` dropped."""
    if not f._num.terms:
        return {}
    lead_name = f"denominator constant term in {var!r}"
    dens = [den.terms for den in f._factors]
    return _series_div(f._num.terms, dens, frozenset({var}), sign, order2, lead_name)


def expand(f: Element, point: str, order: int, *, var: str = "z") -> LaurentElement:
    """Series expansion of a rational element around ``var = 0`` or infinity.

    Returns the terms with degree in ``var`` up to ``order`` (around 0) or
    down to ``-order`` (around infinity), the window of ``truncate``, each
    exact.  Requires the denominator to become a unit monomial at the point
    after factoring out a power of ``var``; raises NonExpandable otherwise.
    """
    if point not in ("zero", "infinity"):
        raise ValueError("point must be 'zero' or 'infinity'")
    sign = 1 if point == "zero" else -1
    if isinstance(f, LaurentElement):
        return f.truncate({var}, order, sign)
    pieces = _expansion(f, var, 2 * order, sign)
    return _trusted(_ungraded(pieces, frozenset({var}), sign))


def expand_general(
    f: Element, point: str, order: int, *, var: str = "z"
) -> dict[Fraction, RationalElement]:
    """Expansion with coefficients in the rational-function field.

    Returns a map {exponent of var: coefficient}, where coefficients are
    rational elements in the remaining variables.  Handles denominators
    whose lowest piece d at the point is not a monomial (where ``expand``
    raises): the series division runs with a fresh variable λ standing for
    d, so each coefficient comes back as a polynomial Σ c_k·λ^-k, and is
    returned over a power of d as (Σ c_k·d^(K-k)) / d^K.
    """
    if point not in ("zero", "infinity"):
        raise ValueError("point must be 'zero' or 'infinity'")
    f = as_rational(f) if isinstance(f, LaurentElement) else f
    num, den = f.num, f.den
    if not num.terms:
        return {}
    sign = 1 if point == "zero" else -1
    names = frozenset({var})
    den_pieces = _graded(den.terms, names, sign)
    low = min(den_pieces)
    powers = [ONE, _trusted(den_pieces[low])]
    lam = fresh_name("lambda", (num, den, LaurentElement.gen(var)))
    den_pieces[low] = {((lam, 2),): 1}
    stand_in = _ungraded(den_pieces, names, sign)
    pieces = _series_div(num.terms, [stand_in], names, sign, 2 * order, lam)
    out: dict[Fraction, RationalElement] = {}
    for n, piece in pieces.items():
        by_power = {e // 2: t for e, t in _graded(piece, frozenset({lam}), -1).items()}
        top = max(by_power)
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
        value = laurent_sum(_trusted(t) * powers[top - k] for k, t in by_power.items())
        if value.terms:
            out[Fraction(sign * n, 2)] = RationalElement(value, powers[top])
    return out


def residue_K(f: Element, *, var: str = "z"):
    """The degree-0 coefficient of (expansion at infinity - expansion at 0)."""
    if isinstance(f, LaurentElement):
        return LaurentElement.zero()
    try:
        fp = _expansion(f, var, 0, 1).get(0, {})
        fm = _expansion(f, var, 0, -1).get(0, {})
    except NonExpandable:
        zero = Fraction(0)
        fp2 = expand_general(f, "zero", 0, var=var).get(zero, as_rational(0))
        fm2 = expand_general(f, "infinity", 0, var=var).get(zero, as_rational(0))
        return (fm2 - fp2).maybe_laurent()
    add_terms(fm, ((m, -c) for m, c in fp.items()))
    return _trusted(fm)


def residue_coh(f: Element, *, var: str = "u"):
    """Coefficient of ``var**-1`` in the expansion around infinity."""
    if isinstance(f, LaurentElement):
        return f.coeff_of(var, -1)
    try:
        return _trusted(_expansion(f, var, 2, -1).get(2, {}))
    except NonExpandable:
        got = expand_general(f, "infinity", 1, var=var).get(Fraction(-1))
        return got.maybe_laurent() if got is not None else LaurentElement.zero()


# -- series exponential -------------------------------------------------------


def exp_times(
    g: LaurentElement, factors: Iterable, names: Iterable[str], order: int, sign: int = 1
) -> LaurentElement:
    """Π ``factors``·exp(g) in the window of ``truncate(names, order,
    sign)``, for a g whose terms in that window have degree above 0
    (NonzeroConstantTerm for a constant term, NonExpandable for a term below
    degree 0) and factors with no term below degree 0 (ValueError).

    With g_k and E_n the pieces of g and of E = exp(g) graded as in
    ``_series_div``, the Euler operator (each piece times its degree) turns
    E' = g'·E into n·E_n = Σ_k k·g_k·E_{n-k} (Knuth TAOCP vol. 2, §4.7):
    each piece once, as a plain dict product on ``_graded`` pieces.  The
    pieces of each factor then multiply the running pieces once, skipping
    every product above the cap, and the result is ungraded once.  This is
    the package's one series exponential: exp(g) alone is
    ``exp_times(g, [], names, order, sign)``.
    """
    names, sign, top = frozenset(names), 1 if sign > 0 else -1, 2 * order
    graded = {k: p for k, p in _graded(as_element(g).terms, names, sign).items() if k <= top}
    if 0 in graded:
        raise NonzeroConstantTerm("series exponential needs zero constant term")
    if min(graded, default=0) < 0:
        raise NonExpandable("series exponential of a term below degree 0")
    factor_pieces = [_graded(as_element(f).terms, names, sign) for f in factors]
    if any(min(f, default=0) < 0 for f in factor_pieces):
        raise ValueError("a factor has a term below degree 0")
    steps = [(k, [(m, k * c) for m, c in piece.items()]) for k, piece in sorted(graded.items())]
    pieces: dict[int, dict[Mono, Scalar]] = {0: {(): 1}} if top >= 0 else {}
    for n in range(1, top + 1):
        piece: dict[Mono, Scalar] = {}
        for k, step in steps:
            if k > n:
                break
            prev = pieces.get(n - k)
            if prev is not None:
                _add_products(piece, step, prev)
        if piece:
            pieces[n] = scaled_terms(piece, Fraction(1, n))
    for factor in factor_pieces:
        product: dict[int, dict[Mono, Scalar]] = {}
        for m, factor_piece in factor.items():
            for k, piece in pieces.items():
                if m + k <= top:
                    _add_products(product.setdefault(m + k, {}), factor_piece.items(), piece)
        pieces = {n: _canonical(piece) for n, piece in product.items() if piece}
    return _trusted(_ungraded(pieces, names, sign))


def exact_laurent_div(
    num: LaurentElement | Scalar, den: LaurentElement | Scalar, var: str
) -> LaurentElement:
    """Exact division of Laurent polynomials along ``var``.

    Both inputs are read as Laurent polynomials in ``var`` with coefficients
    in the remaining variables.  The divisor's leading coefficient must be a
    single monomial and the division must leave no remainder; anything else
    raises NonExpandable.

    The quotient is the series num/den at ``var`` = infinity, whose terms
    below the floor val(num) - val(den) vanish exactly when the division is
    exact.  Past one divisor span below the floor, num minus the quotient
    times den would have no term at or above val(num), so it is zero: the
    series is run to that depth and no further.
    """
    num = as_element(num)
    den = as_element(den)
    if not den.terms:
        raise ZeroDivisionError("exact division by zero")
    if not num.terms:
        return LaurentElement.zero()
    names = frozenset({var})
    low = den._val2(var)
    span = max(_split_var(m, var)[0] for m in den.terms) - low
    floor = num._val2(var) - low
    # At infinity a piece's graded degree is minus its doubled exponent.
    lead_name = "divisor leading coefficient"
    pieces = _series_div(num.terms, [den.terms], names, -1, span - floor, lead_name)
    if max(pieces) > -floor:
        raise NonExpandable("division is not exact")
    return _trusted(_ungraded(pieces, names, -1))


# -- packed exponents for one computation --------------------------------------


class _PackedAlgebra:
    """Laurent polynomials over a fixed set of variables, each monomial
    packed into one ``int`` (Monagan–Pearce, CASC 2007).

    Every variable owns a slot of ``width`` bits, in name order, and a
    monomial is Σ e₂(v)·2^(width·slot(v)) with signed (balanced) digits, so
    multiplying monomials is adding ints.  An element is an ``{int:
    coefficient}`` dict, falsy when zero, multiplied and summed by
    ``mul_terms`` and ``sum_terms``; dicts are never changed after they are
    built, so results may share them.  The width is fixed by the bound
    given to ``packed_algebra``, and no digit of a product within that
    bound can spill into its neighbour.  Packed keys mean nothing outside
    the algebra that made them: read results with ``unpack``.
    """

    __slots__ = ("_slot", "_names", "_width", "_reach", "_step", "_full_offset")

    def __init__(self, names: list[str], width: int, reach: int, step: int) -> None:
        self._names = names
        self._slot = {v: width * i for i, v in enumerate(names)}
        self._width = width
        self._reach = reach
        self._step = step
        self._full_offset = self._offset(width * len(names))

    def _key(self, m: Mono, limit: int) -> int:
        key = 0
        for v, e in m:
            shift = self._slot.get(v)
            if shift is None or abs(e) > limit:
                raise ValueError(f"{v}^({e}/2) lies outside the packed algebra's bound")
            key += e << shift
        return key

    def _offset(self, top: int) -> int:
        """Half a slot added to every slot below bit ``top``: the lower
        digits of a key plus it are nonnegative, so none borrows from the
        digits above."""
        half = 1 << (self._width - 1)
        return sum(half << shift for shift in self._slot.values() if shift < top)

    def _digit(self, var: str) -> tuple[int, int, int, int]:
        """``var``'s bit shift and the offset, mask and half slot that read
        its digit of a key as ``((key + offset) >> shift & mask) - half``."""
        shift = self._slot.get(var)
        if shift is None:
            raise ValueError(f"{var!r} is not a variable of the packed algebra")
        width = self._width
        return shift, self._offset(shift + width), (1 << width) - 1, 1 << (width - 1)

    def pack(self, el: LaurentElement) -> dict[int, Scalar]:
        """``el`` (within the bound) as a packed element."""
        return {self._key(m, self._reach): c for m, c in el.terms.items()}

    def term(self, coeff: Scalar, exps: Mapping[str, Scalar]) -> dict[int, Scalar]:
        """One monomial factor, ``coeff`` times Π v^e over ``exps``, as a
        one-term element; its exponents must be within the step bound."""
        m = _mono((v, _exp2(e)) for v, e in exps.items())
        return {self._key(m, self._step): canonical_coefficient(coeff)}

    def unpack(self, x: dict[int, Scalar]) -> LaurentElement:
        """The Laurent element of a packed element.  The bit scan and the
        canonical coefficients are its whole cost, so an element read
        under several renamings is unpacked once and each renaming applied
        to the result with ``LaurentElement.rename``."""
        width = self._width
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        offset = self._full_offset
        names = self._names
        out: dict[Mono, Scalar] = {}
        for key, c in x.items():
            key += offset
            # The slots of key ^ offset are nonzero exactly where the digit
            # is, and run in name order, so the monomial comes out sorted.
            rest = key ^ offset
            m = []
            while rest:
                i = ((rest & -rest).bit_length() - 1) // width
                shift = i * width
                m.append((names[i], (key >> shift & mask) - half))
                rest = rest >> (shift + width) << (shift + width)
            out[tuple(m)] = c
        return _trusted(_canonical(out))

    def coeff_of(self, x: dict[int, Scalar], var: str, exponent: Scalar) -> dict[int, Scalar]:
        """Coefficient of ``var**exponent``, with ``var``'s digit cleared."""
        shift, offset, mask, half = self._digit(var)
        e2 = _exp2(exponent)
        drop = e2 << shift
        return {m - drop: c for m, c in x.items() if ((m + offset) >> shift & mask) - half == e2}

    def div_d(self, x: dict[int, Scalar], var: str, power: int) -> dict[int, Scalar]:
        """Exact quotient of ``x`` by D^power, D = var^(1/2) − var^(−1/2).

        Along each chain of monomials that differ by whole powers of ``var``,
        f = q·D reads f_e = q_{e−1} − q_{e+1} in doubled exponents, so
        q_{e−1} = Σ_{i≥0} f_{e+2i}, a running sum from the top of the chain.
        The quotient stays within the chain's range; a chain whose full sum
        is not zero leaves a remainder and raises NonExpandable.
        """
        if not power:
            return x
        shift, offset, mask, half = self._digit(var)
        chains: dict[int, list[tuple[int, Scalar]]] = {}
        for m, c in x.items():
            e = ((m + offset) >> shift & mask) - half
            # The key keeps the parity of e: odd and even chains differ.
            chains.setdefault(m - ((e >> 1) << (shift + 1)), []).append((e, c))
        out: dict[int, Scalar] = {}
        for key, chain in chains.items():
            base = key - ((chain[0][0] & 1) << shift)
            chain.sort(reverse=True)
            for _ in range(power):
                chain = _d_quotient(chain)
            for e, c in chain:
                out[base + (e << shift)] = c
        return _canonical(out)


def _d_quotient(chain: list[tuple[int, Scalar]]) -> list[tuple[int, Scalar]]:
    """The quotient by D of one chain of (doubled exponent, coefficient)
    pairs in decreasing exponent, as such a chain.  Between two terms of
    the chain the running sum is constant, so a gap costs nothing unless
    the quotient has terms there."""
    out: list[tuple[int, Scalar]] = []
    run = 0
    prev = 0
    for e, c in chain:
        if run:
            out.extend((gap - 1, run) for gap in range(prev - 2, e, -2))
        run += c
        if run:
            out.append((e - 1, run))
        prev = e
    if run:
        raise NonExpandable("division by D is not exact")
    # The last running sum is zero, so the last pair is not in out.
    return out


def packed_algebra(
    elements: Iterable[LaurentElement], names: Iterable[str] = (), *, depth: int, step: int = 0
) -> _PackedAlgebra:
    """The packed algebra over the variables of ``elements`` and ``names``
    for products of at most ``depth`` of the elements and ``depth - 1``
    ``term`` factors whose doubled exponents are at most ``step`` in size.

    No digit of such a product, of a sum of them, or of a quotient by a
    power of D exceeds depth·r + (depth − 1)·step, r the largest doubled
    exponent of the elements, so one more bit than that bound needs sets
    the width; it holds one element even at depth 0.  The algebra lives as
    long as its caller keeps it.
    """
    variables = set(names)
    reach = 0
    for el in elements:
        for m in el.terms:
            for v, e in m:
                variables.add(v)
                if abs(e) > reach:
                    reach = abs(e)
    bound = max(depth, 1) * reach + max(depth - 1, 0) * step
    return _PackedAlgebra(sorted(variables), bound.bit_length() + 1, reach, step)


# -- slopes and weight symbols -------------------------------------------------


_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def integer_entry(x) -> int:
    """An integer input as an ``int``: an ``int`` (not a ``bool``) or a
    ``Fraction`` with denominator 1; anything else, a float or a string
    included, raises ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.denominator == 1:
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


def slope_entry(x) -> tuple[int, Fraction]:
    """A slope entry as (tier, value), tier -1, 0, +1 for -infinity, a rational,
    +infinity.  An entry is an ``int`` (not a ``bool``), a ``Fraction``, or a
    string: ``"inf"``, ``"+inf"``, ``"-inf"`` or a signed integer or ratio of
    integers such as ``" -3/4"``; anything else raises ValueError."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return (0, Fraction(x))
    if not isinstance(x, str):
        raise ValueError(f"slope entries must be integers or strings, got {x!r}")
    s = x.strip()
    if s in ("inf", "+inf"):
        return (1, _ZERO)
    if s == "-inf":
        return (-1, _ZERO)
    if not _RATIONAL.match(s):
        raise ValueError(f"cannot parse slope entry {x!r}")
    try:
        return (0, Fraction(s))
    except ZeroDivisionError:
        raise ValueError(f"slope entry {x!r} has a zero denominator") from None


class SlopeValue(tuple):
    """A lexicographically ordered tuple of rationals extended by ±infinity:
    a tuple of ``slope_entry`` pairs, so tuple order is the slope order."""

    __slots__ = ()

    @staticmethod
    def of(*values) -> "SlopeValue":
        return SlopeValue(map(slope_entry, values))

    def __str__(self) -> str:
        return "(" + ", ".join({-1: "-inf", 1: "inf"}.get(t, str(v)) for t, v in self) + ")"
