"""Formal equivariant K-theory and cohomology classes built from Chern roots.

A :class:`VirtualClass` is a signed multiset of line symbols: multiplicative
weight monomials in K-mode, additive weight forms in cohomological mode.  On
top of it the module provides wedge and Euler classes (with truncated series
inverses for negative summands), quantum integers, the symmetrized vertex
kernel and its z-residue, the projective-bundle pushforward formulas in all
three flavours, and the hbar-coefficient expansion of the vertex kernel with
formal Chern-character symbols.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ModeMismatch, TrivialWeightAtOne
from .ring import (
    LaurentElement,
    Trunc,
    as_element,
    as_rational,
    exact_laurent_div,
    laurent_sum,
    plethystic_exp,
    residue_K,
    residue_coh,
)

ONE = LaurentElement.const(1)

#: Default name of the quantum parameter; kappa**(1/2) is its half power.
KAPPA = "k"

#: Series inverses of wedge factors live in augmented coordinates: ``xi``
#: stands for (1 - z)**(-1) and ``lam_<v>`` stands for 1 - <v>.
AUG_Z = "xi"


def aug_name(var: str) -> str:
    """Augmented-coordinate name for a weight variable."""
    return "lam_" + var


def _monomial_weight(w: LaurentElement) -> LaurentElement:
    if not w.is_monomial():
        raise ValueError(f"multiplicative weight must be a single monomial: {w}")
    ((_, coeff),) = w.terms.items()
    if coeff != 1:
        raise ValueError(f"multiplicative weight must have coefficient 1: {w}")
    return w


class VirtualClass:
    """Signed formal sum of line symbols with explicit weights.

    ``roots`` is an iterable of weights or of (weight, sign) pairs with sign
    in {+1, -1}.  In mode ``"K"`` a weight is a multiplicative monomial with
    coefficient 1; in mode ``"coh"`` it is an additive form.
    """

    __slots__ = ("roots", "mode")

    def __init__(self, roots=(), mode: str = "K"):
        if mode not in ("K", "coh"):
            raise ValueError(f"mode must be 'K' or 'coh', got {mode!r}")
        entries = []
        for item in roots:
            if isinstance(item, tuple) and len(item) == 2 and item[1] in (1, -1):
                weight, sign = item
            else:
                weight, sign = item, 1
            weight = as_element(weight)
            if mode == "K":
                weight = _monomial_weight(weight)
            entries.append((weight, sign))
        object.__setattr__(self, "roots", tuple(entries))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("VirtualClass is immutable")

    @classmethod
    def line(cls, weight, mode: str = "K") -> "VirtualClass":
        return cls([(weight, 1)], mode)

    @property
    def rank(self) -> int:
        return sum(s for _, s in self.roots)

    @property
    def honest(self) -> bool:
        return all(s == 1 for _, s in self.roots)

    def weights(self) -> list[LaurentElement]:
        if not self.honest:
            raise ValueError("weights() is only defined for honest classes")
        return [w for w, _ in self.roots]

    def __neg__(self) -> "VirtualClass":
        return VirtualClass([(w, -s) for w, s in self.roots], self.mode)

    def __add__(self, other: "VirtualClass") -> "VirtualClass":
        if not isinstance(other, VirtualClass):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeMismatch("cannot add classes of different modes")
        return VirtualClass(self.roots + other.roots, self.mode)

    def __sub__(self, other: "VirtualClass") -> "VirtualClass":
        return self + (-other)

    def dual(self) -> "VirtualClass":
        if self.mode == "K":
            return VirtualClass(
                [(w.monomial_inverse(), s) for w, s in self.roots], self.mode
            )
        return VirtualClass([(-w, s) for w, s in self.roots], self.mode)

    def twist(self, factor) -> "VirtualClass":
        """Multiply every weight by ``factor`` (K) / add it to every weight (coh)."""
        factor = as_element(factor)
        if self.mode == "K":
            return VirtualClass(
                [(w * factor, s) for w, s in self.roots], self.mode
            )
        return VirtualClass([(w + factor, s) for w, s in self.roots], self.mode)

    def det(self) -> LaurentElement:
        if self.mode != "K":
            raise ModeMismatch("det is a multiplicative-mode operation")
        acc = ONE
        for w, s in self.roots:
            acc = acc * (w if s == 1 else w.monomial_inverse())
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, VirtualClass):
            return NotImplemented
        return self.mode == other.mode and self.roots == other.roots

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"{'+' if s == 1 else '-'}[{w}]" for w, s in self.roots]
        return f"VirtualClass({' '.join(parts) or '0'}, mode={self.mode!r})"


# -- symmetric function helpers -------------------------------------------------


def elementary_symmetric(k: int, xs) -> LaurentElement:
    """k-th elementary symmetric polynomial of the given elements."""
    if k < 0:
        return LaurentElement.zero()
    return laurent_sum(_product(combo) for combo in itertools.combinations(list(xs), k))


def complete_homogeneous(k: int, xs) -> LaurentElement:
    """k-th complete homogeneous symmetric polynomial of the given elements."""
    if k < 0:
        return LaurentElement.zero()
    return laurent_sum(
        _product(combo) for combo in itertools.combinations_with_replacement(list(xs), k)
    )


def _product(factors) -> LaurentElement:
    term = ONE
    for x in factors:
        term = term * x
    return term


def _signed_product(pairs: list):
    """∏ factor**sign over (factor, sign) pairs: a Laurent element when no
    sign is -1, else an exact rational."""
    num = _product(f for f, s in pairs if s == 1)
    den = _product(f for f, s in pairs if s != 1)
    return num if den == ONE else as_rational(num) / den


def chern_character(E: VirtualClass, p: int) -> LaurentElement:
    """p-th Chern character of an additive-mode class, Σ sign·w**p/p!."""
    if E.mode != "coh":
        raise ModeMismatch("chern_character needs an additive-mode class")
    if p == 0:
        return LaurentElement.const(E.rank)
    return laurent_sum(Fraction(s, math.factorial(p)) * w**p for w, s in E.roots)


# -- wedge and Euler classes ----------------------------------------------------


def _as_z(z) -> LaurentElement:
    if isinstance(z, str):
        return LaurentElement.gen(z)
    return as_element(z)


def _half_power(mono: LaurentElement, numer: int) -> LaurentElement:
    """mono**(numer/2) for a coefficient-1 monomial."""
    mono = _monomial_weight(mono)
    ((m, _),) = mono.terms.items()
    return LaurentElement.monomial(
        1, {var: Fraction(e2 * numer, 4) for var, e2 in m}
    )


def _ehat_factor(zel: LaurentElement, w: LaurentElement) -> LaurentElement:
    """Symmetrized wedge factor (z·w)**(-1/2) - (z·w)**(1/2)."""
    mono = zel * w
    return _half_power(mono, -1) - _half_power(mono, 1)


def _binomial_series(a: Fraction, x: LaurentElement, trunc: Trunc) -> LaurentElement:
    """(1 - x)**a as a truncated series, for any rational exponent a."""

    def terms():
        power = LaurentElement.const(1, trunc)
        yield power
        coeff = Fraction(1)
        j = 0
        while True:
            j += 1
            coeff = coeff * (a - (j - 1)) / j
            power = power * (-x)
            term = coeff * power
            if not term:
                return
            yield term

    return laurent_sum(terms())


def _aug_weight(w: LaurentElement, trunc: Trunc) -> LaurentElement:
    """A weight monomial rewritten in augmented coordinates, ∏(1-lam_v)**a_v."""
    ((m, _),) = w.terms.items()
    acc = LaurentElement.const(1, trunc)
    for var, e2 in m:
        lam = LaurentElement.gen(aug_name(var))
        acc = acc * _binomial_series(Fraction(e2, 2), lam, trunc)
    return acc


def _inverse_wedge_factor(wt: LaurentElement, trunc: Trunc) -> LaurentElement:
    """Series inverse of the substituted wedge factor (1 - wt) + xi**(-1)·wt.

    With A := 1 - wt this is Σ_k (-1)**k A**k wt**(-k-1) xi**(k+1); every term
    has total augmented degree ≥ 2k+1 so the sum terminates under truncation.
    """
    xi = LaurentElement.gen(AUG_Z)
    a = LaurentElement.const(1, trunc) - wt
    step = wt.invert_series() * xi

    def terms():
        cur = step
        while cur:
            yield cur
            cur = cur * (-a) * step

    return laurent_sum(terms(), trunc)


def wedge(E: VirtualClass, z="z", order: int | None = None) -> LaurentElement:
    """The wedge series ∏ over roots of (1 - z·w)**sign.

    Honest classes give an exact Laurent polynomial and ``z`` may be any
    element.  A negative summand forces the augmented-coordinate series route
    (``z`` must then be a plain variable name): the result is a truncated
    series in ``xi`` = (1-z)**(-1) and ``lam_v`` = 1-v, to total degree
    ``order`` (default 2·#roots+2).
    """
    if E.mode != "K":
        raise ModeMismatch("wedge needs a multiplicative-mode class")
    if E.honest:
        zel = _as_z(z)
        acc = ONE
        for w, _ in E.roots:
            acc = acc * (ONE - zel * w)
        return acc
    if not isinstance(z, str):
        raise ValueError("the series inverse route needs a plain variable name")
    if order is None:
        order = 2 * len(E.roots) + 2
    names = {AUG_Z}
    for w, _ in E.roots:
        names.update(aug_name(v) for v in w.variables())
    trunc = Trunc(frozenset(names), 2 * order, 1)
    xi_inv = LaurentElement.gen(AUG_Z).monomial_inverse()
    acc = LaurentElement.const(1, trunc)
    for w, s in E.roots:
        wt = _aug_weight(w, trunc)
        if s == 1:
            acc = acc * ((LaurentElement.const(1, trunc) - wt) + xi_inv * wt)
        else:
            acc = acc * _inverse_wedge_factor(wt, trunc)
    return acc


def symmetrized_wedge(E: VirtualClass, z="z"):
    """∏ over roots of ((z·w)**(-1/2) - (z·w)**(1/2))**sign.

    Returns an exact Laurent element for honest classes and an exact rational
    element when negative summands are present.
    """
    if E.mode != "K":
        raise ModeMismatch("symmetrized_wedge needs a multiplicative-mode class")
    zel = _as_z(z)
    return _signed_product([(_ehat_factor(zel, w), s) for w, s in E.roots])


def euler(E: VirtualClass, z="z", *, symmetrized: bool = False):
    """K-theoretic Euler class ∏ (1 - (z·w)**(-1))**sign.

    Pass ``z=None`` to evaluate at z=1, which is only allowed when no root
    has the trivial weight.  With ``symmetrized=True`` each factor is replaced
    by its symmetrization (z·w)**(1/2) - (z·w)**(-1/2).  The inverse of a
    negative summand is kept exact, so the result is rational in general and
    euler(-E) is the exact inverse of euler(E).
    """
    if E.mode != "K":
        raise ModeMismatch("euler needs a multiplicative-mode class")
    if z is None:
        for w, _ in E.roots:
            if w == ONE:
                raise TrivialWeightAtOne(
                    "Euler class at z=1 is degenerate on a trivial weight"
                )
        zel = ONE
    else:
        zel = _as_z(z)

    def factor(w):
        if symmetrized:
            return -_ehat_factor(zel, w)
        return ONE - (zel * w).monomial_inverse()

    return _signed_product([(factor(w), s) for w, s in E.roots])


# -- quantum integers -----------------------------------------------------------


def quantum_integer(n: int, *, kappa: str = KAPPA) -> LaurentElement:
    """The symmetric quantum integer, an exact Laurent polynomial in kappa**(1/2).

    Satisfies [n]·(kappa**(1/2) - kappa**(-1/2)) = (-1)**(n-1)·(kappa**(n/2) -
    kappa**(-n/2)), so [0] = 0, [1] = 1, [-n] = -[n], and the kappa → 1
    specialization is (-1)**(n-1)·n.
    """
    if n == 0:
        return LaurentElement.zero()
    if n < 0:
        return -quantum_integer(-n, kappa=kappa)
    sign = 1 if n % 2 == 1 else -1
    return LaurentElement({((kappa, n - 1 - 2 * j),): sign for j in range(n)})


# -- the vertex kernel ----------------------------------------------------------


class ThetaKernel:
    """The kernel ê_{z^{-1}}(E_ab)·ê_z(E_ba), stored as an exact rational."""

    __slots__ = ("e_ab", "e_ba", "zvar", "value")

    def __init__(self, e_ab: VirtualClass, e_ba: VirtualClass, zvar: str = "z"):
        if e_ab.mode != "K" or e_ba.mode != "K":
            raise ModeMismatch("the vertex kernel needs multiplicative-mode classes")
        zel = LaurentElement.gen(zvar)
        value = _signed_product(
            [(_ehat_factor(zel.monomial_inverse(), w), s) for w, s in e_ab.roots]
            + [(_ehat_factor(zel, w), s) for w, s in e_ba.roots]
        )
        object.__setattr__(self, "e_ab", e_ab)
        object.__setattr__(self, "e_ba", e_ba)
        object.__setattr__(self, "zvar", zvar)
        object.__setattr__(self, "value", as_rational(value))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaKernel is immutable")

    def residue(self):
        return residue_K(self.value, var=self.zvar)

    def shift(self, w) -> "ThetaKernel":
        """Kernel with both sides twisted so that z is shifted to w·z."""
        w = as_element(w)
        return ThetaKernel(
            self.e_ab.twist(w.monomial_inverse()), self.e_ba.twist(w), self.zvar
        )

    def substituted(self, w):
        """The stored value with z replaced by w·z."""
        w = as_element(w)
        zel = LaurentElement.gen(self.zvar)
        return self.value.subs_monomial(self.zvar, w * zel)

    def __repr__(self) -> str:
        return f"ThetaKernel({self.value})"


def theta(e_ab: VirtualClass, e_ba: VirtualClass, zvar: str = "z") -> ThetaKernel:
    return ThetaKernel(e_ab, e_ba, zvar)


def rigidity_residue(V: VirtualClass, *, zvar: str = "z", kappa: str = KAPPA):
    """z-residue of ê_{z^{-1}}(kappa^{-1}V^∨)/ê_z(V) for an honest V."""
    _require_honest(V, "K", "rigidity_residue")
    kinv = LaurentElement.gen(kappa).monomial_inverse()
    kernel = theta(V.dual().twist(kinv), -V, zvar)
    return kernel.residue()


def rigidity_residue_coh(
    V: VirtualClass, *, uvar: str = "u", hbar: str = "hbar"
) -> LaurentElement:
    """u-residue of e_{-u}(kappa^{-1}V^∨)/e_u(V) in cohomology.

    The twisted dual has additive roots -hbar-w, so the ratio is
    (-1)**r·∏(u+hbar+w)/∏(u+w) and the residue is (-1)**r·r·hbar.
    """
    _require_honest(V, "coh", "rigidity_residue_coh")
    u = LaurentElement.gen(uvar)
    h = LaurentElement.gen(hbar)
    ws = V.weights()
    num = _product(-(u + h + w) for w in ws)
    den = _product(u + w for w in ws)
    return residue_coh(as_rational(num) / den, var=uvar)


# -- projective-bundle pushforwards ----------------------------------------------


_MODE_CLASS = {"K": "a multiplicative-mode class", "coh": "an additive-mode class"}


def _require_honest(V: VirtualClass, mode: str, what: str) -> None:
    if V.mode != mode:
        raise ModeMismatch(f"{what} needs {_MODE_CLASS[mode]}")
    if not V.honest:
        raise ValueError(f"{what} needs an honest class")


def projective_pushforward_K(f, V: VirtualClass, *, svar: str = "s", zvar: str = "z"):
    """Pushforward of f(s) along the projectivization of rank-r V.

    Computed as the z-residue of f(z)/∏(1 - (z·t_i)**(-1)) over the Chern
    roots t_i of V.
    """
    _require_honest(V, "K", "projective_pushforward_K")
    zel = LaurentElement.gen(zvar)
    fz = as_element(f).subs_monomial(svar, zel)
    den = _product(ONE - (zel * w).monomial_inverse() for w in V.weights())
    return residue_K(as_rational(fz) / den, var=zvar)


def pushforward_closed_K(k: int, V: VirtualClass) -> LaurentElement:
    """Closed form of the pushforward of the k-th tautological power.

    Sym^k V^∨ for k ≥ 0, zero for -r < k < 0, and
    (-1)**(r+1)·det(V)·Sym^(-k-r) V for k ≤ -r.
    """
    _require_honest(V, "K", "pushforward_closed_K")
    r = V.rank
    ws = V.weights()
    if k >= 0:
        return complete_homogeneous(k, [w.monomial_inverse() for w in ws])
    if k > -r:
        return LaurentElement.zero()
    return (-1) ** (r + 1) * V.det() * complete_homogeneous(-k - r, ws)


def projective_pushforward_symmetrized(
    f, V: VirtualClass, *, svar: str = "s", zvar: str = "z", kappa: str = KAPPA
) -> LaurentElement:
    """Symmetrized pushforward: the z-residue of f(z)·ê_{z^{-1}}(kappa^{-1}V^∨)/ê_z(V)
    divided exactly by kappa**(-1/2) - kappa**(1/2).  With f = 1 this is the
    quantum integer [rank V].
    """
    _require_honest(V, "K", "projective_pushforward_symmetrized")
    zel = LaurentElement.gen(zvar)
    fz = as_element(f).subs_monomial(svar, zel)
    kinv = LaurentElement.gen(kappa).monomial_inverse()
    kernel = theta(V.dual().twist(kinv), -V, zvar)
    res = residue_K(as_rational(fz) * kernel.value, var=zvar)
    half = LaurentElement.monomial(1, {kappa: Fraction(1, 2)})
    return exact_laurent_div(res, half.monomial_inverse() - half, kappa)


def projective_pushforward_coh(
    f, V: VirtualClass, *, hvar: str = "h", uvar: str = "u"
):
    """Cohomological pushforward: the u-residue of f(u)/∏(u + w_i)."""
    _require_honest(V, "coh", "projective_pushforward_coh")
    u = LaurentElement.gen(uvar)
    fu = as_element(f).subs_monomial(hvar, u)
    den = _product(u + w for w in V.weights())
    return residue_coh(as_rational(fu) / den, var=uvar)


def segre_class(V: VirtualClass, j: int) -> LaurentElement:
    """j-th Segre class of an additive-mode honest class: (-1)**j·h_j(roots)."""
    if V.mode != "coh":
        raise ModeMismatch("segre_class needs an additive-mode class")
    if j < 0:
        return LaurentElement.zero()
    return (-1) ** j * complete_homogeneous(j, V.weights())


def pushforward_closed_coh(k: int, V: VirtualClass) -> LaurentElement:
    """Closed form of the cohomological pushforward of h**k: s_{k-r+1}(V)."""
    return segre_class(V, k - V.rank + 1)


# -- hbar-coefficient expansion of the vertex kernel ------------------------------


def _chern_data(E, hbar: str, ch_prefix: str):
    """Rank and Chern-character accessor for a class or a bare integer rank."""
    if isinstance(E, VirtualClass):
        if E.mode != "coh":
            raise ModeMismatch("theta coefficients need an additive-mode class")
        return E.rank, lambda p: chern_character(E, p)
    rank = int(E)
    return rank, lambda p: LaurentElement.gen(f"{ch_prefix}{p}")


def theta_series(
    E, order: int, *, yvar: str = "y", hbar: str = "hbar", ch_prefix: str = "ch"
) -> LaurentElement:
    """The vertex-kernel coefficient series Σ θ_n·y**n, truncated at y**order.

    Computed by generic series machinery: the series is
    (-1)**rank·(1-hbar·y)**rank·exp(-Σ_j y**j·((1-hbar·y)**(-j) - 1)·(j-1)!·ch_j),
    with the binomial factor taken as a geometric-series inverse when the rank
    is negative.
    """
    rank, ch = _chern_data(E, hbar, ch_prefix)
    trunc = Trunc(frozenset({yvar}), 2 * order, 1)
    y = LaurentElement.gen(yvar) * LaurentElement.const(1, trunc)
    h = LaurentElement.gen(hbar)
    g = LaurentElement.const(1, trunc) - h * y
    ginv = g.invert_series()
    arg = LaurentElement.zero(trunc)
    power = ginv
    for j in range(1, order + 1):
        # power holds (1 - hbar·y)**(-j)
        arg = arg - math.factorial(j - 1) * ch(j) * y**j * (
            power - LaurentElement.const(1, trunc)
        )
        power = power * ginv
    series = plethystic_exp(arg)
    binom = ONE * LaurentElement.const(1, trunc)
    for _ in range(abs(rank)):
        binom = binom * (g if rank >= 0 else ginv)
    sign = 1 if rank % 2 == 0 else -1
    return sign * binom * series


def theta_coefficients(
    E, order: int, *, yvar: str = "y", hbar: str = "hbar", ch_prefix: str = "ch"
) -> list[LaurentElement]:
    """[θ_0, …, θ_order] extracted from the coefficient series."""
    series = theta_series(E, order, yvar=yvar, hbar=hbar, ch_prefix=ch_prefix)
    return [series.coeff_of(yvar, n).without_trunc() for n in range(order + 1)]


def _gbinom(a: int, m: int) -> Fraction:
    """Generalized binomial coefficient C(a, m) for integer a of any sign."""
    acc = Fraction(1)
    for i in range(m):
        acc = acc * (a - i)
    return acc / math.factorial(m)


def _compositions_min2(total: int):
    """Ordered tuples of integers ≥ 2 summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(2, total + 1):
        for rest in _compositions_min2(total - first):
            yield (first,) + rest


def theta_closed(
    E, n: int, *, hbar: str = "hbar", ch_prefix: str = "ch"
) -> LaurentElement:
    """θ_n by direct enumeration of the closed binomial-sum formula.

    θ_n = (-1)**rank Σ ((-1)**k/k!)·(-hbar)**m·C(rank, m)·∏_i B_{n_i} over
    k ≥ 0, ordered parts n_i ≥ 2 and m ≥ 0 with n = Σ n_i + m, where
    B_p = Σ_{a=1}^{p-1} ((p-1)!/(p-a)!)·hbar**(p-a)·ch_a.
    """
    rank, ch = _chern_data(E, hbar, ch_prefix)
    h = LaurentElement.gen(hbar)

    def bracket(p: int) -> LaurentElement:
        return laurent_sum(
            Fraction(math.factorial(p - 1), math.factorial(p - a)) * h ** (p - a) * ch(a)
            for a in range(1, p)
        )

    def terms():
        for m in range(n + 1):
            for parts in _compositions_min2(n - m):
                k = len(parts)
                coeff = Fraction((-1) ** k, math.factorial(k)) * (-1) ** m * _gbinom(
                    rank, m
                )
                term = LaurentElement.const(coeff) * h**m
                for p in parts:
                    term = term * bracket(p)
                yield term

    return (1 if rank % 2 == 0 else -1) * laurent_sum(terms())


def cy_limit_theta(
    E, n: int, *, hbar: str = "hbar", ch_prefix: str = "ch"
) -> LaurentElement:
    """θ_{n+1}/hbar at hbar = 0, the point-insertion coefficient -(-1)**rank·n!·ch_n."""
    h = LaurentElement.gen(hbar)
    quotient = exact_laurent_div(
        theta_closed(E, n + 1, hbar=hbar, ch_prefix=ch_prefix), h, hbar
    )
    return quotient.subs_zero(hbar)
