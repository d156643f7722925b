"""Formal equivariant K-theory and cohomology classes built from Chern roots.

A :class:`VirtualClass` is a signed multiset of line symbols: multiplicative
weight monomials in K-mode, additive weight forms in cohomological mode.  On
top of it the module provides wedge and Euler classes (exact quotients when a
summand is negative), quantum integers, the symmetrized vertex kernel and its
z-residue, the projective-bundle pushforward formulas in all three flavours,
and the hbar-coefficient expansion of the vertex kernel with formal
Chern-character symbols.

Symbol names are fixed: κ is ``k`` (``ring.KAPPA``, so κ**(1/2) is
``k^(1/2)``), the equivariant parameter is ``hbar``, the series variable of
``theta_series`` is ``y`` and the formal Chern characters are ``ch1, ch2, …``.
A pushforward reads its argument f as a function of ``s`` (K-theory) or
``h`` (cohomology).  The variable a residue is taken in is ``z`` (K-theory)
or ``u`` (cohomology), primed until no input element names it, so an input
root may be called ``z`` or ``u``.  It reaches no output except
``ThetaKernel.value``, whose ``var`` names it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import ModeMismatch, TrivialWeightAtOne
from .ring import (
    KAPPA,
    ONE,
    LaurentElement,
    as_element,
    as_rational,
    exact_laurent_div,
    exp_times,
    fresh_name,
    integer_entry,
    laurent_sum,
    residue_K,
    residue_coh,
)


def _monomial_weight(w: LaurentElement) -> LaurentElement:
    if not w.is_monomial():
        raise ValueError(f"multiplicative weight must be a single monomial: {w}")
    ((_, coeff),) = w.monomials()
    if coeff != 1:
        raise ValueError(f"multiplicative weight must have coefficient 1: {w}")
    return w


class VirtualClass:
    """Signed formal sum of line symbols with explicit weights.

    ``roots`` is an iterable of weights or of (weight, sign) pairs; every
    2-tuple is such a pair (a weight is never a tuple), and its sign is an
    integer +1 or -1 (``ring.integer_entry``), else ValueError.  In mode
    ``"K"`` a weight is a multiplicative monomial with coefficient 1; in
    mode ``"coh"`` it is an additive form.
    """

    __slots__ = ("roots", "mode")

    def __init__(self, roots=(), mode: str = "K"):
        if mode not in ("K", "coh"):
            raise ValueError(f"mode must be 'K' or 'coh', got {mode!r}")
        entries = []
        for item in roots:
            if isinstance(item, tuple) and len(item) == 2:
                weight, sign = item[0], integer_entry(item[1])
                if sign not in (1, -1):
                    raise ValueError(f"a root's sign must be +1 or -1, got {item[1]!r}")
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


def complete_homogeneous(k: int, xs) -> LaurentElement:
    """k-th complete homogeneous symmetric polynomial of the given elements."""
    if k < 0:
        return LaurentElement.zero()
    return laurent_sum(
        math.prod(combo, start=ONE)
        for combo in itertools.combinations_with_replacement(list(xs), k)
    )


def _signed_product(pairs: list):
    """∏ factor**sign over (factor, sign) pairs: a Laurent element when the
    factors of sign -1 multiply to 1, else an exact rational keeping them
    as its denominator factors; every quotient of this module forms here."""
    num = math.prod((f for f, s in pairs if s == 1), start=ONE)
    den = [f for f, s in pairs if s != 1]
    if all(f.is_monomial() for f in den) and math.prod(den, start=ONE) == ONE:
        return num
    return functools.reduce(lambda quotient, f: quotient / f, den, as_rational(num))


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
    return _monomial_weight(mono) ** Fraction(numer, 2)


def _ehat_factor(zel: LaurentElement, w: LaurentElement) -> LaurentElement:
    """Symmetrized wedge factor (z·w)**(-1/2) - (z·w)**(1/2)."""
    root_inverse = _half_power(zel * w, -1)
    return root_inverse - root_inverse.monomial_inverse()


def wedge(E: VirtualClass, z="z"):
    """The wedge class ∏ over roots of (1 - z·w)**sign.

    Returns an exact Laurent element for honest classes and an exact rational
    element when negative summands are present, so wedge(-E) is the exact
    inverse of wedge(E).  ``z`` may be a variable name or any element.
    """
    if E.mode != "K":
        raise ModeMismatch("wedge needs a multiplicative-mode class")
    zel = _as_z(z)
    return _signed_product([(ONE - zel * w, s) for w, s in E.roots])


def symmetrized_wedge(E: VirtualClass, z="z"):
    """∏ over roots of ((z·w)**(-1/2) - (z·w)**(1/2))**sign.

    Returns an exact Laurent element for honest classes and an exact rational
    element when negative summands are present.
    """
    if E.mode != "K":
        raise ModeMismatch("symmetrized_wedge needs a multiplicative-mode class")
    zel = _as_z(z)
    return _signed_product([(_ehat_factor(zel, w), s) for w, s in E.roots])


def euler(E: VirtualClass, z="z"):
    """K-theoretic Euler class ∏ (1 - (z·w)**(-1))**sign.

    Pass ``z=None`` to evaluate at z=1, which is only allowed when no root
    has the trivial weight.  The inverse of a negative summand is kept exact,
    so the result is rational in general and euler(-E) is the exact inverse
    of euler(E).
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
    return _signed_product([(ONE - (zel * w).monomial_inverse(), s) for w, s in E.roots])


# -- quantum integers -----------------------------------------------------------


def quantum_integer(n: int) -> LaurentElement:
    """The symmetric quantum integer, an exact Laurent polynomial in κ**(1/2).

    Satisfies [n]·(κ**(1/2) - κ**(-1/2)) = (-1)**(n-1)·(κ**(n/2) - κ**(-n/2)),
    so [0] = 0, [1] = 1, [-n] = -[n], and the κ → 1 specialization is
    (-1)**(n-1)·n.  ``n`` is read by ``ring.integer_entry``.
    """
    n = integer_entry(n)
    if n == 0:
        return LaurentElement.zero()
    if n < 0:
        return -quantum_integer(-n)
    sign = 1 if n % 2 == 1 else -1
    return laurent_sum(
        LaurentElement.monomial(sign, {KAPPA: Fraction(n - 1 - 2 * j, 2)}) for j in range(n)
    )


# -- the vertex kernel ----------------------------------------------------------


def _kernel(e_ab: VirtualClass, e_ba: VirtualClass, zel: LaurentElement):
    """ê_{z^{-1}}(E_ab)·ê_z(E_ba) at z = ``zel``, exact."""
    return _signed_product(
        [(_ehat_factor(zel.monomial_inverse(), w), s) for w, s in e_ab.roots]
        + [(_ehat_factor(zel, w), s) for w, s in e_ba.roots]
    )


class ThetaKernel:
    """The kernel ê_{z^{-1}}(E_ab)·ê_z(E_ba), stored as an exact rational.

    Its variable ``var`` is ``z``, primed until no root of E_ab or E_ba
    names it.
    """

    __slots__ = ("var", "value")

    def __init__(self, e_ab: VirtualClass, e_ba: VirtualClass):
        if e_ab.mode != "K" or e_ba.mode != "K":
            raise ModeMismatch("the vertex kernel needs multiplicative-mode classes")
        var = fresh_name("z", [w for E in (e_ab, e_ba) for w, _ in E.roots])
        value = _kernel(e_ab, e_ba, LaurentElement.gen(var))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "value", as_rational(value))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaKernel is immutable")

    def residue(self):
        return residue_K(self.value, var=self.var)

    def __repr__(self) -> str:
        return f"ThetaKernel({self.value})"


def rigidity_residue(V: VirtualClass):
    """z-residue of ê_{z^{-1}}(κ^{-1}V^∨)/ê_z(V) for an honest V."""
    _require_honest(V, "K", "rigidity_residue")
    kinv = LaurentElement.gen(KAPPA).monomial_inverse()
    return ThetaKernel(V.dual().twist(kinv), -V).residue()


def rigidity_residue_coh(V: VirtualClass) -> LaurentElement:
    """u-residue of e_{-u}(κ^{-1}V^∨)/e_u(V) in cohomology.

    The twisted dual has additive roots -hbar-w, so the ratio is
    (-1)**r·∏(u+hbar+w)/∏(u+w) and the residue is (-1)**r·r·hbar.
    """
    _require_honest(V, "coh", "rigidity_residue_coh")
    ws = V.weights()
    var = fresh_name("u", ws)
    u = LaurentElement.gen(var)
    h = LaurentElement.gen("hbar")
    ratio = _signed_product([(-(u + h + w), 1) for w in ws] + [(u + w, -1) for w in ws])
    return residue_coh(ratio, var=var)


# -- projective-bundle pushforwards ----------------------------------------------


_MODE_CLASS = {"K": "a multiplicative-mode class", "coh": "an additive-mode class"}


def _require_honest(V: VirtualClass, mode: str, what: str) -> None:
    if V.mode != mode:
        raise ModeMismatch(f"{what} needs {_MODE_CLASS[mode]}")
    if not V.honest:
        raise ValueError(f"{what} needs an honest class")


def _substituted(f, V: VirtualClass, name: str, base: str):
    """f with the variable ``name`` replaced by a residue variable: ``base``
    primed until neither f nor a root of V names it.  Returns both."""
    f = as_element(f)
    var = fresh_name(base, [f, *V.weights()])
    return f.subs(name, LaurentElement.gen(var)), var


def projective_pushforward_K(f, V: VirtualClass):
    """Pushforward of f(s) along the projectivization of rank-r V.

    Computed as the z-residue of f(z)/∏(1 - (z·t_i)**(-1)) over the Chern
    roots t_i of V.
    """
    _require_honest(V, "K", "projective_pushforward_K")
    fz, var = _substituted(f, V, "s", "z")
    zel = LaurentElement.gen(var)
    den = [(ONE - (zel * w).monomial_inverse(), -1) for w in V.weights()]
    return residue_K(_signed_product([(fz, 1), *den]), var=var)


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


def projective_pushforward_symmetrized(f, V: VirtualClass) -> LaurentElement:
    """Symmetrized pushforward: the z-residue of f(z)·ê_{z^{-1}}(κ^{-1}V^∨)/ê_z(V)
    divided exactly by κ**(-1/2) - κ**(1/2).  With f = 1 this is the
    quantum integer [rank V].
    """
    _require_honest(V, "K", "projective_pushforward_symmetrized")
    fz, var = _substituted(f, V, "s", "z")
    kinv = LaurentElement.gen(KAPPA).monomial_inverse()
    kernel = _kernel(V.dual().twist(kinv), -V, LaurentElement.gen(var))
    res = residue_K(as_rational(fz) * kernel, var=var)
    half = LaurentElement.gen(KAPPA) ** Fraction(1, 2)
    return exact_laurent_div(res, half.monomial_inverse() - half, KAPPA)


def projective_pushforward_coh(f, V: VirtualClass):
    """Cohomological pushforward: the u-residue of f(u)/∏(u + w_i)."""
    _require_honest(V, "coh", "projective_pushforward_coh")
    fu, var = _substituted(f, V, "h", "u")
    u = LaurentElement.gen(var)
    den = [(u + w, -1) for w in V.weights()]
    return residue_coh(_signed_product([(fu, 1), *den]), var=var)


def pushforward_closed_coh(k: int, V: VirtualClass) -> LaurentElement:
    """Closed form of the cohomological pushforward of h**k: the Segre class
    s_j(V) = (-1)**j·h_j(roots), j = k - r + 1, zero for j < 0."""
    if V.mode != "coh":
        raise ModeMismatch("pushforward_closed_coh needs an additive-mode class")
    j = k - V.rank + 1
    if j < 0:
        return LaurentElement.zero()
    return (-1) ** j * complete_homogeneous(j, V.weights())


# -- hbar-coefficient expansion of the vertex kernel ------------------------------


def _chern_data(E):
    """Rank and Chern-character accessor, ch_0 the rank, for a class or a
    bare integer rank."""
    if isinstance(E, VirtualClass):
        if E.mode != "coh":
            raise ModeMismatch("theta coefficients need an additive-mode class")
        return E.rank, lambda p: chern_character(E, p)
    rank = integer_entry(E)
    return rank, lambda p: LaurentElement.gen(f"ch{p}") if p else LaurentElement.const(rank)


def _nonnegative(n, what: str) -> int:
    """``n`` read by ``ring.integer_entry``; ValueError if it is negative."""
    n = integer_entry(n)
    if n < 0:
        raise ValueError(f"{what} must be >= 0, got {n}")
    return n


def theta_series(E, order: int) -> LaurentElement:
    """The vertex-kernel coefficient series Σ θ_n·y**n, truncated at y**order.

    θ = (-1)**rank·(1 - hbar·y)**rank·exp(A), A = -Σ_j (j-1)!·ch_j·(u**j - y**j)
    with u = y/(1 - hbar·y), both factors read off in closed form: since
    u**j - y**j = Σ_{n>j} C(n-1, j-1)·hbar**(n-j)·y**n, A has y**n
    coefficient -Σ_{j<n} (j-1)!·C(n-1, j-1)·ch_j·hbar**(n-j), and
    (1 - hbar·y)**rank has y**m coefficient C(rank, m)·(-hbar)**m, the
    generalized binomial for a negative rank.  ``ring.exp_times`` runs the
    Euler recurrence for exp(A) on graded pieces and multiplies in the
    binomial's pieces.  ``order``, read by ``ring.integer_entry``, must be
    >= 0 (ValueError otherwise); a class must be additive-mode
    (ModeMismatch), and one with a root that names ``y``, the series
    variable, is refused (ValueError).
    """
    order = _nonnegative(order, "theta series order")
    rank, ch = _chern_data(E)
    if isinstance(E, VirtualClass) and any("y" in w.variables() for w, _ in E.roots):
        raise ValueError("a root of the class names y, the theta series variable")
    return _theta(rank, ch, order, "y")


def theta_coefficients(E, order: int) -> list[LaurentElement]:
    """[θ_0, …, θ_order] from the series of ``theta_series``, run in ``y``
    primed until no root of the class names it, so such a class is
    answered too; ``order`` is read as in ``theta_series``."""
    order = _nonnegative(order, "theta series order")
    rank, ch = _chern_data(E)
    y = fresh_name("y", [w for w, _ in E.roots] if isinstance(E, VirtualClass) else ())
    series = _theta(rank, ch, order, y)
    return [series.coeff_of(y, n) for n in range(order + 1)]


def _theta(rank: int, ch, order: int, var: str) -> LaurentElement:
    """The series of ``theta_series`` in the variable ``var``."""
    y, hy = LaurentElement.gen(var), LaurentElement.monomial(1, {"hbar": 1, var: 1})
    y_pow, hy_pow = [ONE], [ONE]
    for _ in range(order):
        y_pow.append(y_pow[-1] * y)
        hy_pow.append(hy_pow[-1] * hy)

    def argument():
        # ch_j·y**j times (hbar·y)**(n-j) with (j-1)!·C(n-1, j-1) = (n-1)!/(n-j)!.
        for j in range(1, order):
            tail = (-math.perm(j + e - 1, j - 1) * hy_pow[e] for e in range(1, order - j + 1))
            yield ch(j) * y_pow[j] * laurent_sum(tail)

    factor = laurent_sum(  # (-1)**rank·(1 - hbar·y)**rank
        (-1) ** ((rank + m) % 2) * _gbinom(rank, m) * hy_pow[m] for m in range(order + 1)
    )
    return exp_times(laurent_sum(argument()), [factor], {var}, order)


def _gbinom(a: int, m: int) -> int:
    """Generalized binomial coefficient C(a, m) for integer a of any sign."""
    return math.comb(a, m) if a >= 0 else (-1) ** m * math.comb(m - a - 1, m)


def _compositions_min2(total: int):
    """Ordered tuples of integers ≥ 2 summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(2, total + 1):
        for rest in _compositions_min2(total - first):
            yield (first,) + rest


def theta_closed(E, n: int) -> LaurentElement:
    """θ_n by direct enumeration of the closed binomial-sum formula.

    θ_n = (-1)**rank Σ ((-1)**k/k!)·(-hbar)**m·C(rank, m)·∏_i B_{n_i} over
    k ≥ 0, ordered parts n_i ≥ 2 and m ≥ 0 with n = Σ n_i + m, where
    B_p = Σ_{a=1}^{p-1} ((p-1)!/(p-a)!)·hbar**(p-a)·ch_a; ``n`` is read by
    ``ring.integer_entry``.
    """
    n = integer_entry(n)
    rank, ch = _chern_data(E)
    h = LaurentElement.gen("hbar")

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


def cy_limit_theta(E, n: int) -> LaurentElement:
    """θ_{n+1}/hbar at hbar = 0, in closed form: -(-1)**rank·n!·ch_n at
    hbar = 0, with ch_0 = rank; a root may name hbar, and its hbar is set
    to 0 too.  ``n``, read by ``ring.integer_entry``, must be >= 0
    (ValueError otherwise)."""
    n = _nonnegative(n, "limit index")
    rank, ch = _chern_data(E)
    return ((-1) ** ((rank + 1) % 2) * math.factorial(n) * ch(n)).subs("hbar", 0)
