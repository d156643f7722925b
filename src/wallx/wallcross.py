"""Wall-crossing sums over pluggable graded Lie backends.

Invariant tables map the effective classes of one monoid to
coefficient-ring values, and every sum runs over the cone of its table; the
bracket side is either the formal free Lie algebra on class symbols or the
quantum torus, whose bracket multiplies values and picks up the quantum
integer of the pairing of the classes.  The main entry points assemble the
universal-coefficient Lie element and push it through a backend, evaluate
the framed pair sum as ``vw_wcf`` on the framed lattice, with one more
coordinate for the framing class, and invert that sum class by class in
increasing mass.

The numerical wall-crossing sum ``vw_wcf`` is read from the factorization
identity instead of summing over ordered splittings: the product of
exponentials over the slopes of one stability, in decreasing order, equals
the same product over the slopes of the other, in the quantum torus
truncated to the classes below the target.  The new invariants come out of
that product one class at a time in increasing mass, by ``ucoeff.refactor``,
the peel that also gives ``wcf_rhs`` its Lie element, here run on packed
monomials (``ring.packed_algebra``) that live for one call.  Its input
contract: both stabilities satisfy the weak see-saw property on every class
below the target, and the table has an entry for each of those classes
unless it counts missing entries as zero.  The cosection counts o enter the
reduced sum alone, as an argument of ``vw_wcf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import MissingFr, UnsupportedClass, ZeroQuantumInteger
from .freelie import LieContext, LieElement, evaluate_lie
from .kclasses import quantum_integer
from .ring import (
    KAPPA,
    LaurentElement,
    as_element,
    canonical_coefficient,
    exact_laurent_div,
    fresh_name,
    integer_entry,
    packed_algebra,
    scaled_terms,
)
from .ucoeff import (
    EffectiveMonoid,
    StabilityData,
    U_coeff,
    as_class,
    class_lookup,
    linear_stability,
    pairing_form,
    peel_classes,
    refactor,
    utilde_lie_element,
)

# ``U_coeff`` stays importable from this module, beside the sums it expands.
__all__ = [
    "FreeLieBackend",
    "GradedValue",
    "InvariantTable",
    "QuantumTorusBackend",
    "U_coeff",
    "invert_semistable",
    "pair_invariant_rhs",
    "unrefined_integer",
    "vw_wcf",
    "wcf_rhs",
]


def unrefined_integer(n: int) -> LaurentElement:
    """The length-one specialization of the quantum integer: (-1)^(n-1)·n."""
    return LaurentElement.const(n if n % 2 == 1 else -n)


class GradedValue:
    """A coefficient value tagged with its class; class None marks zero."""

    __slots__ = ("cls", "value")

    def __init__(self, cls, value):
        object.__setattr__(self, "cls", None if cls is None else as_class(cls))
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("GradedValue is immutable")

    def __add__(self, other: "GradedValue") -> "GradedValue":
        if not isinstance(other, GradedValue):
            return NotImplemented
        if self.cls is None:
            return other
        if other.cls is None:
            return self
        if self.cls != other.cls:
            raise ValueError(
                f"cannot add values of classes {self.cls} and {other.cls}"
            )
        return GradedValue(self.cls, self.value + other.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedValue):
            return NotImplemented
        return self.cls == other.cls and self.value == other.value

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedValue({self.cls}, {self.value!r})"


class QuantumTorusBackend:
    """Bracket (α, v), (β, w) -> (α+β, [χ(α,β)]·v·w) over a κ-Laurent ring.

    ``chi`` is an antisymmetric integer matrix (``ucoeff.pairing_form``);
    the quantum-integer map is pluggable so the same sums can be run unrefined.
    """

    __slots__ = ("chi", "qint")

    def __init__(self, chi, *, qint=None):
        object.__setattr__(self, "chi", pairing_form(chi))
        object.__setattr__(self, "qint", quantum_integer if qint is None else qint)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumTorusBackend is immutable")

    def zero(self) -> GradedValue:
        return GradedValue(None, LaurentElement.zero())

    def lift(self, cls, value) -> GradedValue:
        if value is None:
            return self.zero()
        return GradedValue(cls, as_element(value))

    def bracket(self, x: GradedValue, y: GradedValue) -> GradedValue:
        if x.cls is None or y.cls is None:
            return self.zero()
        weight = self.qint(_pairing(self.chi, x.cls, y.cls))
        return GradedValue(
            tuple(a + b for a, b in zip(x.cls, y.cls)),
            weight * x.value * y.value,
        )

    def scale(self, coeff, x: GradedValue) -> GradedValue:
        if x.cls is None:
            return x
        return GradedValue(x.cls, coeff * x.value)


class FreeLieBackend:
    """Formal backend: classes stay free Lie symbols in a declared context."""

    __slots__ = ("context",)

    def __init__(self, context: LieContext):
        object.__setattr__(self, "context", context)

    def __setattr__(self, name, value):
        raise AttributeError("FreeLieBackend is immutable")

    def zero(self) -> LieElement:
        return LieElement.zero(self.context)

    def lift(self, cls, value) -> LieElement:
        if value is None:
            return self.zero()
        if not isinstance(value, LieElement):
            raise TypeError("free Lie backend entries must be Lie elements")
        return value

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        return x.bracket(y)

    def scale(self, coeff, x: LieElement) -> LieElement:
        return x * coeff


class InvariantTable:
    """Finitely supported map from effective classes to coefficient values.

    The effective ``monoid`` is the cone the table's classes index: every
    class of the support must lie in it, and the wall-crossing sums run over
    it.  Missing classes raise UnsupportedClass unless ``zero_missing`` is
    set, in which case they count as zero.  A value that is not a Laurent
    or a Lie element is read by ``ring.canonical_coefficient`` here, so a
    float or a string raises TypeError whether or not a sum reads it.
    """

    __slots__ = ("entries", "zero_missing", "monoid")

    def __init__(
        self, entries: Mapping, *, monoid: EffectiveMonoid, zero_missing: bool = False
    ):
        if not isinstance(monoid, EffectiveMonoid):
            raise TypeError("an invariant table needs its EffectiveMonoid")
        clean = {}
        for cls, value in entries.items():
            cls = as_class(cls)
            if not monoid.contains(cls):
                raise ValueError(f"class {cls} is not effective")
            element = isinstance(value, (LaurentElement, LieElement))
            clean[cls] = value if element else canonical_coefficient(value)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "zero_missing", bool(zero_missing))
        object.__setattr__(self, "monoid", monoid)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantTable is immutable")

    def support(self) -> list:
        return sorted(self.entries)

    def value(self, cls):
        cls = as_class(cls)
        if cls in self.entries:
            return self.entries[cls]
        if self.zero_missing:
            return None
        raise UnsupportedClass(f"no invariant for class {cls}")


def wcf_rhs(
    alpha,
    tau: StabilityData,
    tau_prime: StabilityData,
    table: InvariantTable,
    backend,
    *,
    max_parts: int = 8,
):
    """Σ over splittings of Ũ(α₁,…,α_n; τ, τ′) times the nested bracket of
    the table entries, assembled through the canonical Lie element so the
    result cannot depend on any coefficient convention.

    The Lie element comes from the slope-ordered peel, under the input
    contract of ``vw_wcf`` (``ucoeff.peel_classes``: weak see-saw, else
    SeeSawFailure; ``max_parts``, else DecompositionOverflow; both checked
    before any product); an α outside the cone gives the backend's zero."""
    alpha = as_class(alpha)
    element = utilde_lie_element(
        alpha, tau, tau_prime, table.monoid, max_parts=max_parts
    )
    if element.is_zero():
        return backend.zero()
    return evaluate_lie(
        element,
        lambda cls: backend.lift(cls, table.value(cls)),
        backend.bracket,
        backend.zero(),
        scale=backend.scale,
    )


def _laurent_entries(table: InvariantTable, classes) -> dict:
    """The table's entries at ``classes`` as Laurent elements, read at every
    class (UnsupportedClass unless ``zero_missing``); missing ones are left out."""
    entries = {}
    for cls in classes:
        value = table.value(cls)
        if value is not None:
            entries[cls] = as_element(value)
    return entries


def _framing(fr, dim: int) -> tuple:
    """The framing vector: ``dim`` entries read by ``integer_entry``."""
    if fr is None:
        raise MissingFr("no fr values supplied")
    fr = tuple(map(integer_entry, fr))
    if len(fr) != dim:
        raise ValueError(f"the framing vector needs {dim} entries, got {len(fr)}")
    return fr


def _dot(fr: tuple, cls: tuple) -> int:
    return sum(f * c for f, c in zip(fr, cls))


def _chi_matrix(chi, dim: int) -> tuple:
    """χ read by ``pairing_form``; ValueError unless it is ``dim`` by ``dim``."""
    chi = pairing_form(chi)
    if len(chi) != dim:
        raise ValueError(f"pairing matrix must be {dim}x{dim}, got {len(chi)} rows")
    return chi


def _pairing(chi: tuple, a: tuple, b: tuple) -> int:
    """χ(a, b) for the matrix ``chi``; ValueError for a class of another size."""
    if len(a) != len(chi) or len(b) != len(chi):
        raise ValueError("class dimension does not match the pairing matrix")
    return sum(x * entry * y for x, row in zip(a, chi) for entry, y in zip(row, b))


@lru_cache(maxsize=16)
def _framed_lattice(generators: tuple):
    """The framed monoid and the crossing's two stabilities, kept per
    generator tuple so that their memos serve every pair sum over it."""
    zero, ones = (0,) * len(generators[0]), (1,) * (len(generators[0]) + 1)
    return (
        EffectiveMonoid([g + (0,) for g in generators] + [zero + (1,)]),
        linear_stability(zero + (-1,), ones),
        linear_stability(zero + (1,), ones),
    )


def pair_invariant_rhs(
    alpha,
    fr,
    tau: StabilityData,
    table: InvariantTable,
    chi,
    *,
    qint=None,
    max_parts: int = 8,
) -> LaurentElement:
    """Framed pair sum: ``vw_wcf`` at (α, 1) on the framed lattice.

    The framed monoid adds ∞ = (0,…,0,1) to the generators padded with 0;
    its table holds 1 at ∞ and table(γ) at (γ, 0) for the classes γ ≤ α
    with τ(γ) = τ(α); its pairing is the bordered matrix χ̂ = [[χ, frᵀ],
    [−fr, 0]], so χ̂((a, i), (b, j)) = χ(a, b) + j·fr·a − i·fr·b; and
    the crossing, slope −i/mass to i/mass, moves ∞ from the lowest slope to
    the highest.  Expanded, it is Σ (1/n!)·Π_i [fr·α_i + χ(α_i, α_1+…+
    α_{i−1})]·table(α_i) over the equal-slope ordered splittings of α.

    ``fr`` is the framing vector, one integer per coordinate (None raises
    MissingFr, a wrong length ValueError); ``chi`` and ``qint`` are read as
    by ``vw_wcf``.  An α outside the cone gives zero; a splitting of α into
    more than ``max_parts`` parts raises DecompositionOverflow; the table is
    read at every equal-slope class ≤ α (UnsupportedClass unless
    ``zero_missing``)."""
    alpha = as_class(alpha)
    monoid = table.monoid
    fr = _framing(fr, monoid.dim)
    chi = _chi_matrix(chi, monoid.dim)
    if not monoid.contains(alpha):
        return LaurentElement.zero()
    monoid.longest_splitting(alpha, max_parts)
    slope = tau.slope_of(alpha)
    same = [cls for cls in monoid.below(alpha) if tau.slope_of(cls) == slope]
    framed, before, after = _framed_lattice(monoid.generators)
    entries = {cls + (0,): v for cls, v in _laurent_entries(table, same).items()}
    entries[framed.generators[-1]] = LaurentElement.const(1)
    bordered = [(*row, f) for row, f in zip(chi, fr)] + [(*(-f for f in fr), 0)]
    return vw_wcf(
        alpha + (1,), before, after,
        InvariantTable(entries, zero_missing=True, monoid=framed),
        bordered, qint=qint, max_parts=max_parts + 1,
    )


def invert_semistable(
    pair_table: InvariantTable,
    fr,
    tau: StabilityData,
    chi,
    *,
    qint=None,
    max_parts: int = 8,
) -> InvariantTable:
    """Recover the invariant table from its framed pair sums.

    Works class by class in increasing mass: every proper equal-slope
    summand of a class is lighter, so the pair sum of the entries recovered
    so far is the n ≥ 2 part, and the n = 1 term [fr·α]·table(α) divides
    out exactly.  ``fr``, ``chi`` and ``qint`` are read as by
    ``pair_invariant_rhs``.  Before any pair sum is formed, each class of
    the support, in that order, is refused for fr·α = 0
    (ZeroQuantumInteger) or a splitting into more than ``max_parts`` parts
    (DecompositionOverflow), and then ``chi`` is read."""
    monoid = pair_table.monoid
    fr = _framing(fr, monoid.dim)
    order = sorted(pair_table.support(), key=sum)
    for cls in order:
        if _dot(fr, cls) == 0:
            raise ZeroQuantumInteger(
                f"fr({cls}) = 0 gives a vanishing quantum integer"
            )
        monoid.longest_splitting(cls, max_parts)
    chi = _chi_matrix(chi, monoid.dim)
    values = _laurent_entries(pair_table, order)
    recovered: dict[tuple, LaurentElement] = {}
    for cls in order:
        partial = InvariantTable(recovered, zero_missing=True, monoid=monoid)
        higher = pair_invariant_rhs(
            cls, fr, tau, partial, chi, qint=qint, max_parts=max_parts
        )
        divisor = (qint or quantum_integer)(_dot(fr, cls))
        recovered[cls] = exact_laurent_div(values[cls] - higher, divisor, KAPPA)
    return InvariantTable(recovered, monoid=monoid)


@lru_cache(maxsize=None)
def _half_power(name: str, n: int) -> LaurentElement:
    """``name**(n/2)``, shared: elements are immutable."""
    return LaurentElement.monomial(1, {name: Fraction(n, 2)})


def vw_wcf(
    alpha,
    tau_one: StabilityData,
    tau_two: StabilityData,
    table: InvariantTable,
    chi,
    *,
    qint=None,
    max_parts: int = 8,
    o_table=None,
) -> LaurentElement:
    """Numerical wall-crossing sum ε′(α), read from the factorization identity

        Π_{s ↓} exp(Σ_{τ₁(γ)=s} ε(γ)·x^γ) = Π_{s ↓} exp(Σ_{τ₂(γ)=s} ε′(γ)·x^γ)

    in the quantum torus truncated to the classes ≤ α, each product taken
    over slopes in decreasing order; its expansion is the splitting sum
    Σ Ũ(α⃗; τ₁, τ₂)·Π_{i≥2}[χ(α₁+…+α_{i−1}, α_i)]·Π table(α_i).

    Input contract: both stabilities satisfy the weak see-saw property on
    every class ≤ α (else SeeSawFailure, before any product); the table has
    an entry for every class ≤ α unless it sets ``zero_missing`` (else
    UnsupportedClass); a splitting of α into more than ``max_parts`` parts
    raises DecompositionOverflow; ``qint`` is None (quantum integers in
    κ, ``ring.KAPPA``) or ``unrefined_integer``.  The classes range over
    the table's monoid; ``chi`` is an antisymmetric integer matrix of their
    size (``ucoeff.pairing_form``; else ValueError at every target).

    The reduced sum: ``o_table`` gives the cosection count of a class, as a
    class-keyed mapping (read once); a callable raises TypeError.  Only the
    splittings whose o counts add up to the count of α contribute.  The
    counts are read at α and at every class with a table entry; a missing
    one raises ValueError, and so does a negative one.
    """
    alpha = as_class(alpha)
    chi = _chi_matrix(chi, table.monoid.dim)
    if qint is not None and qint is not unrefined_integer:
        raise ValueError("vw_wcf takes qint=None (refined) or unrefined_integer")
    splits = peel_classes(alpha, tau_one, tau_two, table.monoid, max_parts)
    if not splits:
        return LaurentElement.zero()
    entries = _laurent_entries(table, splits)
    kappa = KAPPA if qint is None else fresh_name("kappa", entries.values())
    grade = None
    if o_table is not None:
        lookup = class_lookup(o_table)
        o_at_alpha = lookup(alpha)
        grade = fresh_name("o", entries.values())

    # With x^a·x^b = t^(-χ(a,b))·x^(a+b), t = −κ^(1/2), the commutator of
    # x^a and x^b is [χ(a,b)]·D·x^(a+b), D = κ^(1/2) − κ^(-1/2), so the
    # bracket algebra sits in the torus as ε(γ) ↦ ε(γ)·x^γ/D.  Rescaling x^γ
    # by D^mass(γ) clears every denominator, and storing the coefficient at
    # γ times mass(γ)! turns the structure constants into binomial integers,
    # so the 1/k! of the exponentials do not spread fractions.  The entry at
    # γ is ε(γ)·scale[mass(γ)], scale[m] = m!·D^(m-1).
    mass = sum(alpha)
    d = _half_power(kappa, 1) - _half_power(kappa, -1)
    scale = [None, LaurentElement.const(1)]
    for m in range(2, mass + 1):
        scale.append(scale[-1] * d * m)
    for cls, value in entries.items():
        value = value * scale[sum(cls)]
        if grade is not None:
            value = value * LaurentElement.monomial(1, {grade: lookup(cls)})
        entries[cls] = value

    # The peel runs on packed monomials, in an algebra that lives for this
    # call.  The weight of a splitting β + δ is ±C(m, mass(β))·κ^(−χ(β,δ)/2),
    # m = mass(β + δ), the sign (−1)^χ(β,δ) from t = −κ^(1/2).  A product at a
    # class ≤ α has at most mass(α) entries and mass(α) − 1 weights, so the
    # entries' exponents and the largest |χ| over the splittings bound every
    # exponent the peel can reach, and so the slot width.
    pairing = {p: _pairing(chi, *p) for pairs in splits.values() for p in pairs}
    algebra = packed_algebra(
        entries.values(),
        (kappa,) if grade is None else (kappa, grade),
        depth=mass,
        step=max(map(abs, pairing.values()), default=0),
    )
    packed = {cls: algebra.pack(value) for cls, value in entries.items()}

    @lru_cache(maxsize=None)
    def term(c: int, n: int, k: int):
        binom = math.comb(n, k)
        return algebra.term(-binom if c % 2 else binom, {kappa: Fraction(-c, 2)})

    def weight(beta, delta):
        k = sum(beta)
        return term(pairing[beta, delta], k + sum(delta), k)

    out = refactor(splits, tau_one, tau_two, packed.get, weight)[alpha]
    if grade is not None:
        out = algebra.coeff_of(out, grade, o_at_alpha)
    # The answer at α is divided by scale[mass(α)]: exactly by D^(mass − 1),
    # a running sum down each chain of κ powers, then by mass! as a scalar.
    out = algebra.div_d(out, kappa, mass - 1)
    out = algebra.unpack(scaled_terms(out, Fraction(1, math.factorial(mass))))
    if qint is not None:
        out = out.subs(kappa, 1)
    return out
