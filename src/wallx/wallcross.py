"""Wall-crossing sums over pluggable graded Lie backends.

Invariant tables map the effective classes of one monoid to
coefficient-ring values, and every sum runs over the cone of its table; the
bracket side is either the formal free Lie algebra on class symbols or the
quantum torus, whose bracket multiplies values and picks up the quantum
integer of the pairing of the classes.  The main entry points assemble the
universal-coefficient Lie element and push it through a backend, evaluate
the framed pair sum with its distinguished degree-zero slot, and invert
that sum class by class in increasing mass.

The framed pair sum at α is the class-(α, 1) coefficient of exp(ad E)(∂),
E the table's entries on the classes below α of α's slope, taken by the
graded recurrence y_k = [E, y_{k−1}]/k over those classes; it reads the
table at every class of E.

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

from .errors import (
    MissingChi,
    MissingFr,
    UnsupportedClass,
    ZeroQuantumInteger,
)
from .freelie import LieContext, LieElement, evaluate_lie
from .kclasses import quantum_integer
from .ring import (
    KAPPA,
    LaurentElement,
    as_element,
    exact_laurent_div,
    fresh_name,
    laurent_sum,
    packed_algebra,
)
from .ucoeff import (
    EffectiveMonoid,
    StabilityData,
    U_coeff,
    as_class,
    class_lookup,
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

    ``chi`` is an antisymmetric integer pairing (callable or matrix); the
    quantum-integer map is pluggable so the same sums can be run unrefined.
    """

    __slots__ = ("chi", "qint")

    def __init__(self, chi, *, qint=None):
        if chi is None:
            raise MissingChi("the quantum torus needs a pairing form")
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
        weight = self.qint(self.chi(x.cls, y.cls))
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
    set, in which case they count as zero.
    """

    __slots__ = ("entries", "zero_missing", "monoid")

    def __init__(
        self, entries: Mapping, *, monoid: EffectiveMonoid, zero_missing: bool = False
    ):
        if not isinstance(monoid, EffectiveMonoid):
            raise TypeError("an invariant table needs its EffectiveMonoid")
        clean = {as_class(cls): value for cls, value in entries.items()}
        for cls in clean:
            if not monoid.contains(cls):
                raise ValueError(f"class {cls} is not effective")
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


def _fr_lookup(fr):
    if fr is None:
        raise MissingFr("no fr values supplied")
    return class_lookup(fr, MissingFr, "fr value")


def _laurent_entries(table: InvariantTable, classes) -> dict:
    """The table's entries at ``classes`` as Laurent elements, read at every
    class (UnsupportedClass unless ``zero_missing``); missing ones are left out."""
    entries = {}
    for cls in classes:
        value = table.value(cls)
        if value is not None:
            entries[cls] = as_element(value)
    return entries


def pair_invariant_rhs(
    alpha,
    fr,
    tau: StabilityData,
    table: InvariantTable,
    backend: QuantumTorusBackend,
    *,
    max_parts: int = 8,
) -> LaurentElement:
    """Framed pair sum: the class-(α, 1) coefficient of exp(ad E)(∂), with
    E = Σ table(γ)·z_γ over the classes γ ≤ α in the table's monoid with
    τ(γ) = τ(α), and ∂ the distinguished degree-zero slot.

    Expanded, it is the sum over equal-slope ordered splittings, weighted
    1/n!, of the nested brackets [z_{α_n},[…,[z_{α_1},∂]…]].  The bracket of
    z_γ with the slot at class β is [χ(γ,β) + fr(γ)]·table(γ), so the n = 1
    term is [fr(α)]·table(α).  It is computed as Σ_k y_k at α by the graded
    recurrence y_0 = ∂, y_k = [E, y_{k−1}]/k over the classes ≤ α.

    ``fr`` gives the framing count of a class: a class-keyed mapping (read
    once) or a callable; it is the only source of fr, and None raises
    MissingFr.  ``tau`` supplies the slopes alone.

    Input contract: an α outside the cone gives zero; a splitting of α into
    more than ``max_parts`` parts raises DecompositionOverflow; the table is
    read at every class of E (UnsupportedClass unless ``zero_missing``), and
    fr at every class of E with an entry (MissingFr)."""
    alpha = as_class(alpha)
    monoid = table.monoid
    fr = _fr_lookup(fr)
    if not monoid.contains(alpha):
        return LaurentElement.zero()
    longest = monoid.longest_splitting(alpha, max_parts)
    classes = monoid.below(alpha)
    slope = tau.slope_of(alpha)
    same = [cls for cls in classes if tau.slope_of(cls) == slope]
    entries = [
        (cls, fr(cls), value) for cls, value in _laurent_entries(table, same).items()
    ]
    members = set(classes)
    # The layers hold k!·y_k, so no 1/k enters a product.
    layer = {(0,) * len(alpha): LaurentElement.const(1)}
    found = []
    for k in range(1, longest + 1):
        terms: dict[tuple, list] = {}
        for beta, y in layer.items():
            for gamma, fr_gamma, value in entries:
                cls = tuple(b + g for b, g in zip(beta, gamma))
                if cls in members:
                    weight = backend.qint(backend.chi(gamma, beta) + fr_gamma)
                    terms.setdefault(cls, []).append(weight * value * y)
        layer = {cls: laurent_sum(items) for cls, items in terms.items()}
        if alpha in layer:
            found.append(Fraction(1, math.factorial(k)) * layer[alpha])
    return laurent_sum(found)


def invert_semistable(
    pair_table: InvariantTable,
    fr,
    tau: StabilityData,
    backend: QuantumTorusBackend,
    *,
    max_parts: int = 8,
) -> InvariantTable:
    """Recover the invariant table from its framed pair sums.

    Works class by class in increasing mass: every proper equal-slope
    summand of a class is lighter, so the pair sum of the entries recovered
    so far is the n ≥ 2 part, and the n = 1 term [fr(α)]·table(α) divides
    out exactly.  Before any pair sum is formed, each class of the support,
    in that order, is refused for a missing fr value (MissingFr), fr = 0
    (ZeroQuantumInteger) or a splitting into more than ``max_parts`` parts
    (DecompositionOverflow)."""
    monoid = pair_table.monoid
    fr_of = _fr_lookup(fr)
    order = sorted(pair_table.support(), key=sum)
    fr_values = {}
    for cls in order:
        fr_val = fr_values[cls] = fr_of(cls)
        if fr_val == 0:
            raise ZeroQuantumInteger(
                f"fr({cls}) = 0 gives a vanishing quantum integer"
            )
        monoid.longest_splitting(cls, max_parts)
    values = _laurent_entries(pair_table, order)
    recovered: dict[tuple, LaurentElement] = {}
    for cls in order:
        partial = InvariantTable(recovered, zero_missing=True, monoid=monoid)
        higher = pair_invariant_rhs(
            cls, fr_of, tau, partial, backend, max_parts=max_parts
        )
        divisor = backend.qint(fr_values[cls])
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
    the table's monoid.

    The reduced sum: ``o_table`` gives the cosection count of a class, as a
    class-keyed mapping (read once) or a callable.  Only the splittings
    whose o counts add up to the count of α contribute.  The counts are
    read at α and at every class with a table entry; a missing one raises
    ValueError, and so does a negative one.
    """
    alpha = as_class(alpha)
    chi = QuantumTorusBackend(chi).chi
    if qint is not None and qint is not unrefined_integer:
        raise ValueError("vw_wcf takes qint=None (refined) or unrefined_integer")
    splits = peel_classes(alpha, tau_one, tau_two, table.monoid, max_parts)
    if not splits:
        return LaurentElement.zero()
    entries = _laurent_entries(table, splits)
    kappa = KAPPA if qint is None else fresh_name("kappa", entries.values())
    grade = None
    if o_table is not None:
        read = class_lookup(o_table, ValueError, "o count")

        def lookup(cls) -> int:
            count = read(cls)
            if count < 0:
                raise ValueError("o counts must be nonnegative")
            return count

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
    pairing = {pair: chi(*pair) for pairs in splits.values() for pair in pairs}
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

    out = refactor(
        splits, tau_one, tau_two, packed.get, weight,
        mul=algebra.mul, scale=algebra.scale, total=algebra.total,
    )[alpha]
    if grade is not None:
        out = algebra.coeff_of(out, grade, o_at_alpha)
    # The answer at α is divided by scale[mass(α)]: exactly by D^(mass − 1),
    # a running sum down each chain of κ powers, then by mass! as a scalar.
    out = algebra.div_d(out, kappa, mass - 1)
    out = algebra.unpack(algebra.scale(out, Fraction(1, math.factorial(mass))))
    if qint is not None:
        out = out.subs_one(kappa)
    return out
