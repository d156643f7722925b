"""Wall-crossing sums over pluggable graded Lie backends.

Invariant tables map effective classes to coefficient-ring values; the
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
the peel that also gives ``wcf_rhs`` its Lie element.  Its input contract:
both stabilities satisfy the weak see-saw property on every class below the
target, and the table has an entry for each of those classes unless it
counts missing entries as zero.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping

from .errors import (
    DecompositionOverflow,
    MissingChi,
    MissingFr,
    UnsupportedClass,
    ZeroQuantumInteger,
)
from .freelie import LieContext, LieElement, evaluate_lie
from .kclasses import KAPPA, quantum_integer
from .ring import LaurentElement, exact_laurent_div, laurent_sum
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

    __slots__ = ("chi", "qint", "kappa")

    def __init__(self, chi, *, qint=None, kappa: str = KAPPA):
        if chi is None:
            raise MissingChi("the quantum torus needs a pairing form")
        chi = pairing_form(chi)
        if qint is None:
            qint = lambda n: quantum_integer(n, kappa=kappa)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "qint", qint)
        object.__setattr__(self, "kappa", kappa)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumTorusBackend is immutable")

    def zero(self) -> GradedValue:
        return GradedValue(None, LaurentElement.zero())

    def lift(self, cls, value) -> GradedValue:
        if value is None:
            return self.zero()
        if not isinstance(value, LaurentElement):
            value = LaurentElement.const(value)
        return GradedValue(cls, value)

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

    Missing classes raise UnsupportedClass unless ``zero_missing`` is set, in
    which case they count as zero.  The optional ``o`` map carries the
    cosection counts used by the reduced sums, and an optional monoid
    validates that the support lies in the effective cone.
    """

    __slots__ = ("entries", "o", "zero_missing", "monoid")

    def __init__(
        self,
        entries: Mapping,
        *,
        o: Mapping | None = None,
        zero_missing: bool = False,
        monoid: EffectiveMonoid | None = None,
    ):
        clean = {as_class(cls): value for cls, value in entries.items()}
        if monoid is not None:
            for cls in clean:
                if not monoid.contains(cls):
                    raise ValueError(f"class {cls} is not effective")
        counts = None
        if o is not None:
            counts = {}
            for cls, count in o.items():
                count = int(count)
                if count < 0:
                    raise ValueError("o counts must be nonnegative")
                counts[as_class(cls)] = count
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "o", counts)
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

    def o_of(self, cls) -> int:
        cls = as_class(cls)
        if self.o is None or cls not in self.o:
            raise ValueError(f"no o count for class {cls}")
        return self.o[cls]


def _require_monoid(table: InvariantTable, monoid) -> EffectiveMonoid:
    monoid = monoid if monoid is not None else table.monoid
    if monoid is None:
        raise ValueError("an effective monoid is required (table or keyword)")
    return monoid


def wcf_rhs(
    alpha,
    tau: StabilityData,
    tau_prime: StabilityData,
    table: InvariantTable,
    backend,
    *,
    monoid: EffectiveMonoid | None = None,
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
    monoid = _require_monoid(table, monoid)
    element = utilde_lie_element(alpha, tau, tau_prime, monoid, max_parts=max_parts)
    if element.is_zero():
        return backend.zero()
    return evaluate_lie(
        element,
        lambda cls: backend.lift(cls, table.value(cls)),
        backend.bracket,
        backend.zero(),
        scale=backend.scale,
    )


def _o_lookup(o_table):
    if isinstance(o_table, InvariantTable):
        return o_table.o_of
    return class_lookup(o_table, ValueError, "o count")


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
        if value is None:
            continue
        if not isinstance(value, LaurentElement):
            value = LaurentElement.const(value)
        entries[cls] = value
    return entries


def pair_invariant_rhs(
    alpha,
    fr,
    tau: StabilityData,
    table: InvariantTable,
    backend: QuantumTorusBackend,
    *,
    monoid: EffectiveMonoid | None = None,
    max_parts: int = 8,
) -> LaurentElement:
    """Framed pair sum: the class-(α, 1) coefficient of exp(ad E)(∂), with
    E = Σ table(γ)·z_γ over the classes γ ≤ α (``monoid.below(alpha)``) with
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
    monoid = _require_monoid(table, monoid)
    fr = _fr_lookup(fr)
    if not monoid.contains(alpha):
        return LaurentElement.zero()
    longest = monoid.longest_splitting(alpha)
    if longest > max_parts:
        raise DecompositionOverflow(f"{alpha} needs more than {max_parts} parts")
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
    monoid: EffectiveMonoid | None = None,
    max_parts: int = 8,
) -> InvariantTable:
    """Recover the invariant table from its framed pair sums.

    Works class by class in increasing mass: every proper equal-slope
    summand of a class is lighter, so the pair sum of the entries recovered
    so far is the n ≥ 2 part, and the n = 1 term [fr(α)]·table(α) divides
    out exactly."""
    monoid = _require_monoid(pair_table, monoid)
    fr_of = _fr_lookup(fr)
    recovered: dict[tuple, LaurentElement] = {}
    for cls in sorted(pair_table.support(), key=sum):
        fr_val = fr_of(cls)
        if fr_val == 0:
            raise ZeroQuantumInteger(
                f"fr({cls}) = 0 gives a vanishing quantum integer"
            )
        partial = InvariantTable(recovered, zero_missing=True, monoid=monoid)
        higher = pair_invariant_rhs(
            cls, fr_of, tau, partial, backend, monoid=monoid, max_parts=max_parts
        )
        value = pair_table.value(cls)
        if not isinstance(value, LaurentElement):
            value = LaurentElement.const(value)
        recovered[cls] = exact_laurent_div(
            value - higher, backend.qint(fr_val), backend.kappa
        )
    return InvariantTable(recovered, monoid=monoid)


def vw_wcf(
    alpha,
    tau_one: StabilityData,
    tau_two: StabilityData,
    table: InvariantTable,
    chi,
    *,
    qint=None,
    kappa: str = KAPPA,
    monoid: EffectiveMonoid | None = None,
    max_parts: int = 8,
    o_table=None,
    o_alpha: int | None = None,
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
    ``kappa``) or ``unrefined_integer``.  With ``o_table`` only the
    splittings whose o counts add up to ``o_alpha`` (default: the count of
    α) contribute.
    """
    alpha = as_class(alpha)
    monoid = _require_monoid(table, monoid)
    chi = QuantumTorusBackend(chi, kappa=kappa).chi
    if qint is not None and qint is not unrefined_integer:
        raise ValueError("vw_wcf takes qint=None (refined) or unrefined_integer")
    classes = peel_classes(alpha, tau_one, tau_two, monoid, max_parts)
    if not classes:
        return LaurentElement.zero()
    entries = _laurent_entries(table, classes)
    if qint is not None:
        kappa = _fresh_name("kappa", entries.values())
    grade = None
    if o_table is not None:
        lookup = _o_lookup(o_table)
        if o_alpha is None:
            o_alpha = lookup(alpha)
        grade = _fresh_name("o", entries.values())

    # With x^a·x^b = t^(-χ(a,b))·x^(a+b), t = −κ^(1/2), the commutator of
    # x^a and x^b is [χ(a,b)]·D·x^(a+b), D = κ^(1/2) − κ^(-1/2), so the
    # bracket algebra sits in the torus as ε(γ) ↦ ε(γ)·x^γ/D.  Rescaling x^γ
    # by D^mass(γ) clears every denominator, and storing the coefficient at
    # γ times mass(γ)! turns the structure constants into binomial integers,
    # so the 1/k! of the exponentials do not spread fractions.  The entry at
    # γ is ε(γ)·scale[mass(γ)], scale[m] = m!·D^(m-1), and the answer at α
    # is divided by scale[mass(α)] once.
    mass = sum(alpha)
    d = LaurentElement({((kappa, 1),): 1, ((kappa, -1),): -1})
    scale = [None, LaurentElement.const(1)]
    for m in range(2, mass + 1):
        scale.append(scale[-1] * d * m)
    for cls, value in entries.items():
        value = value * scale[sum(cls)]
        if grade is not None:
            value = value * LaurentElement.monomial(1, {grade: lookup(cls)})
        entries[cls] = value

    def weight(beta, delta):
        c = chi(beta, delta)
        sign = -1 if c % 2 else 1
        return LaurentElement(
            {((kappa, -c),): math.comb(sum(beta) + sum(delta), sum(beta)) * sign}
        )

    out = refactor(
        classes, tau_one, tau_two, entries.get, weight,
        mul=operator.mul, scale=operator.mul, total=laurent_sum,
    )[alpha]
    if grade is not None:
        out = out.coeff_of(grade, int(o_alpha))
    if mass > 1:
        out = exact_laurent_div(out, scale[mass], kappa)
    if qint is not None:
        out = out.subs_one(kappa)
    return out


def _fresh_name(base: str, values) -> str:
    """``base`` primed until it names no variable of the elements ``values``."""
    taken = {v for value in values for v in value.variables()}
    while base in taken:
        base += "'"
    return base
