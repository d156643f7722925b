"""Effective-class monoids, weak stability data, and the universal
coefficients S, U, and their bracket-canonical companion.

Classes are integer vectors, read by ``ring.integer_entry``; the effective
cone consists of the nonzero natural-number combinations of a declared
generator list, each generator carrying positive total mass so that every
enumeration below terminates.
The S and U coefficients are computed directly from their defining sums over
index conditions and permissible double groupings.

The U-side word sum Σ U(α⃗)·z_{α₁}⋯z_{α_n} is the τ′-factor at α of
Π_{τ-slopes ↓} exp(Σ z_γ) in the free associative algebra truncated to the
classes ≤ α.  ``utilde_lie_element`` reads it off with ``refactor``, the
slope-ordered peel, which enumerates no splitting and also serves
``wallcross.vw_wcf`` over the quantum torus; its input contract is checked
by ``peel_classes``.  ``utilde_word_sum`` keeps the splitting sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DecompositionOverflow,
    MissingChi,
    SeeSawFailure,
    SlopeUndefined,
)
from .freelie import LieContext, LieElement, UEAElement, dynkin_project
from .ring import (
    SlopeValue,
    canonical_coefficient,
    integer_entry,
    mul_terms,
    scaled_terms,
    sum_terms,
)

ClassVec = tuple


def as_class(cls) -> ClassVec:
    out = tuple(map(integer_entry, cls))
    if not out:
        raise ValueError("class vectors must have at least one coordinate")
    return out


def class_sum(classes: Iterable[ClassVec]) -> ClassVec:
    classes = [as_class(c) for c in classes]
    if not classes:
        raise ValueError("empty class sum")
    dim = len(classes[0])
    if any(len(c) != dim for c in classes):
        raise ValueError("class vectors of mixed dimension")
    return tuple(sum(col) for col in zip(*classes))


def _mass(cls: ClassVec) -> int:
    return sum(cls)


class EffectiveMonoid:
    """The cone of nonzero natural-number combinations of the generators."""

    __slots__ = ("generators", "dim", "_floored", "_member_cache", "_below_cache")

    def __init__(self, generators: Iterable[ClassVec]):
        gens = tuple(as_class(g) for g in generators)
        if not gens:
            raise ValueError("at least one generator is required")
        dim = len(gens[0])
        for g in gens:
            if len(g) != dim:
                raise ValueError("generators of mixed dimension")
            if _mass(g) <= 0:
                raise ValueError(
                    f"generator {g} must have positive total mass"
                )
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "dim", dim)
        # No combination of generators is negative where no generator is.
        floored = tuple(i for i in range(dim) if all(g[i] >= 0 for g in gens))
        object.__setattr__(self, "_floored", floored)
        object.__setattr__(self, "_member_cache", {(0,) * dim: True})
        object.__setattr__(self, "_below_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("EffectiveMonoid is immutable")

    def contains(self, cls) -> bool:
        """Whether ``cls`` is a nonzero natural combination of generators."""
        cls = as_class(cls)
        if len(cls) != self.dim:
            raise ValueError("class dimension does not match the monoid")
        if not any(cls):
            return False
        return self._reachable(cls)

    def _reachable(self, cls: ClassVec) -> bool:
        """Whether ``cls`` is zero or a combination of generators, by a walk
        down one generator at a time on an explicit stack, memoized per
        class.  A class of mass <= 0, or negative where no generator is,
        is refused without a walk."""
        memo = self._member_cache
        hit = memo.get(cls)
        if hit is not None:
            return hit
        stack = [cls]
        while stack:
            top = stack[-1]
            out = False
            if _mass(top) > 0 and all(top[i] >= 0 for i in self._floored):
                for g in self.generators:
                    rest = tuple(c - gc for c, gc in zip(top, g))
                    out = memo.get(rest)
                    if out is None:  # walk ``rest`` first, then come back
                        stack.append(rest)
                        break
                    if out:
                        break
            if out is not None:
                memo[top] = out
                stack.pop()
        return memo[cls]

    def effective_upto(self, mass_cap: int) -> list[ClassVec]:
        """All effective classes of total mass at most ``mass_cap``."""
        found: set[ClassVec] = set()
        frontier = [g for g in self.generators if _mass(g) <= mass_cap]
        while frontier:
            fresh = []
            for cls in frontier:
                if cls in found:
                    continue
                found.add(cls)
                for g in self.generators:
                    bigger = tuple(c + gc for c, gc in zip(cls, g))
                    if _mass(bigger) <= mass_cap and bigger not in found:
                        fresh.append(bigger)
            frontier = fresh
        return sorted(found)

    def below(self, target) -> tuple[ClassVec, ...]:
        """The effective classes β with ``target`` − β effective or zero,
        ordered by mass, then by class; empty when ``target`` is not
        effective.

        Each such β other than a generator is β′ + g for a generator g and
        some β′ of the same kind, so a walk up from the generators finds
        them all.  The result is memoized per target.
        """
        return self._below(as_class(target))

    def _below(self, target: ClassVec) -> tuple[ClassVec, ...]:
        """``below`` of a class already read by ``as_class``."""
        hit = self._below_cache.get(target)
        if hit is not None:
            return hit
        found: set[ClassVec] = set()
        frontier = [(0,) * self.dim] if self.contains(target) else []
        while frontier:
            fresh = []
            for cls in frontier:
                for g in self.generators:
                    bigger = tuple(c + gc for c, gc in zip(cls, g))
                    if bigger in found:
                        continue
                    if self._reachable(tuple(t - b for t, b in zip(target, bigger))):
                        found.add(bigger)
                        fresh.append(bigger)
            frontier = fresh
        out = self._below_cache[target] = tuple(
            sorted(found, key=lambda cls: (_mass(cls), cls))
        )
        return out

    def longest_splitting(self, target, max_parts: int) -> int:
        """The most parts of any ordered splitting of ``target`` into
        effective classes (0 when ``target`` is not effective), checked
        before any sum over splittings is formed: more than ``max_parts``
        raises DecompositionOverflow.

        A longest splitting is one into generators, so this is a longest
        path over ``below(target)``, found without enumerating splittings.
        """
        return self._longest_splitting(as_class(target), max_parts)

    def _longest_splitting(self, target: ClassVec, max_parts: int) -> int:
        """``longest_splitting`` of a class already read by ``as_class``."""
        longest = {(0,) * self.dim: 0}
        for cls in self._below(target):
            longest[cls] = 1 + max(
                longest.get(tuple(c - gc for c, gc in zip(cls, g)), -1)
                for g in self.generators
            )
        found = longest.get(target, 0)
        if found > max_parts:
            raise DecompositionOverflow(f"{target} needs more than {max_parts} parts")
        return found

    def decompositions(self, target, max_parts: int = 8) -> list[tuple[ClassVec, ...]]:
        """Ordered splittings of ``target`` into effective classes.

        Each next part is a class of ``below`` the remainder, in sorted
        order, so every remainder is effective or zero.  Raises
        DecompositionOverflow if some splitting would need more than
        ``max_parts`` parts; splittings are never silently truncated.
        """
        target = as_class(target)
        if len(target) != self.dim:
            raise ValueError("class dimension does not match the monoid")
        out: list[tuple[ClassVec, ...]] = []

        def rec(rem: ClassVec, prefix: tuple) -> None:
            if not any(rem):
                out.append(prefix)
                return
            if len(prefix) >= max_parts:
                raise DecompositionOverflow(
                    f"{target} needs more than {max_parts} parts"
                )
            for part in sorted(self.below(rem)):
                rec(tuple(c - pc for c, pc in zip(rem, part)), prefix + (part,))

        if self.contains(target):
            rec(target, ())
        return out


def _to_slope(value) -> SlopeValue:
    if isinstance(value, SlopeValue):
        return value
    if isinstance(value, (tuple, list)):
        return SlopeValue.of(*value)
    return SlopeValue.of(value)


class StabilityData:
    """Weak stability data: a slope assignment on classes.

    ``slope`` is either a mapping from class vectors to slope values or a
    callable computing them; lookups that fail raise SlopeUndefined, on every
    call.  A successful lookup is memoized per class on this object, so the
    source is read at most once per class and must be a pure function of the
    class: a mapping must not change after construction.  The weak see-saw
    verdict of a class is kept in the same way, per monoid.  The pairing χ
    and the framing vector fr are not stability data: the sums that need
    them take them as arguments.
    """

    __slots__ = ("_slope", "_slopes", "_see_saw", "name")

    def __init__(self, slope, *, name="tau"):
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_slopes", {})
        object.__setattr__(self, "_see_saw", {})
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("StabilityData is immutable")

    def slope_of(self, cls) -> SlopeValue:
        return self._slope_at(as_class(cls))

    def _slope_at(self, cls: ClassVec) -> SlopeValue:
        """``slope_of`` a class already read by ``as_class``."""
        hit = self._slopes.get(cls)
        if hit is not None:
            return hit
        source = self._slope
        if callable(source):
            value = source(cls)
        else:
            try:
                value = source[cls]
            except KeyError:
                raise SlopeUndefined(f"no slope for class {cls}") from None
        if value is None:
            raise SlopeUndefined(f"no slope for class {cls}")
        out = self._slopes[cls] = _to_slope(value)
        return out

    def see_saw_holds(self, monoid: EffectiveMonoid, target) -> bool:
        """Check the weak see-saw property over the two-part splittings
        β + (target − β): the slope of ``target`` lies between theirs.  The
        verdict is kept per monoid generators and class (``below`` depends
        on both); a SlopeUndefined raised on the way is not kept."""
        return self._see_saw_at(monoid, as_class(target))

    def _see_saw_at(self, monoid: EffectiveMonoid, target: ClassVec) -> bool:
        """``see_saw_holds`` at a class already read by ``as_class``."""
        key = (monoid.generators, target)
        hit = self._see_saw.get(key)
        if hit is not None:
            return hit
        mid = self._slope_at(target)
        holds = True
        for beta in monoid._below(target):
            rest = tuple(t - b for t, b in zip(target, beta))
            # The condition is symmetric in the two parts: test each pair once.
            if beta == target or rest < beta:
                continue
            left = self._slope_at(beta)
            right = self._slope_at(rest)
            if not (left >= mid >= right or left <= mid <= right):
                holds = False
                break
        self._see_saw[key] = holds
        return holds


def pairing_form(chi) -> tuple:
    """The pairing χ, χ(a, b) = Σ a_i·χ_ij·b_j, as an antisymmetric integer
    matrix: a tuple of rows, each entry read by ``integer_entry``.

    None raises MissingChi and a callable TypeError; a ragged or non-square
    matrix raises ValueError, and so does one that is not antisymmetric,
    naming the first entry that breaks it.
    """
    if chi is None:
        raise MissingChi("the quantum torus needs a pairing form")
    if callable(chi):
        raise TypeError("the pairing χ must be an integer matrix, not a callable")
    rows = tuple(tuple(map(integer_entry, row)) for row in chi)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("pairing matrix must be square")
    for i, j in itertools.combinations_with_replacement(range(len(rows)), 2):
        if rows[i][j] != -rows[j][i]:
            raise ValueError(f"chi must be antisymmetric: chi[{i}][{j}] != -chi[{j}][{i}]")
    return rows


def class_lookup(source):
    """The cosection count ``cls -> int`` of the reduced sum, read from a
    class-keyed mapping (copied once) or a callable, each value read by
    ``integer_entry``; a class a mapping lacks and a negative count raise
    ValueError when they are read.
    """
    mapping = None
    if not callable(source):
        mapping = {as_class(cls): integer_entry(v) for cls, v in source.items()}

    def lookup(cls) -> int:
        cls = as_class(cls)
        if mapping is None:
            count = integer_entry(source(cls))
        elif cls in mapping:
            count = mapping[cls]
        else:
            raise ValueError(f"no o count for class {cls}")
        if count < 0:
            raise ValueError("o counts must be nonnegative")
        return count

    return lookup


def linear_stability(a: Sequence[int], b: Sequence[int]) -> StabilityData:
    """Slope (a·γ)/(b·γ), with the usual ±infinity convention when b·γ = 0."""
    # Integral entries stay ints, so the sums below are int arithmetic.
    a = tuple(canonical_coefficient(Fraction(x)) for x in a)
    b = tuple(canonical_coefficient(Fraction(x)) for x in b)
    if len(a) != len(b):
        raise ValueError("linear_stability needs a and b of the same length")

    def slope(cls: ClassVec) -> SlopeValue:
        if len(cls) != len(a):
            raise ValueError("class dimension does not match the slope data")
        num = sum(x * c for x, c in zip(a, cls))
        den = sum(x * c for x, c in zip(b, cls))
        if den == 0:
            if num > 0:
                return SlopeValue.of("inf")
            if num < 0:
                return SlopeValue.of("-inf")
            raise SlopeUndefined(f"0/0 slope for class {cls}")
        return SlopeValue.of(Fraction(num, den))

    return StabilityData(slope)


# -- universal coefficients ---------------------------------------------------------


def compositions(n: int):
    """Ordered tuples of positive integers summing to n."""
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def _interval_slopes(stability: StabilityData, classes: list[ClassVec]):
    """Lazy ``(i, j) -> slope of classes[i] + … + classes[j-1]``.

    Sums come from running partial sums and each slope is looked up at most
    once, so a coefficient sum touches every interval once however many
    groupings share it.
    """
    dim = len(classes[0])
    if any(len(c) != dim for c in classes):
        raise ValueError("class vectors of mixed dimension")
    prefix = [(0,) * dim]
    for cls in classes:
        prefix.append(tuple(a + b for a, b in zip(prefix[-1], cls)))
    cache: dict[tuple[int, int], SlopeValue] = {}

    def slope(i: int, j: int) -> SlopeValue:
        hit = cache.get((i, j))
        if hit is None:
            span = tuple(b - a for a, b in zip(prefix[i], prefix[j]))
            hit = cache[i, j] = stability.slope_of(span)
        return hit

    return slope


def _sign(cuts: Sequence[int], first, second) -> int:
    """S of the parts ``classes[cuts[k]:cuts[k+1]]``, with ``first`` and
    ``second`` the interval slopes of the two stabilities."""
    lo, hi = cuts[0], cuts[-1]
    r = 0
    for i in range(1, len(cuts) - 1):
        first_here = first(cuts[i - 1], cuts[i])
        first_next = first(cuts[i], cuts[i + 1])
        second_left = second(lo, cuts[i])
        second_right = second(cuts[i], hi)
        if first_here <= first_next and second_left > second_right:
            r += 1
        elif first_here > first_next and second_left <= second_right:
            pass
        else:
            return 0
    return 1 if r % 2 == 0 else -1


def S_coeff(classes: Sequence, tau: StabilityData, tau_prime: StabilityData) -> Fraction:
    """The sign coefficient of an ordered tuple of effective classes.

    Each adjacent index must either (a) not descend for the first stability
    while the partial sums descend strictly for the second, or (b) descend
    strictly for the first while the partial sums do not descend for the
    second; the value is (-1)^{#(a)}, and 0 if some index fails both.
    """
    classes = [as_class(c) for c in classes]
    n = len(classes)
    if n == 0:
        raise ValueError("need at least one class")
    first = _interval_slopes(tau, classes)
    second = _interval_slopes(tau_prime, classes)
    return Fraction(_sign(range(n + 1), first, second))


def U_coeff(classes: Sequence, tau: StabilityData, tau_prime: StabilityData) -> Fraction:
    """Sum over permissible double groupings of the weighted S products."""
    classes = [as_class(c) for c in classes]
    n = len(classes)
    if n == 0:
        raise ValueError("need at least one class")
    first_slope = _interval_slopes(tau, classes)
    second_slope = _interval_slopes(tau_prime, classes)
    total_slope = second_slope(0, n)
    acc = Fraction(0)
    for first in compositions(n):
        # bounds[b]:bounds[b+1] is the b-th outer block, summing to beta_b
        bounds = [0]
        for size in first:
            bounds.append(bounds[-1] + size)
        if not all(
            first_slope(bounds[b], bounds[b + 1]) == first_slope(i, i + 1)
            for b in range(len(first))
            for i in range(bounds[b], bounds[b + 1])
        ):
            continue
        first_weight = Fraction(1)
        for size in first:
            first_weight /= math.factorial(size)
        m = len(first)
        for second in compositions(m):
            inner = [0]
            for size in second:
                inner.append(inner[-1] + size)
            if any(
                second_slope(bounds[inner[j]], bounds[inner[j + 1]]) != total_slope
                for j in range(len(second))
            ):
                continue
            l = len(second)
            term = Fraction(-1 if l % 2 == 0 else 1, l) * first_weight
            for j in range(l):
                term *= _sign(bounds[inner[j] : inner[j + 1] + 1], first_slope, second_slope)
                if not term:
                    break
            acc += term
    return acc


def utilde_word_sum(
    alpha,
    tau: StabilityData,
    tau_prime: StabilityData,
    monoid: EffectiveMonoid,
    *,
    max_parts: int = 8,
    context: LieContext | None = None,
) -> UEAElement:
    """The word-side sum Σ U(α₁,…,α_n)·ε(α₁)⋯ε(α_n) over all splittings."""
    alpha = as_class(alpha)
    coeffs: dict[tuple, Fraction] = {}
    for parts in monoid.decompositions(alpha, max_parts=max_parts):
        value = U_coeff(parts, tau, tau_prime)
        if value:
            coeffs[parts] = value
    if context is None:
        letters = sorted({cls for parts in coeffs for cls in parts})
        context = LieContext(letters)
    return UEAElement(context, coeffs)


def utilde_lie_element(
    alpha,
    tau: StabilityData,
    tau_prime: StabilityData,
    monoid: EffectiveMonoid,
    *,
    max_parts: int = 8,
    context: LieContext | None = None,
) -> LieElement:
    """The unique Lie element whose expansion is the U-side word sum
    Σ U(α₁,…,α_n; τ, τ′)·z_{α₁}⋯z_{α_n} over the splittings of α.

    The word sum is X′_α from ``refactor`` in the free associative algebra
    on the letters z_γ, γ ≤ α, with X_γ = z_γ: coefficients are stored
    times mass(γ)!, so concatenation carries the weight C(mass(β+δ),
    mass(β)), and X′_α is divided by mass(α)! once.  It is then rewritten
    into the Lyndon basis by ``dynkin_project``, all word lengths at once.  The
    input contract is that of ``peel_classes``; a target that is not
    effective gives zero.  With ``context`` None the letters are the sorted
    classes of the nonzero words.
    """
    alpha = as_class(alpha)
    words: dict = {}
    splits = peel_classes(alpha, tau, tau_prime, monoid, max_parts)
    if splits:
        entry = lambda cls: {(cls,): math.factorial(_mass(cls))}
        weight = lambda beta, delta: {(): math.comb(_mass(beta) + _mass(delta), _mass(beta))}
        after = refactor(splits, tau, tau_prime, entry, weight)[alpha]
        words = scaled_terms(after, Fraction(1, math.factorial(_mass(alpha))))
    if context is None:
        context = LieContext(sorted({cls for word in words for cls in word}))
    return dynkin_project(UEAElement(context, words))


# -- the slope-ordered peel ---------------------------------------------------------


def peel_classes(
    alpha, tau: StabilityData, tau_prime: StabilityData, monoid: EffectiveMonoid, max_parts: int
) -> dict[ClassVec, list[tuple[ClassVec, ClassVec]]]:
    """The classes ≤ α (``monoid.below(alpha)``, in that order) that
    ``refactor`` runs over, once its input contract is checked, each mapped
    to its two-part splittings (β, δ) into such classes, β in that order.

    Empty when α is not effective.  A splitting of α into more than
    ``max_parts`` parts raises DecompositionOverflow, and either stability
    breaking the weak see-saw property on a class ≤ α raises
    SeeSawFailure.
    """
    alpha = as_class(alpha)
    classes = monoid._below(alpha)
    if not classes:
        return {}
    monoid._longest_splitting(alpha, max_parts)
    for cls in classes:
        for stability in (tau, tau_prime):
            if not stability._see_saw_at(monoid, cls):
                raise SeeSawFailure(
                    f"{stability.name} breaks the weak see-saw property at class {cls}"
                )
    # β ≠ cls in below(cls) is exactly a β with β and cls − β both ≤ α, in
    # the order of ``classes``; every below(cls) is memoized by the check.
    return {
        cls: [
            (beta, tuple(map(operator.sub, cls, beta)))
            for beta in monoid._below(cls)
            if beta != cls
        ]
        for cls in classes
    }


def refactor(splits, tau: StabilityData, tau_prime: StabilityData, entry, weight) -> dict:
    """The τ′-factors of a slope-ordered product: the X′ with

        Π_{s ↓} exp(Σ_{τ(γ)=s} X_γ) = Π_{s ↓} exp(Σ_{τ′(γ)=s} X′_γ),

    each product over slopes in decreasing order, in an algebra graded by
    the classes and truncated to the classes of ``splits``, the mapping
    from ``peel_classes``.

    Each class carries one coefficient, ``entry(γ)`` being X_γ (None for
    zero).  Coefficients and weights are term dicts whose keys multiply by
    ``+`` (packed monomials or words), falsy when zero.  The coefficients
    at β and δ multiply to the coefficient at β + δ as
    ``mul_terms(x_β, mul_terms(x_δ, weight(β, δ)))``, x_β's keys first, and
    ``scaled_terms`` applies the 1/k! of the exponentials and the sign of a
    difference.  The result maps each class to X′_γ, with coefficients as
    the products made them, for the reader to make canonical.

    The product is peeled one class at a time in increasing mass (the
    mass-graded peel); the weak see-saw property keeps each exp(X_s) on the
    classes of slope s.
    """
    weighted = {
        cls: [(beta, delta, weight(beta, delta)) for beta, delta in pairs]
        for cls, pairs in splits.items()
    }
    before = _factor(tau._slope_at, weighted, lambda cls, rest: entry(cls))
    differ = lambda cls, rest: sum_terms((before[cls][1], scaled_terms(rest, -1)))
    after = _factor(tau_prime._slope_at, weighted, differ)
    return {cls: x for cls, (x, _) in after.items()}


def _factor(slope_of, splits, linear) -> dict:
    """Factor a truncated product as Π_{s ↓} exp(X_s), X_s supported on the
    classes of slope s.  The product's coefficient at a class is its X
    coefficient plus ``rest``, the products of coefficients at lighter
    classes; ``linear(cls, rest)`` returns the X coefficient (falsy for
    zero).  Maps each class to its X and its product coefficient."""
    slope = {cls: slope_of(cls) for cls in splits}
    slopes = sorted(set(slope.values()), reverse=True)
    rank = {s: j for j, s in enumerate(slopes)}
    group = {cls: rank[s] for cls, s in slope.items()}
    powers = {}  # cls -> {k: coefficient of X_s^k}, s the slope of cls
    expo = {}  # cls -> coefficient of exp(X_s), or None
    partial = {}  # cls -> [coefficient of exp(X_0)⋯exp(X_j), or None, for each j]
    out = {}
    for cls in splits:
        home = group[cls]
        cross_terms: dict[int, list] = {}  # j -> products ending in exp(X_j)
        power_terms: dict[int, list] = {}  # k -> products of k X coefficients
        for beta, delta, weight in splits[cls]:
            j = group[delta]
            right = expo[delta]
            if j and right is not None:
                left = partial[beta][j - 1]
                if left is not None:
                    cross_terms.setdefault(j, []).append(mul_terms(left, mul_terms(right, weight)))
            if j == home and group[beta] == home:
                x = powers[delta].get(1)
                if x is not None:
                    x = mul_terms(x, weight)
                    for k, value in powers[beta].items():
                        power_terms.setdefault(k + 1, []).append(mul_terms(value, x))
        power = {k: sum_terms(terms) for k, terms in power_terms.items()}
        here = sum_terms(
            scaled_terms(value, Fraction(1, math.factorial(k))) for k, value in power.items()
        )
        cross = {j: sum_terms(terms) for j, terms in cross_terms.items()}
        x = linear(cls, sum_terms((here, *cross.values())))
        if x:
            power[1] = x
            here = sum_terms((here, x))
        powers[cls] = {k: value for k, value in power.items() if value}
        expo[cls] = here if here else None
        if here:
            cross[home] = sum_terms((cross[home], here)) if home in cross else here
        running = None
        cumulative = []
        for j in range(len(slopes)):
            step = cross.get(j)
            if step:
                running = step if running is None else sum_terms((running, step))
            cumulative.append(running)
        partial[cls] = cumulative
        out[cls] = (x or {}, running or {})
    return out


# -- composition sums ---------------------------------------------------------------


def c_n(n: int) -> Fraction:
    """Σ over compositions of n of (-1)^{#blocks}·Π 1/(block size)!."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = Fraction(0)
    for comp in compositions(n):
        term = Fraction(-1 if len(comp) % 2 == 1 else 1)
        for size in comp:
            term /= math.factorial(size)
        acc += term
    return acc


def set_partitions(items: Sequence):
    """All partitions of ``items`` into nonempty unordered blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def mu_n(n: int) -> Fraction:
    """Σ over set partitions of {1..n} of Π (-1)^{|B|-1}(|B|-1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = Fraction(0)
    for part in set_partitions(range(n)):
        term = Fraction(1)
        for block in part:
            size = len(block)
            term *= Fraction(
                math.factorial(size - 1) * (1 if size % 2 == 1 else -1)
            )
        acc += term
    return acc
