import collections
import math
import random
from fractions import Fraction

import pytest

from wallx.errors import (
    DecompositionOverflow,
    MissingFr,
    NotPrimitive,
    SlopeUndefined,
)
from wallx.freelie import (
    LieContext,
    LieElement,
    UEAElement,
    dynkin_project,
    expand_to_uea,
    left_nested,
)
from wallx.ring import LaurentElement, SlopeValue
from wallx.ucoeff import (
    EffectiveMonoid,
    S_coeff,
    StabilityData,
    U_coeff,
    Utilde,
    c_n,
    class_lookup,
    class_sum,
    compositions,
    linear_stability,
    mu_n,
    pairing_form,
    set_partitions,
    utilde_lie_element,
    utilde_word_sum,
)
from wallx.wallcross import InvariantTable, QuantumTorusBackend, vw_wcf

F = Fraction


def double_groupings(n: int):
    """All double groupings of n letters as (outer block sizes over letters,
    inner block sizes over outer blocks)."""
    for first in compositions(n):
        for second in compositions(len(first)):
            yield first, second


def simple_type_stability(t):
    """Rank-positive classes have slope 0; rank-zero classes have slope t."""
    return StabilityData(
        lambda cls: SlopeValue.of(0 if cls[0] >= 1 else t), name=f"t{t}"
    )


TAU_MINUS = simple_type_stability(-1)
TAU_ZERO = simple_type_stability(0)
TAU_PLUS = simple_type_stability(1)


def random_linear(rng, dim):
    a = [rng.randint(-4, 4) for _ in range(dim)]
    b = [rng.randint(1, 4) for _ in range(dim)]
    return linear_stability(a, b)


class TestEnumeration:
    def test_compositions_of_three(self):
        assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_double_grouping_count_matches_binomial_route(self):
        # independent count: sum over m of C(n-1, m-1) * 2^(m-1) = 3^(n-1)
        for n in range(1, 7):
            enumerated = sum(1 for _ in double_groupings(n))
            assert enumerated == 3 ** (n - 1)

    def test_set_partitions_bell_counts(self):
        bell = [1, 1, 2, 5, 15, 52]
        for n, expected in enumerate(bell):
            assert sum(1 for _ in set_partitions(range(n))) == expected


class TestCompositionSums:
    def test_c_small_by_hand(self):
        # c1: single composition (1) -> -1; c2: (2) -> -1/2, (1,1) -> +1
        assert c_n(1) == F(-1)
        assert c_n(2) == F(1, 2)

    def test_c_closed_form(self):
        for n in range(1, 9):
            assert c_n(n) == F((-1) ** n, math.factorial(n))

    def test_mu_small_by_hand(self):
        # mu2 = -1 + 1; mu3 = 2 - 3 + 1
        assert mu_n(1) == F(1)
        assert mu_n(2) == F(0)
        assert mu_n(3) == F(0)

    def test_mu_vanishes(self):
        for n in range(2, 9):
            assert mu_n(n) == 0


class TestEffectiveMonoid:
    def test_contains(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        assert mon.contains((2, 3))
        assert not mon.contains((0, 0))
        assert not mon.contains((-1, 2))

    def test_contains_with_negative_coordinates(self):
        mon = EffectiveMonoid([(2, -1), (-1, 2)])
        assert mon.contains((1, 1))
        assert not mon.contains((1, 0))
        assert mon.contains((4, -2))

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            EffectiveMonoid([(1, 0), (0, -1)])
        with pytest.raises(ValueError):
            EffectiveMonoid([])
        with pytest.raises(ValueError):
            EffectiveMonoid([(1, 0), (1, 0)])

    def test_effective_upto(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        assert mon.effective_upto(2) == [
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    def test_decompositions_by_hand(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        found = mon.decompositions((2, 0))
        assert sorted(found) == [((1, 0), (1, 0)), ((2, 0),)]
        # Parts are tried in class order, so the splittings come out sorted,
        # although by mass (1, 0) precedes (0, 2).
        found = mon.decompositions((1, 2))
        assert found == sorted(found) and len(found) == 8

    def test_decomposition_counts_single_generator(self):
        # splittings of n into ordered positive parts: 2^(n-1)
        mon = EffectiveMonoid([(1,)])
        for n in range(1, 6):
            assert len(mon.decompositions((n,))) == 2 ** (n - 1)

    def test_overflow(self):
        mon = EffectiveMonoid([(1,)])
        with pytest.raises(DecompositionOverflow):
            mon.decompositions((9,))
        assert len(mon.decompositions((9,), max_parts=9)) == 2 ** 8

    MONOIDS = [
        EffectiveMonoid([(1, 0), (0, 1)]),
        EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]),
        EffectiveMonoid([(1, 1), (2, -1)]),
        EffectiveMonoid([(2,), (3,)]),
    ]

    def test_below_against_the_splittings(self):
        for mon in self.MONOIDS:
            for target in mon.effective_upto(4):
                pieces = {
                    cls for parts in mon.decompositions(target) for cls in parts
                }
                below = mon.below(target)
                assert set(below) == pieces
                assert list(below) == sorted(below, key=lambda c: (sum(c), c))
        mon = self.MONOIDS[0]
        assert mon.below((-1, 2)) == ()
        assert mon.below((2, 1)) is mon.below([2, 1])

    def test_longest_splitting_against_the_splittings(self):
        for mon in self.MONOIDS:
            for target in mon.effective_upto(5):
                longest = max(len(p) for p in mon.decompositions(target, max_parts=10))
                assert mon.longest_splitting(target) == longest
        assert self.MONOIDS[3].longest_splitting((1,)) == 0
        assert self.MONOIDS[3].longest_splitting((7,)) == 3

    def test_non_effective_target(self):
        mon = EffectiveMonoid([(2, 0)])
        assert mon.decompositions((3, 0)) == []


class TestStabilityData:
    def test_mapping_lookup_and_undefined(self):
        tau = StabilityData({(1, 0): SlopeValue.of(1), (0, 1): "1/2"})
        assert tau.slope_of((1, 0)) == SlopeValue.of(1)
        assert tau.slope_of((0, 1)) == SlopeValue.of(F(1, 2))
        with pytest.raises(SlopeUndefined):
            tau.slope_of((1, 1))

    def test_linear_stability(self):
        tau = linear_stability([1, 0], [0, 1])
        assert tau.slope_of((3, 2)) == SlopeValue.of(F(3, 2))
        assert tau.slope_of((1, 0)) == SlopeValue.of("inf")
        assert tau.slope_of((-1, 0)) == SlopeValue.of("-inf")
        with pytest.raises(SlopeUndefined):
            tau.slope_of((0, 0))

    def test_lexicographic_tuples(self):
        tau = StabilityData({(1, 0): ("inf", 0), (0, 1): (1, "1/2")})
        assert tau.slope_of((1, 0)) > tau.slope_of((0, 1))

    def test_see_saw(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        assert linear_stability([1, 1], [1, 2]).see_saw_holds(mon, (1, 1))
        bad = StabilityData(
            {
                (1, 1): SlopeValue.of(5),
                (1, 0): SlopeValue.of(0),
                (0, 1): SlopeValue.of(1),
            }
        )
        assert not bad.see_saw_holds(mon, (1, 1))

    def test_see_saw_against_two_part_splittings(self):
        rng = random.Random(41)
        mon = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
        for _ in range(20):
            slopes = {
                cls: SlopeValue.of(rng.randint(-2, 2)) for cls in mon.effective_upto(3)
            }
            tau = StabilityData(slopes)
            for target in mon.effective_upto(3):
                mid = tau.slope_of(target)
                expected = all(
                    tau.slope_of(a) >= mid >= tau.slope_of(b)
                    or tau.slope_of(a) <= mid <= tau.slope_of(b)
                    for a, b in (
                        parts
                        for parts in mon.decompositions(target)
                        if len(parts) == 2
                    )
                )
                assert tau.see_saw_holds(mon, target) == expected

    def test_see_saw_verdict_is_kept_per_monoid(self, monkeypatch):
        # Over (1, 0), (0, 1) the split (0, 1) + (2, 0) of (2, 1) breaks the
        # see-saw; over (1, 0), (1, 1) only (1, 0) + (1, 1) exists, and holds.
        slopes = {(1, 0): 0, (0, 1): F(1, 5), (2, 0): F(1, 10), (1, 1): 1, (2, 1): F(1, 2)}
        tau = StabilityData(slopes)
        free = EffectiveMonoid([(1, 0), (0, 1)])
        other = EffectiveMonoid([(1, 0), (1, 1)])
        walks = collections.Counter()
        below = EffectiveMonoid.below

        def counted(monoid, target):
            walks[monoid.generators, target] += 1
            return below(monoid, target)

        monkeypatch.setattr(EffectiveMonoid, "below", counted)
        for _ in range(2):
            assert tau.see_saw_holds(other, (2, 1))
            assert not tau.see_saw_holds(free, (2, 1))
        assert set(walks.values()) == {1}
        # A failed slope lookup is not kept as a verdict.
        partial = StabilityData({(1, 0): 0, (1, 1): 1})
        for _ in range(2):
            with pytest.raises(SlopeUndefined):
                partial.see_saw_holds(free, (1, 1))

    def test_see_saw_on_a_class_with_long_splittings(self):
        # (5, 5) splits into up to ten parts, past the default cap of the
        # splitting enumeration; the check needs only the two-part ones.
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        with pytest.raises(DecompositionOverflow):
            mon.decompositions((5, 5))
        assert linear_stability([1, 2], [1, 1]).see_saw_holds(mon, (5, 5))


class TestPairingForm:
    def test_matrix_form(self):
        chi = pairing_form([[0, 2, -1], [-2, 0, 4], [1, -4, 0]])
        assert chi((1, 0, 0), (0, 1, 0)) == 2
        assert chi((0, 1, 1), (1, 1, 0)) == -2 + 1 - 4
        with pytest.raises(ValueError, match="dimension"):
            chi((1, 0), (0, 1))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            pairing_form([[0, 1], [-1, 0], [0, 0]])
        with pytest.raises(ValueError, match="square"):
            pairing_form([[0, 1, 0], [-1, 0]])

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            pairing_form([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="antisymmetric"):
            pairing_form([[1, 0], [0, -1]])

    def test_callable_returned_unchanged(self):
        def chi(a, b):
            return a[0] * b[1] - a[1] * b[0]

        assert pairing_form(chi) is chi
        assert QuantumTorusBackend(chi).chi is chi


class TestClassLookup:
    def test_mapping_and_missing(self):
        lookup = class_lookup({(1, 0): 3, (0, 1): "2"}, ValueError, "count")
        assert lookup([1, 0]) == 3 and lookup((0, 1)) == 2
        with pytest.raises(ValueError, match=r"no count for class \(1, 1\)"):
            lookup((1, 1))

    def test_callable(self):
        lookup = class_lookup(lambda cls: cls[0] + 2 * cls[1], MissingFr, "fr value")
        assert lookup([1, 1]) == 3

    def test_mapping_fr_missing_class(self):
        lookup = class_lookup({(1, 0): 3}, MissingFr, "fr value")
        assert lookup((1, 0)) == 3
        with pytest.raises(MissingFr, match=r"no fr value for class \(0, 1\)"):
            lookup((0, 1))


def counting_linear(a, b, calls):
    """Linear slope (a·γ)/(b·γ) that records every class it is asked for."""

    def slope(cls):
        calls[cls] += 1
        num = sum(x * c for x, c in zip(a, cls))
        den = sum(x * c for x, c in zip(b, cls))
        return SlopeValue.of(F(num, den))

    return slope


class TestSlopeMemo:
    def test_source_read_once_per_class_over_a_ladder(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        first, second = collections.Counter(), collections.Counter()
        tau = StabilityData(counting_linear((1, 0), (1, 1), first))
        taup = StabilityData(counting_linear((0, 1), (1, 1), second))
        box = [(i, j) for i in range(4) for j in range(4) if i + j]
        table = InvariantTable(
            {cls: LaurentElement.gen(f"a{cls[0]}{cls[1]}") for cls in box},
            monoid=mon,
        )
        for target in sorted(box, key=sum):
            vw_wcf(target, tau, taup, table, [[0, 1], [-1, 0]])
        assert set(first) == set(second) == set(box)
        assert set(first.values()) == set(second.values()) == {1}

    def test_undefined_raises_on_every_call(self):
        zero_over_zero = linear_stability([1, -1], [1, -1])
        mapping = StabilityData({(1, 0): 0})
        for _ in range(3):
            with pytest.raises(SlopeUndefined):
                zero_over_zero.slope_of((1, 1))
            with pytest.raises(SlopeUndefined):
                mapping.slope_of((0, 1))
        assert zero_over_zero.slope_of((1, 0)) == SlopeValue.of(1)

    def test_failed_lookups_are_not_memoized(self):
        calls = collections.Counter()

        def partial(cls):
            calls[cls] += 1
            return None if cls == (1, 1) else 0

        tau = StabilityData(partial)
        for _ in range(3):
            with pytest.raises(SlopeUndefined):
                tau.slope_of((1, 1))
        assert calls[(1, 1)] == 3

    def test_list_class_shares_the_tuple_entry(self):
        calls = collections.Counter()
        tau = StabilityData(counting_linear((2, 1), (1, 1), calls))
        assert tau.slope_of([1, 0]) == tau.slope_of((1, 0)) == SlopeValue.of(2)
        assert tau.slope_of([F(1), 0]) == SlopeValue.of(2)
        assert calls == {(1, 0): 1}

    def test_objects_do_not_share_a_memo(self):
        calls = collections.Counter()
        source = counting_linear((1, 0), (1, 1), calls)
        one, two = StabilityData(source), StabilityData(source)
        one.slope_of((1, 1))
        two.slope_of((1, 1))
        assert calls[(1, 1)] == 2
        left = StabilityData({(1, 0): 0})
        right = StabilityData({(1, 0): 1})
        assert left.slope_of((1, 0)) == SlopeValue.of(0)
        assert right.slope_of((1, 0)) == SlopeValue.of(1)


A = (1, 0)
B1 = (0, 1)
B2 = (0, 2)


class TestSCoefficient:
    def test_single_class(self):
        assert S_coeff([A], TAU_MINUS, TAU_PLUS) == 1
        assert S_coeff([B1], TAU_MINUS, TAU_PLUS) == 1

    def test_adjacent_pair(self):
        assert S_coeff([B1, A], TAU_MINUS, TAU_PLUS) == -1
        # rank-one part in next-to-last position: (-1)^(n-2) = +1 at n = 2
        assert S_coeff([A, B1], TAU_MINUS, TAU_PLUS) == 1
        assert S_coeff([B1, B2], TAU_MINUS, TAU_PLUS) == 0

    def test_simple_type_table(self):
        # rank-one class in position i among rank-zero classes:
        # (-1)^(n-1) for i=n, (-1)^(n-2) for i=n-1, else 0
        for n in range(2, 7):
            for i in range(1, n + 1):
                tup = [B1] * (i - 1) + [A] + [B1] * (n - i)
                value = S_coeff(tup, TAU_MINUS, TAU_PLUS)
                if i == n:
                    assert value == (-1) ** (n - 1)
                elif i == n - 1:
                    assert value == (-1) ** (n - 2)
                else:
                    assert value == 0

    def test_rank_zero_only_vanishes(self):
        for n in range(2, 6):
            assert S_coeff([B1] * n, TAU_MINUS, TAU_PLUS) == 0

    def test_undefined_slope_propagates(self):
        # the length-3 tuple needs the slope of the partial sum (0, 2)
        tau = StabilityData({A: 0, B1: 0})
        with pytest.raises(SlopeUndefined):
            S_coeff([A, B1, B1], tau, tau)


def s_by_definition(classes, tau, taup):
    """S straight from its definition, every partial sum recomputed."""
    r = 0
    for i in range(1, len(classes)):
        first_here = tau.slope_of(classes[i - 1])
        first_next = tau.slope_of(classes[i])
        left = taup.slope_of(class_sum(classes[:i]))
        right = taup.slope_of(class_sum(classes[i:]))
        if first_here <= first_next and left > right:
            r += 1
        elif not (first_here > first_next and left <= right):
            return 0
    return (-1) ** r


def u_by_definition(classes, tau, taup):
    """U straight from its defining sum over double groupings."""
    total_slope = taup.slope_of(class_sum(classes))
    acc = F(0)
    for outer, inner in double_groupings(len(classes)):
        blocks, start = [], 0
        for size in outer:
            blocks.append(classes[start : start + size])
            start += size
        betas = [class_sum(block) for block in blocks]
        if any(
            tau.slope_of(member) != tau.slope_of(beta)
            for beta, block in zip(betas, blocks)
            for member in block
        ):
            continue
        groups, start = [], 0
        for size in inner:
            groups.append(betas[start : start + size])
            start += size
        if any(taup.slope_of(class_sum(g)) != total_slope for g in groups):
            continue
        term = F((-1) ** (len(groups) - 1), len(groups))
        for size in outer:
            term /= math.factorial(size)
        for group in groups:
            term *= s_by_definition(group, tau, taup)
        acc += term
    return acc


class TestUCoefficient:
    def test_matches_definition_under_random_linear_stabilities(self):
        rng = random.Random(23)
        mon = EffectiveMonoid([(1, 0), (0, 1), (1, 1)])
        for _ in range(6):
            tau, taup = random_linear(rng, 2), random_linear(rng, 2)
            for parts in mon.decompositions((2, 2)):
                assert S_coeff(parts, tau, taup) == s_by_definition(parts, tau, taup)
                assert U_coeff(parts, tau, taup) == u_by_definition(parts, tau, taup)

    def test_single_class_always_one(self):
        rng = random.Random(3)
        for _ in range(5):
            tau = random_linear(rng, 2)
            taup = random_linear(rng, 2)
            assert U_coeff([(1, 2)], tau, taup) == 1

    def test_identity_stability_delta(self):
        # U(...; tau, tau) is 1 for a single class and 0 for n >= 2
        rng = random.Random(5)
        mon = EffectiveMonoid([(1, 0), (0, 1), (1, 1)])
        for trial in range(3):
            tau = random_linear(rng, 2)
            for parts in mon.decompositions((2, 2), max_parts=5):
                expected = 1 if len(parts) == 1 else 0
                assert U_coeff(parts, tau, tau) == expected

    def test_simple_type_closed_form(self):
        for n in range(1, 7):
            for i in range(1, n + 1):
                tup = [B1] * (i - 1) + [A] + [B1] * (n - i)
                expected = F(
                    (-1) ** (i - 1),
                    math.factorial(n - i) * math.factorial(i - 1),
                )
                assert U_coeff(tup, TAU_MINUS, TAU_PLUS) == expected

    def test_mixed_rank_vanishes(self):
        # two rank-one parts cannot appear in a nonzero coefficient
        assert U_coeff([A, A], TAU_MINUS, TAU_PLUS) == 0
        assert U_coeff([A, B1, A], TAU_MINUS, TAU_PLUS) == 0

    def test_transitivity(self):
        rng = random.Random(11)
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        for trial in range(4):
            tau = random_linear(rng, 2)
            tau_mid = random_linear(rng, 2)
            tau_end = random_linear(rng, 2)
            for parts in mon.decompositions((2, 2), max_parts=4):
                direct = U_coeff(parts, tau, tau_end)
                composed = F(0)
                n = len(parts)
                for sizes in compositions(n):
                    bounds = [0]
                    for s in sizes:
                        bounds.append(bounds[-1] + s)
                    blocks = [
                        parts[bounds[j] : bounds[j + 1]]
                        for j in range(len(sizes))
                    ]
                    term = U_coeff(
                        [class_sum(b) for b in blocks], tau_mid, tau_end
                    )
                    for block in blocks:
                        if not term:
                            break
                        term *= U_coeff(block, tau, tau_mid)
                    composed += term
                assert direct == composed

    def test_vanishing_lemma_instances(self):
        # slopes splitting the tuple along I = {indices of gamma} with
        # tau(gamma) < tau(others) and tau'(gamma) < tau'(total)
        gamma = (0, 1)
        delta = (1, 0)
        tau = StabilityData(
            {gamma: 0, delta: 1, (1, 1): "1/2", (1, 2): "1/2", (0, 2): 0}
        )
        taup = StabilityData(
            {gamma: 0, delta: 3, (1, 1): 2, (1, 2): 1, (0, 2): 0}
        )
        for tup in ([gamma, delta], [delta, gamma], [gamma, delta, gamma]):
            assert S_coeff(tup, tau, taup) == 0
            assert U_coeff(tup, tau, taup) == 0
            assert Utilde(tup, tau, taup) == 0


class TestUtilde:
    def test_single_part(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        tau = linear_stability([1, 0], [1, 1])
        el = utilde_lie_element((1, 0), tau, tau, mon)
        assert el == LieElement.letter(el.context, (1, 0))

    def test_identity_stability_gives_single_letter(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        tau = linear_stability([2, 1], [1, 1])
        el = utilde_lie_element((1, 1), tau, tau, mon)
        assert el == LieElement.letter(el.context, (1, 1))

    def test_expansion_reproduces_word_sum(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        rng = random.Random(17)
        for _ in range(3):
            tau = random_linear(rng, 2)
            taup = random_linear(rng, 2)
            for target in ((1, 1), (1, 2), (2, 1)):
                words = utilde_word_sum(target, tau, taup, mon)
                el = utilde_lie_element(
                    target, tau, taup, mon, context=words.context
                )
                assert expand_to_uea(el) == words

    def test_simple_type_lie_element(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        target = (1, 3)
        el = utilde_lie_element(target, TAU_MINUS, TAU_PLUS, mon)
        ctx = el.context
        expected = LieElement.zero(ctx)
        # sum over splittings with the rank-one class first, rank-zero after:
        # 1/(n-1)! times the left-nested bracket
        for parts in mon.decompositions(target):
            if parts[0][0] != 1 or any(p[0] != 0 for p in parts[1:]):
                continue
            expected = expected + left_nested(parts, ctx) * F(
                1, math.factorial(len(parts) - 1)
            )
        assert el == expected

    def test_coefficients_invariant_under_left_nested_relation(self):
        # perturb the bracket-side coefficients by a Jacobi relation vector:
        # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0, so adding it must not
        # change the assembled Lie element
        mon = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        tau = linear_stability([1, 2, 3], [1, 1, 1])
        taup = linear_stability([3, 1, 2], [1, 1, 1])
        target = (1, 1, 1)
        words = utilde_word_sum(target, tau, taup, mon)
        ctx = words.context
        a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        base = LieElement.zero(ctx)
        for word, coeff in words.terms.items():
            base = base + left_nested(word, ctx) * (
                coeff * F(1, len(word))
            )
        eps = F(7, 3)
        perturbed = base
        for word in ((a, b, c), (b, c, a), (c, a, b)):
            perturbed = perturbed + left_nested(word, ctx) * eps
        assert perturbed == base
        assert base == utilde_lie_element(target, tau, taup, mon, context=ctx)

    def test_corrupted_word_sum_raises(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        words = utilde_word_sum((1, 1), TAU_MINUS, TAU_PLUS, mon)
        ctx = words.context
        bad_word = ((0, 1), (1, 0))
        corrupted = words + UEAElement(ctx, {bad_word: F(1)})
        with pytest.raises(NotPrimitive):
            for n in sorted(corrupted.word_lengths()):
                piece = UEAElement(
                    ctx,
                    {w: c for w, c in corrupted.terms.items() if len(w) == n},
                )
                dynkin_project(piece, n)

    def test_utilde_coordinate_is_u_over_n(self):
        tup = [B1, B1, A]
        assert Utilde(tup, TAU_MINUS, TAU_PLUS) == U_coeff(
            tup, TAU_MINUS, TAU_PLUS
        ) / 3
