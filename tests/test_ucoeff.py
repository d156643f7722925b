import collections
import math
import operator
import random
from fractions import Fraction

import pytest

from wallx.errors import (
    DecompositionOverflow,
    NotPrimitive,
    SeeSawFailure,
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
    c_n,
    class_lookup,
    class_sum,
    compositions,
    linear_stability,
    mu_n,
    pairing_form,
    peel_classes,
    refactor,
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

    def test_class_coordinates_follow_the_integer_rule(self):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        for bad in ((0.9, 1), (True, 1), ("1", 1)):
            with pytest.raises(ValueError, match="expected an integer"):
                mon.contains(bad)
        with pytest.raises(ValueError, match="expected an integer"):
            EffectiveMonoid([(1.5, 0), (0, 1)])
        assert mon.contains((F(1), 1))

    @pytest.mark.parametrize("bad, good", [(True, 1), (2.0, 2), ("2", 2)])
    def test_public_readers_refuse_a_coordinate_that_is_not_an_integer(self, bad, good):
        # The peel reads classes that ``below`` returned without re-reading
        # them; every public entry point still reads its input.
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        tau = linear_stability([1, 0], [1, 1])
        for target, warm in (((bad, 1), (good, 1)), ((1, bad), (1, good))):
            # Fill the memos at the equal integer class first: a memo hit
            # must not skip the read (True == 1 and 2.0 == 2 as keys).
            mon.longest_splitting(warm, 8)
            tau.see_saw_holds(mon, warm)
            for call in (
                lambda: mon.below(target),
                lambda: mon.longest_splitting(target, 8),
                lambda: tau.slope_of(target),
                lambda: tau.see_saw_holds(mon, target),
            ):
                with pytest.raises(ValueError, match="expected an integer"):
                    call()

    def test_contains_with_negative_coordinates(self):
        mon = EffectiveMonoid([(2, -1), (-1, 2)])
        assert mon.contains((1, 1))
        assert not mon.contains((1, 0))
        assert mon.contains((4, -2))
        # 1,000 steps from zero, with no coordinate that refuses early.
        assert mon.contains((2000, -1000))

    def test_a_class_far_from_zero(self):
        # The walk down to zero takes one generator per step, 1,500 steps
        # here, and a class negative where no generator is (such as
        # (k, -1)) is refused without a walk, so the memo grows with the
        # depth and not with the triangle under the class.
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        assert mon.contains((1500, 0))
        assert not mon.contains((1500, -1))
        with pytest.raises(DecompositionOverflow, match=r"\(1200, 0\) needs more than 8 parts"):
            mon.longest_splitting((1200, 0), 8)
        assert mon.below((400, 0)) == tuple((k, 0) for k in range(1, 401))
        assert len(mon._member_cache) < 4 * 1500

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
                assert mon.longest_splitting(target, longest) == longest
                with pytest.raises(DecompositionOverflow, match="needs more than"):
                    mon.longest_splitting(target, longest - 1)
        assert self.MONOIDS[3].longest_splitting((1,), 0) == 0
        assert self.MONOIDS[3].longest_splitting((7,), 3) == 3

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
        below = EffectiveMonoid._below

        def counted(monoid, target):
            walks[monoid.generators, target] += 1
            return below(monoid, target)

        # ``_below`` is the path every ``below`` lookup takes, public or not.
        monkeypatch.setattr(EffectiveMonoid, "_below", counted)
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
        chi = pairing_form([[0, 2, -1], [-2, 0, 4], (1, -4, 0)])
        assert chi == ((0, 2, -1), (-2, 0, 4), (1, -4, 0))
        qt = QuantumTorusBackend(chi, qint=lambda n: n)
        value = lambda a, b: qt.bracket(qt.lift(a, 1), qt.lift(b, 1)).value
        assert value((1, 0, 0), (0, 1, 0)) == 2
        assert value((0, 1, 1), (1, 1, 0)) == -2 + 1 - 4
        with pytest.raises(ValueError, match="dimension"):
            value((1, 0), (0, 1))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            pairing_form([[0, 1], [-1, 0], [0, 0]])
        with pytest.raises(ValueError, match="square"):
            pairing_form([[0, 1, 0], [-1, 0]])
        with pytest.raises(ValueError, match="square"):
            pairing_form([[0, 1], []])
        with pytest.raises(ValueError, match="square"):
            pairing_form([[0, 1, 0], [-1, 0, 0], [0]])

    def test_non_antisymmetric_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            pairing_form([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match=r"antisymmetric: chi\[0\]\[0\]"):
            pairing_form([[1, 0], [0, -1]])
        with pytest.raises(ValueError, match=r"antisymmetric: chi\[1\]\[2\]"):
            pairing_form([[0, 1, 0], [-1, 0, 2], [0, 2, 0]])

    def test_entries_follow_the_integer_rule(self):
        with pytest.raises(ValueError, match="expected an integer"):
            pairing_form([[0, 2.5], [-2.5, 0]])
        with pytest.raises(ValueError, match="expected an integer"):
            pairing_form([[False, True], [-1, 0]])
        chi = pairing_form([[0, F(2)], [-2, 0]])
        assert chi == ((0, 2), (-2, 0)) and type(chi[0][1]) is int

    def test_callable_is_refused(self):
        def chi(a, b):
            return a[0] * b[1] - a[1] * b[0]

        monoid = EffectiveMonoid([(1, 0), (0, 1)])
        table = InvariantTable(
            {c: LaurentElement.gen(f"v{c[0]}{c[1]}") for c in monoid.effective_upto(2)},
            monoid=monoid,
        )
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        for refuse in (
            lambda: pairing_form(chi),
            lambda: QuantumTorusBackend(chi),
            lambda: vw_wcf((1, 1), tau, taup, table, chi),
            lambda: vw_wcf((1, 0), tau, taup, table, chi),
        ):
            with pytest.raises(TypeError, match="not a callable"):
                refuse()


class TestClassLookup:
    def test_mapping_and_missing(self):
        lookup = class_lookup({(1, 0): 3, (0, 1): F(2)})
        assert lookup([1, 0]) == 3 and lookup((0, 1)) == 2
        with pytest.raises(ValueError, match=r"no o count for class \(1, 1\)"):
            lookup((1, 1))

    def test_callable(self):
        lookup = class_lookup(lambda cls: cls[0] + 2 * cls[1])
        assert lookup([1, 1]) == 3

    def test_values_follow_the_integer_rule(self):
        for bad in (0.6, 1.2, True, "2"):
            with pytest.raises(ValueError, match="expected an integer"):
                class_lookup({(1, 0): bad})
            lookup = class_lookup(lambda cls: bad)
            with pytest.raises(ValueError, match="expected an integer"):
                lookup((1, 0))

    def test_a_negative_count_is_refused_when_read(self):
        sources = (({(1, 0): 3, (0, 1): -1}, 3), (lambda cls: cls[0] - cls[1], 1))
        for source, count in sources:
            lookup = class_lookup(source)
            assert lookup((1, 0)) == count
            with pytest.raises(ValueError, match="o counts must be nonnegative"):
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

    def test_linear_stability_reads_int_fraction_and_mixed_vectors_alike(self):
        # Integral entries stay ints, so the slope sums are int arithmetic;
        # the slopes and their printed form must not depend on that.
        a, b = [3, -2, 1], [1, 2, 4]
        vectors = [
            (a, b),
            ([F(x) for x in a], [F(x) for x in b]),
            ([a[0], F(a[1]), a[2]], [F(b[0]), b[1], F(b[2])]),
            ([F(6, 2), -2, F(2, 2)], b),
        ]
        stabilities = [linear_stability(x, y) for x, y in vectors]
        halves = linear_stability([F(3, 2), -1, F(1, 2)], [1, 2, 4])
        twice = linear_stability([3, -2, 1], [2, 4, 8])
        classes = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k]
        for cls in classes:
            want = stabilities[0].slope_of(cls)
            assert all(tau.slope_of(cls) == want for tau in stabilities)
            assert len({str(tau.slope_of(cls)) for tau in stabilities}) == 1
            assert twice.slope_of(cls) == halves.slope_of(cls)
            assert twice.slope_of(cls) == SlopeValue.of(
                F(3 * cls[0] - 2 * cls[1] + cls[2], 2 * (cls[0] + 2 * cls[1] + 4 * cls[2]))
            )
        zero_den = linear_stability([1, 0], [1, -1])
        assert zero_den.slope_of((1, 1)) == SlopeValue.of("inf")
        assert zero_den.slope_of((-1, -1)) == SlopeValue.of("-inf")

    @pytest.mark.parametrize("a, b", [([1, 0], [1]), ([1], [1, 1]), ([], [0])])
    def test_linear_stability_refuses_vectors_of_unequal_length(self, a, b):
        with pytest.raises(ValueError, match="same length"):
            linear_stability(a, b)

    def test_library_slopes_follow_the_config_grammar(self):
        for bad in (True, "1.5", "1/0"):
            tau = StabilityData({(1, 0): bad})
            with pytest.raises(ValueError):
                tau.slope_of((1, 0))
        assert StabilityData({(1, 0): " -2/4 "}).slope_of((1, 0)) == SlopeValue.of(F(-1, 2))

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

    def test_float_class_refused(self):
        tau = StabilityData({(1, 0): 1})
        with pytest.raises(ValueError, match="integer"):
            tau.slope_of((1.0, 0))

    def test_refactor_reads_each_slope_once_per_stability(self, monkeypatch):
        mon = EffectiveMonoid([(1, 0), (0, 1)])
        tau, taup = linear_stability([1, 0], [1, 1]), linear_stability([0, 1], [1, 1])
        splits = peel_classes((2, 2), tau, taup, mon, 8)
        calls = collections.Counter()
        lookup = StabilityData._slope_at

        def counting(self, cls):
            calls[id(self)] += 1
            return lookup(self, cls)

        # ``_slope_at`` is the path every slope lookup takes, public or not.
        monkeypatch.setattr(StabilityData, "_slope_at", counting)
        refactor(splits, tau, taup, lambda cls: {(cls,): 1}, lambda beta, delta: {(): 1})
        assert calls == {id(tau): len(splits), id(taup): len(splits)}

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


def _double_loop_splittings(classes):
    """The two-part splittings of each class into classes of ``classes``,
    by a loop over all pairs, first part in the order of ``classes``."""
    splits = {cls: [] for cls in classes}
    for beta in classes:
        for delta in classes:
            cls = tuple(map(operator.add, beta, delta))
            if cls in splits:
                splits[cls].append((beta, delta))
    return splits


class _RecordingMonoid(EffectiveMonoid):
    """An effective monoid that records every class ``below`` is asked for,
    through the public method or the internal ``_below`` that it calls."""

    def __init__(self, generators):
        super().__init__(generators)
        object.__setattr__(self, "asked", [])

    def _below(self, target):
        self.asked.append(tuple(target))
        return super()._below(target)


class TestPeelClasses:
    def test_each_class_below_maps_to_its_two_part_splittings(self):
        cases = [
            (EffectiveMonoid([(1, 0), (0, 1)]), (2, 3)),
            (EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]), (2, 1, 1)),
            (EffectiveMonoid([(1, 1), (2, -1)]), (4, 1)),
        ]
        for mon, target in cases:
            tau = linear_stability([1] * len(target), [1] * len(target))
            splits = peel_classes(target, tau, tau, mon, 8)
            assert list(splits) == list(mon.below(target))
            position = {cls: j for j, cls in enumerate(splits)}
            for cls, pairs in splits.items():
                twos = [p for p in mon.decompositions(cls) if len(p) == 2]
                assert pairs == sorted(twos, key=lambda p: position[p[0]])

    def test_a_target_that_is_not_effective_has_no_classes(self):
        mon = EffectiveMonoid([(1, 1), (2, -1)])
        tau = linear_stability([1, 1], [1, 1])
        assert peel_classes((1, 0), tau, tau, mon, 8) == {}

    def test_splittings_equal_the_double_loop_over_classes(self):
        rng = random.Random(25)
        generator_sets = [
            [(1, 0), (0, 1)],
            [(1, 0), (1, 1), (0, 2)],
            [(2, 1), (1, 3)],
            [(1, 1), (2, -1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],
        ]
        for gens in generator_sets:
            mon = EffectiveMonoid(gens)
            dim = len(gens[0])
            targets = [cls for cls in mon.effective_upto(7) if sum(cls) >= 3]
            for target in rng.sample(targets, min(4, len(targets))):
                a = [rng.randint(-3, 3) for _ in range(dim)]
                b = [rng.randint(1, 3) for _ in range(dim)]
                tau = linear_stability(a, b)
                splits = peel_classes(target, tau, tau, mon, 12)
                assert list(splits) == list(mon.below(target))
                want = _double_loop_splittings(list(splits))
                assert list(splits.items()) == list(want.items())

    def test_overflow_comes_before_any_splitting(self):
        mon = _RecordingMonoid([(1, 0), (1, 1), (0, 2)])
        tau = linear_stability([1, 0], [1, 1])
        with pytest.raises(DecompositionOverflow):
            peel_classes((4, 4), tau, tau, mon, 3)
        assert set(mon.asked) == {(4, 4)}

    def test_see_saw_failure_comes_before_any_splitting(self):
        mon = _RecordingMonoid([(1, 0), (0, 1)])
        # (1, 1) sits above both of its parts, so the check fails there.
        bad = StabilityData(lambda cls: 5 if cls == (1, 1) else 0, name="bad")
        tau = linear_stability([1, 0], [1, 1])
        with pytest.raises(SeeSawFailure, match=r"bad .* \(1, 1\)"):
            peel_classes((2, 2), tau, bad, mon, 8)
        # No class after (1, 1) in peel order was asked for its splittings.
        order = list(mon.below((2, 2)))
        assert order.index((1, 1)) < len(order) - 1
        assert set(mon.asked) <= {(2, 2), *order[: order.index((1, 1)) + 1]}


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
            dynkin_project(corrupted)
