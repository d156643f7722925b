import math
import random
from fractions import Fraction

import pytest

from wallx.errors import (
    MissingChi,
    MissingFr,
    UnsupportedClass,
    ZeroQuantumInteger,
)
from wallx.freelie import LieContext, LieElement, left_nested
from wallx.kclasses import quantum_integer
from wallx.ring import LaurentElement, SlopeValue, specialize_kappa
from wallx.ucoeff import (
    EffectiveMonoid,
    StabilityData,
    U_coeff,
    class_sum,
    linear_stability,
    utilde_word_sum,
)
from wallx.wallcross import (
    FreeLieBackend,
    GradedValue,
    InvariantTable,
    QuantumTorusBackend,
    invert_semistable,
    pair_invariant_rhs,
    reduced_filter,
    unrefined_integer,
    vw_wcf,
    wcf_rhs,
)

F = Fraction
L = LaurentElement
CHI = [[0, 3], [-3, 0]]
MONOID = EffectiveMonoid([(1, 0), (0, 1)])


def q(n):
    return quantum_integer(n)


def symbol_table(classes, prefix="v", **kwargs):
    return InvariantTable(
        {cls: L.gen(f"{prefix}{''.join(map(str, cls))}") for cls in classes},
        **kwargs,
    )


class TestGradedValue:
    def test_addition(self):
        zero = GradedValue(None, L.zero())
        x = GradedValue((1, 0), L.gen("a"))
        assert (zero + x) == x
        assert (x + zero) == x
        assert (x + x) == GradedValue((1, 0), L.gen("a") + L.gen("a"))

    def test_class_mixing_rejected(self):
        x = GradedValue((1, 0), L.gen("a"))
        y = GradedValue((0, 1), L.gen("b"))
        with pytest.raises(ValueError):
            x + y


class TestQuantumTorusBackend:
    def test_bracket_value(self):
        qt = QuantumTorusBackend(CHI)
        x = qt.lift((1, 0), L.gen("a"))
        y = qt.lift((0, 1), L.gen("b"))
        out = qt.bracket(x, y)
        assert out.cls == (1, 1)
        assert out.value == q(3) * L.gen("a") * L.gen("b")

    def test_missing_chi(self):
        with pytest.raises(MissingChi):
            QuantumTorusBackend(None)

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(2)
        qt = QuantumTorusBackend(CHI)
        for _ in range(8):
            triple = [
                qt.lift(
                    (rng.randint(0, 3), rng.randint(0, 3)), L.gen(f"v{i}")
                )
                for i in range(3)
            ]
            x, y, z = triple
            anti = qt.bracket(x, y).value + qt.bracket(y, x).value
            assert not anti.terms
            jacobi = (
                qt.bracket(x, qt.bracket(y, z)).value
                + qt.bracket(y, qt.bracket(z, x)).value
                + qt.bracket(z, qt.bracket(x, y)).value
            )
            assert not jacobi.terms

    def test_unrefined_integers(self):
        assert unrefined_integer(3) == L.const(3)
        assert unrefined_integer(2) == L.const(-2)
        assert unrefined_integer(-2) == L.const(2)
        assert unrefined_integer(0) == L.zero()
        for n in range(-4, 5):
            assert unrefined_integer(n) == specialize_kappa(q(n))


class TestInvariantTable:
    def test_lookup_and_missing(self):
        table = symbol_table([(1, 0), (0, 1)])
        assert table.value((1, 0)) == L.gen("v10")
        with pytest.raises(UnsupportedClass):
            table.value((1, 1))

    def test_zero_missing(self):
        table = symbol_table([(1, 0)], zero_missing=True)
        assert table.value((1, 1)) is None

    def test_effective_validation(self):
        with pytest.raises(ValueError):
            InvariantTable({(-1, 0): L.gen("a")}, monoid=MONOID)

    def test_o_counts(self):
        table = InvariantTable(
            {(1, 0): L.gen("a")}, o={(1, 0): 2, (0, 1): 0}
        )
        assert table.o_of((1, 0)) == 2
        assert table.o_of((0, 1)) == 0
        with pytest.raises(ValueError):
            table.o_of((1, 1))
        with pytest.raises(ValueError):
            InvariantTable({}, o={(1, 0): -1})


class TestWcfRhs:
    def test_identity_stability_returns_entry(self):
        rng = random.Random(5)
        qt = QuantumTorusBackend(CHI)
        for _ in range(3):
            tau = linear_stability(
                [rng.randint(-3, 3), rng.randint(-3, 3)], [1, 1]
            )
            table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
            out = wcf_rhs((2, 1), tau, tau, table, qt)
            assert out.cls == (2, 1)
            assert out.value == table.value((2, 1))

    def test_free_lie_backend_matches_direct_assembly(self):
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        target = (2, 1)
        words = utilde_word_sum(target, tau, taup, MONOID, max_parts=3)
        ctx = words.context
        table = InvariantTable(
            {cls: LieElement.letter(ctx, cls) for cls in ctx.letters},
            monoid=MONOID,
        )
        got = wcf_rhs(
            target, tau, taup, table, FreeLieBackend(ctx), max_parts=3
        )
        expected = LieElement.zero(ctx)
        for word, coeff in words.terms.items():
            expected = expected + left_nested(word, ctx) * (
                coeff * F(1, len(word))
            )
        assert got == expected

    def test_missing_entry_raises(self):
        qt = QuantumTorusBackend(CHI)
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        table = symbol_table([(1, 1)], monoid=MONOID)
        with pytest.raises(UnsupportedClass):
            wcf_rhs((1, 1), tau, taup, table, qt)

    def test_zero_flagged_entries_drop_terms(self):
        qt = QuantumTorusBackend(CHI)
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        full = symbol_table([(1, 1), (1, 0), (0, 1)], monoid=MONOID)
        sparse = InvariantTable(
            {(1, 1): full.value((1, 1))}, zero_missing=True, monoid=MONOID
        )
        out = wcf_rhs((1, 1), tau, taup, sparse, qt)
        assert out.value == full.value((1, 1))

    def test_value_independent_of_coefficient_convention(self):
        # assemble the same sum from raw left-nested words, then perturb the
        # coefficients by a Jacobi relation vector; the backend value of the
        # perturbation is zero
        qt = QuantumTorusBackend(CHI)
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        target = (2, 1)
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        words = utilde_word_sum(target, tau, taup, MONOID, max_parts=3)

        def nested_value(word):
            acc = qt.lift(word[0], table.value(word[0]))
            for cls in word[1:]:
                acc = qt.bracket(acc, qt.lift(cls, table.value(cls)))
            return acc.value

        direct = L.zero()
        for word, coeff in words.terms.items():
            direct = direct + (coeff * F(1, len(word))) * nested_value(word)
        a, b, c = (1, 0), (0, 1), (1, 1)
        relation = (
            nested_value((a, b, c))
            + nested_value((b, c, a))
            + nested_value((c, a, b))
        )
        assert not relation.terms
        got = wcf_rhs(target, tau, taup, table, qt, max_parts=3)
        assert got.value == direct


class TestReducedFilter:
    DECOMPS = [
        ((1, 1),),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
    ]

    def test_all_zero_is_identity(self):
        o = {(1, 1): 0, (1, 0): 0, (0, 1): 0}
        assert reduced_filter(self.DECOMPS, o, 0) == self.DECOMPS

    def test_single_split_survives(self):
        o = {(1, 1): 1, (1, 0): 1, (0, 1): 0}
        assert reduced_filter(self.DECOMPS, o, 1) == self.DECOMPS

    def test_superadditive_keeps_only_one_part(self):
        o = {(1, 1): 1, (1, 0): 1, (0, 1): 1}
        assert reduced_filter(self.DECOMPS, o, 1) == [((1, 1),)]

    def test_table_and_missing(self):
        table = InvariantTable({}, o={(1, 1): 1})
        assert reduced_filter([((1, 1),)], table, 1) == [((1, 1),)]
        with pytest.raises(ValueError):
            reduced_filter(self.DECOMPS, table, 1)


class TestPairInvariant:
    TAU = linear_stability([1, 1], [1, 1])
    FR = {(1, 0): 1, (0, 1): 3, (1, 1): 2, (2, 0): 4, (0, 2): 5, (2, 1): 1, (1, 2): 2}

    def brute(self, alpha, table, chi_matrix, fr):
        # direct expansion of the displayed sum:
        # sum over equal-slope ordered splittings of
        # (1/n!) prod_i [fr(a_i) + chi(a_i, a_1+...+a_{i-1})] vw_{a_i}
        def chi(x, y):
            return sum(
                x[i] * chi_matrix[i][j] * y[j]
                for i in range(2)
                for j in range(2)
            )

        acc = L.zero()
        slope = self.TAU.slope_of(alpha)
        for parts in MONOID.decompositions(alpha):
            if any(self.TAU.slope_of(p) != slope for p in parts):
                continue
            term = L.const(F(1, math.factorial(len(parts))))
            partial = (0, 0)
            for cls in parts:
                term = term * q(fr[cls] + chi(cls, partial)) * table.value(cls)
                partial = class_sum([partial, cls])
            acc = acc + term
        return acc

    def test_single_class_term(self):
        qt = QuantumTorusBackend(CHI)
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        out = pair_invariant_rhs((1, 0), self.FR, self.TAU, table, qt)
        assert out == q(1) * L.gen("v10")

    def test_matches_brute_force_up_to_three_parts(self):
        qt = QuantumTorusBackend(CHI)
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        for alpha in ((1, 1), (2, 1), (1, 2)):
            got = pair_invariant_rhs(alpha, self.FR, self.TAU, table, qt)
            assert got == self.brute(alpha, table, CHI, self.FR)

    def test_missing_fr(self):
        qt = QuantumTorusBackend(CHI)
        table = symbol_table([(1, 1), (1, 0), (0, 1)], monoid=MONOID)
        with pytest.raises(MissingFr):
            pair_invariant_rhs((1, 1), {(1, 1): 1}, self.TAU, table, qt)

    def test_fr_from_stability(self):
        qt = QuantumTorusBackend(CHI)
        tau = StabilityData(
            lambda cls: SlopeValue.of(1),
            fr=lambda cls: cls[0] + cls[1],
        )
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        out = pair_invariant_rhs((1, 0), None, tau, table, qt)
        assert out == q(1) * L.gen("v10")


class TestInvertSemistable:
    def rank_stability(self):
        return StabilityData(
            lambda cls: SlopeValue.of(1), rank=lambda cls: cls[0] + cls[1]
        )

    def test_single_class(self):
        qt = QuantumTorusBackend(CHI)
        tau = self.rank_stability()
        pair = InvariantTable({(1, 0): q(2) * L.gen("p")}, monoid=MONOID)
        out = invert_semistable(pair, {(1, 0): 2}, tau, qt)
        assert out.value((1, 0)) == L.gen("p")

    def test_round_trip_randomized(self):
        rng = random.Random(9)
        mon = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        chi = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
        qt = QuantumTorusBackend(chi)
        tau = StabilityData(
            lambda cls: SlopeValue.of(1), rank=lambda cls: sum(cls)
        )
        for _ in range(3):
            support = mon.effective_upto(2)
            table = InvariantTable(
                {
                    cls: L.const(rng.randint(1, 5))
                    * L.monomial(1, {"k": F(rng.randint(-2, 2))})
                    + L.const(rng.randint(0, 3))
                    for cls in support
                },
                monoid=mon,
            )
            fr = {cls: rng.randint(1, 3) for cls in support}
            pairs = InvariantTable(
                {
                    cls: pair_invariant_rhs(cls, fr, tau, table, qt, monoid=mon)
                    for cls in support
                },
                monoid=mon,
            )
            recovered = invert_semistable(pairs, fr, tau, qt, monoid=mon)
            for cls in support:
                assert recovered.value(cls) == table.value(cls)

    def test_zero_quantum_integer(self):
        qt = QuantumTorusBackend(CHI)
        tau = self.rank_stability()
        pair = InvariantTable({(1, 0): L.gen("p")}, monoid=MONOID)
        with pytest.raises(ZeroQuantumInteger):
            invert_semistable(pair, {(1, 0): 0}, tau, qt)


class TestVwWcf:
    def test_no_wall_means_no_change(self):
        tau = linear_stability([1, 2], [1, 1])
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        for alpha in ((1, 1), (2, 1)):
            assert vw_wcf(alpha, tau, tau, table, CHI) == table.value(alpha)

    def test_missing_chi(self):
        tau = linear_stability([1, 2], [1, 1])
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        with pytest.raises(MissingChi):
            vw_wcf((1, 1), tau, tau, table, None)

    def test_o_mapping_without_target(self):
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        o = {(1, 0): 1, (0, 1): 1}
        with pytest.raises(ValueError, match=r"no o count for class \(1, 1\)"):
            vw_wcf((1, 1), tau, taup, table, CHI, o_table=o)
        o[(1, 1)] = 1
        assert vw_wcf((1, 1), tau, taup, table, CHI, o_table=o) == table.value((1, 1))
        assert vw_wcf(
            (1, 1), tau, taup, table, CHI, o_table=lambda cls: 1
        ) == table.value((1, 1))

    def test_matches_bracket_route(self):
        rng = random.Random(13)
        qt = QuantumTorusBackend(CHI)
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        for _ in range(3):
            tau = linear_stability(
                [rng.randint(-3, 3), rng.randint(-3, 3)], [1, 1]
            )
            taup = linear_stability(
                [rng.randint(-3, 3), rng.randint(-3, 3)], [1, 1]
            )
            for alpha in ((1, 1), (2, 1)):
                direct = vw_wcf(alpha, tau, taup, table, CHI)
                via_lie = wcf_rhs(alpha, tau, taup, table, qt)
                assert direct == via_lie.value

    def test_transitivity_across_two_walls(self):
        rng = random.Random(17)
        support = MONOID.effective_upto(3)
        table = symbol_table(support, monoid=MONOID)
        for _ in range(2):
            stabs = [
                linear_stability(
                    [rng.randint(-3, 3), rng.randint(-3, 3)], [1, 1]
                )
                for _ in range(3)
            ]
            crossed = InvariantTable(
                {
                    beta: vw_wcf(beta, stabs[0], stabs[1], table, CHI)
                    for beta in support
                },
                monoid=MONOID,
            )
            for alpha in ((1, 1), (2, 1), (1, 2)):
                composed = vw_wcf(alpha, stabs[1], stabs[2], crossed, CHI)
                direct = vw_wcf(alpha, stabs[0], stabs[2], table, CHI)
                assert composed == direct

    def test_superadditive_o_keeps_invariants(self):
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        support = MONOID.effective_upto(3)
        o = {cls: 1 for cls in support}
        table = InvariantTable(
            {cls: L.gen(f"v{cls[0]}{cls[1]}") for cls in support},
            o=o,
            monoid=MONOID,
        )
        for alpha in ((1, 1), (2, 1)):
            out = vw_wcf(alpha, tau, taup, table, CHI, o_table=table)
            assert out == table.value(alpha)

    def test_kappa_one_equals_unrefined(self):
        rng = random.Random(19)
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        for _ in range(3):
            tau = linear_stability(
                [rng.randint(-3, 3), rng.randint(-3, 3)], [1, 1]
            )
            taup = linear_stability(
                [rng.randint(-3, 3), rng.randint(-3, 3)], [1, 1]
            )
            refined = vw_wcf((2, 1), tau, taup, table, CHI)
            unrefined = vw_wcf(
                (2, 1), tau, taup, table, CHI, qint=unrefined_integer
            )
            assert specialize_kappa(refined) == unrefined


class TestSimpleTypeExponential:
    """The crossing for one distinguished rank-one class against rank-zero
    classes is conjugation by the exponential: the target-degree piece of
    exp(-ad of the rank-zero sum) applied to the rank-one entry."""

    @staticmethod
    def stability(t):
        return StabilityData(
            lambda cls: SlopeValue.of(0 if cls[0] >= 1 else t)
        )

    def test_exponential_formula(self):
        tau_minus = self.stability(-1)
        tau_plus = self.stability(1)
        qt = QuantumTorusBackend(CHI)
        support = [
            cls for cls in MONOID.effective_upto(5) if cls[0] in (0, 1)
        ]
        table = symbol_table(support, zero_missing=True, monoid=MONOID)
        b_classes = [cls for cls in support if cls[0] == 0]
        for degree in range(0, 4):
            alpha = (1, degree)
            got = wcf_rhs(alpha, tau_minus, tau_plus, table, qt)

            expected = L.zero()

            def rec(remaining, acc, count):
                nonlocal expected
                if not any(remaining):
                    expected = expected + F(
                        (-1) ** count, math.factorial(count)
                    ) * acc.value
                    return
                for b in b_classes:
                    rest = tuple(r - c for r, c in zip(remaining, b))
                    if rest[0] == 0 and rest[1] >= 0:
                        rec(rest, qt.bracket(qt.lift(b, table.value(b)), acc), count + 1)

            for a_degree in range(degree + 1):
                a_cls = (1, a_degree)
                rec(
                    (0, degree - a_degree),
                    qt.lift(a_cls, table.value(a_cls)),
                    0,
                )
            assert got.cls == alpha or got.cls is None
            got_value = L.zero() if got.cls is None else got.value
            assert got_value == expected
