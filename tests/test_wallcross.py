import functools
import math
import random
from fractions import Fraction

import pytest

from wallx.errors import (
    DecompositionOverflow,
    MissingChi,
    MissingFr,
    SeeSawFailure,
    UnsupportedClass,
    WallxError,
    ZeroQuantumInteger,
)
from wallx.freelie import LieContext, LieElement, UEAElement, expand_to_uea, left_nested
from wallx.kclasses import quantum_integer
from wallx.ring import LaurentElement, SlopeValue, laurent_sum, specialize_kappa
from wallx.ucoeff import (
    EffectiveMonoid,
    StabilityData,
    U_coeff,
    as_class,
    class_lookup,
    class_sum,
    linear_stability,
    pairing_form,
    utilde_lie_element,
    utilde_word_sum,
)
from wallx.wallcross import (
    FreeLieBackend,
    GradedValue,
    InvariantTable,
    QuantumTorusBackend,
    invert_semistable,
    pair_invariant_rhs,
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


# -- the splitting-sum oracle of vw_wcf ----------------------------------------


def reduced_filter(decompositions, o_table, o_alpha: int):
    """Keep the splittings whose o counts add up to the target count."""
    if isinstance(o_table, InvariantTable):
        lookup = o_table.o_of
    else:
        lookup = class_lookup(o_table, ValueError, "o count")
    return [
        parts
        for parts in decompositions
        if sum(lookup(p) for p in parts) == int(o_alpha)
    ]


@functools.lru_cache(maxsize=None)
def splittings(monoid, alpha, max_parts=8):
    """``monoid.decompositions``, kept: the oracle cases share monoids."""
    return tuple(monoid.decompositions(alpha, max_parts=max_parts))


def u_terms(alpha, tau, taup, monoid, max_parts=8):
    """Every ordered splitting of ``alpha`` with a nonzero U coefficient."""
    out = []
    for parts in splittings(monoid, alpha, max_parts):
        u = U_coeff(parts, tau, taup)
        if u:
            out.append((parts, u))
    return out


def splitting_sum(terms, table, chi, *, qint=None, keep=None):
    """Σ over the splittings of ``terms`` (from ``u_terms``) of
    Ũ(α⃗; τ, τ′)·Π_{i≥2}[χ(α₁+…+α_{i−1}, α_i)]·Π table(α_i), the sum
    ``vw_wcf`` expands; ``keep`` lists the splittings to sum over."""
    backend = QuantumTorusBackend(chi, qint=qint)
    chi, qint = backend.chi, backend.qint
    acc = L.zero()
    for parts, u in terms:
        if keep is not None and parts not in keep:
            continue
        term = L.const(u / len(parts))
        partial = (0,) * len(parts[0])
        for i, cls in enumerate(parts):
            if i > 0:
                term = term * qint(chi(partial, cls))
            value = table.value(cls)
            if value is None:
                term = L.zero()
                break
            term = term * value
            partial = class_sum([partial, cls])
        acc = acc + term
    return acc


def reduced_splittings(terms, o_table, o_alpha):
    """The splittings of ``terms`` whose o counts add up to ``o_alpha``."""
    return set(reduced_filter([parts for parts, _ in terms], o_table, o_alpha))


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


def pair_sum_oracle(alpha, tau, table, chi, fr, *, monoid=MONOID, qint=quantum_integer):
    """Direct expansion of the framed pair sum over the equal-slope ordered
    splittings of ``alpha``:

        Σ (1/n!)·Π_i [fr(α_i) + χ(α_i, α_1+…+α_{i−1})]·table(α_i)

    with ``chi`` a matrix and ``fr`` a class-keyed mapping or a callable."""
    chi = pairing_form(chi)
    fr = class_lookup(fr, MissingFr, "fr value")
    qint = functools.lru_cache(maxsize=None)(qint)
    terms = []
    slope = tau.slope_of(alpha)
    for parts in splittings(monoid, as_class(alpha)):
        if any(tau.slope_of(p) != slope for p in parts):
            continue
        weight = values = L.const(1)
        partial = (0,) * len(alpha)
        for cls in parts:
            value = table.value(cls)
            if value is None:
                break
            weight = weight * qint(fr(cls) + chi(cls, partial))
            values = values * value
            partial = class_sum([partial, cls])
        else:
            terms.append(F(1, math.factorial(len(parts))) * (weight * values))
    return laurent_sum(terms)


class TestPairInvariant:
    TAU = linear_stability([1, 1], [1, 1])
    FR = {(1, 0): 1, (0, 1): 3, (1, 1): 2, (2, 0): 4, (0, 2): 5, (2, 1): 1, (1, 2): 2}

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
            assert got == pair_sum_oracle(alpha, self.TAU, table, CHI, self.FR)

    def test_missing_fr(self):
        qt = QuantumTorusBackend(CHI)
        table = symbol_table([(1, 1), (1, 0), (0, 1)], monoid=MONOID)
        with pytest.raises(MissingFr):
            pair_invariant_rhs((1, 1), {(1, 1): 1}, self.TAU, table, qt)

    def test_fr_only_from_argument(self):
        qt = QuantumTorusBackend(CHI)
        tau = StabilityData(lambda cls: SlopeValue.of(1))
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        out = pair_invariant_rhs((1, 0), lambda cls: cls[0] + cls[1], tau, table, qt)
        assert out == q(1) * L.gen("v10")
        with pytest.raises(MissingFr, match="no fr values supplied"):
            pair_invariant_rhs((1, 0), None, tau, table, qt)
        pair = InvariantTable({(1, 0): L.gen("p")}, monoid=MONOID)
        with pytest.raises(MissingFr, match="no fr values supplied"):
            invert_semistable(pair, None, tau, qt)


class TestInvertSemistable:
    def flat_stability(self):
        return StabilityData(lambda cls: SlopeValue.of(1))

    def test_single_class(self):
        qt = QuantumTorusBackend(CHI)
        tau = self.flat_stability()
        pair = InvariantTable({(1, 0): q(2) * L.gen("p")}, monoid=MONOID)
        out = invert_semistable(pair, {(1, 0): 2}, tau, qt)
        assert out.value((1, 0)) == L.gen("p")

    def test_round_trip_randomized(self):
        rng = random.Random(9)
        mon = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        chi = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
        qt = QuantumTorusBackend(chi)
        tau = self.flat_stability()
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
        tau = self.flat_stability()
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


TWO = EffectiveMonoid([(1, 0), (0, 1)])
THREE = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
NON_FREE = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
CHI3 = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
ORACLE_MASS = 6


def tied_table(monoid, a, b, step, mass=ORACLE_MASS):
    """A slope table with ties: (a·γ)/(b·γ) rounded down to a multiple of
    ``step`` on every class up to ``mass``.  Rounding down is weakly
    increasing, so the weak see-saw of the linear slope survives it."""
    out = {}
    for cls in monoid.effective_upto(mass):
        ratio = F(
            sum(x * c for x, c in zip(a, cls)), sum(x * c for x, c in zip(b, cls))
        )
        out[cls] = SlopeValue.of(math.floor(ratio / step) * step)
    return StabilityData(out)


def crossing_table(monoid, mass, seed):
    """Symbol entries on every class up to ``mass`` with seeded o counts.
    Two entries use the names ``kappa`` and ``o``, the first names the
    unrefined and reduced routes try for their private variables."""
    rng = random.Random(seed)
    classes = monoid.effective_upto(mass)
    entries = {cls: L.gen("v" + "_".join(map(str, cls))) for cls in classes}
    entries[classes[0]] = L.gen("kappa") * L.gen("o")
    entries[classes[1]] = L.gen("k") + 2
    return InvariantTable(
        entries, o={cls: rng.randint(0, 2) for cls in classes}, monoid=monoid
    )


ORACLE_CASES = {
    "two-generators": (
        [TWO],
        CHI,
        [
            (linear_stability([1, 0], [1, 1]), linear_stability([0, 1], [1, 1])),
            (linear_stability([2, -1], [1, 3]), linear_stability([-1, 3], [2, 1])),
            (linear_stability([1, 0], [0, 1]), linear_stability([-1, 2], [1, 1])),
        ],
    ),
    # The two monoids have the same effective classes, hence the same
    # splittings, so one oracle sum serves both.
    "three-generators-and-non-free": (
        [THREE, NON_FREE],
        CHI3,
        [
            (
                linear_stability([1, 0, 2], [1, 1, 1]),
                linear_stability([0, 1, 1], [1, 1, 1]),
            ),
            (
                linear_stability([2, -1, 0], [1, 2, 1]),
                linear_stability([-1, 1, 3], [2, 1, 1]),
            ),
            (
                linear_stability([0, 3, 1], [1, 1, 2]),
                linear_stability([1, -2, 2], [1, 1, 1]),
            ),
        ],
    ),
    "tied-table": (
        [TWO],
        CHI,
        [
            (
                tied_table(TWO, [1, 0], [1, 1], F(1, 2)),
                tied_table(TWO, [0, 1], [1, 1], F(1, 3)),
            ),
            (
                tied_table(TWO, [3, -1], [1, 1], 1),
                tied_table(TWO, [-1, 2], [1, 2], F(1, 2)),
            ),
            (
                tied_table(TWO, [1, 0], [1, 1], F(1, 3)),
                linear_stability([0, 1], [1, 1]),
            ),
        ],
    ),
}


def test_non_free_monoid_has_the_free_cone():
    assert NON_FREE.effective_upto(ORACLE_MASS) == THREE.effective_upto(ORACLE_MASS)
    assert NON_FREE.longest_splitting((1, 1, 0)) == 2


@pytest.mark.parametrize(
    "name, pair",
    [(name, i) for name in ORACLE_CASES for i in range(3)],
    ids=lambda v: str(v),
)
def test_vw_wcf_equals_splitting_sum_up_to_mass_six(name, pair):
    # The same U terms also check the Lie element of the free backend.
    monoids, chi, pairs = ORACLE_CASES[name]
    tau, taup = pairs[pair]
    tables = [crossing_table(monoid, ORACLE_MASS, seed=pair) for monoid in monoids]
    ctx = LieContext(monoids[0].effective_upto(ORACLE_MASS))
    for alpha in monoids[0].effective_upto(ORACLE_MASS):
        terms = u_terms(alpha, tau, taup, monoids[0])
        words = UEAElement(ctx, dict(terms))
        for monoid in monoids:
            element = utilde_lie_element(alpha, tau, taup, monoid, context=ctx)
            assert expand_to_uea(element) == words
        keep = reduced_splittings(terms, tables[0], tables[0].o_of(alpha))
        expected = [
            splitting_sum(terms, tables[0], chi),
            splitting_sum(terms, tables[0], chi, keep=keep),
            splitting_sum(terms, tables[0], chi, qint=unrefined_integer),
        ]
        for table in tables:
            assert [
                vw_wcf(alpha, tau, taup, table, chi),
                vw_wcf(alpha, tau, taup, table, chi, o_table=table),
                vw_wcf(alpha, tau, taup, table, chi, qint=unrefined_integer),
            ] == expected


def test_vw_wcf_equals_splitting_sum_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monoids = {2: [TWO], 3: [THREE, NON_FREE]}

    @st.composite
    def cases(draw):
        dim = draw(st.sampled_from([2, 3]))
        monoid = draw(st.sampled_from(monoids[dim]))
        entries = st.integers(-3, 3)
        den = st.integers(1, 3)
        stabs = []
        for _ in range(2):
            a = draw(st.lists(entries, min_size=dim, max_size=dim))
            b = draw(st.lists(den, min_size=dim, max_size=dim))
            step = draw(st.sampled_from([None, F(1, 2), F(1), F(2)]))
            if step is None:
                stabs.append(linear_stability(a, b))
            else:
                stabs.append(tied_table(monoid, a, b, step, mass=4))
        upper = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        chi = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                chi[i][j], chi[j][i] = upper[i + j - 1], -upper[i + j - 1]
        alpha = draw(st.sampled_from(monoid.effective_upto(4 if dim == 2 else 3)))
        seed = draw(st.integers(0, 1000))
        return monoid, stabs, chi, alpha, seed

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        monoid, (tau, taup), chi, alpha, seed = case
        table = crossing_table(monoid, 4, seed)
        terms = u_terms(alpha, tau, taup, monoid)
        o_alpha = random.Random(seed).randint(0, 3)
        keep = reduced_splittings(terms, table, o_alpha)
        assert vw_wcf(alpha, tau, taup, table, chi) == splitting_sum(terms, table, chi)
        assert vw_wcf(
            alpha, tau, taup, table, chi, o_table=table, o_alpha=o_alpha
        ) == splitting_sum(terms, table, chi, keep=keep)
        assert vw_wcf(
            alpha, tau, taup, table, chi, qint=unrefined_integer
        ) == splitting_sum(terms, table, chi, qint=unrefined_integer)
        ctx = LieContext(monoid.effective_upto(4))
        element = utilde_lie_element(alpha, tau, taup, monoid, context=ctx)
        assert expand_to_uea(element) == UEAElement(ctx, dict(terms))

    check()


class TestVwWcfContract:
    TAU = linear_stability([1, 0], [1, 1])
    TAUP = linear_stability([0, 1], [1, 1])

    @staticmethod
    def broken_at_11():
        """A linear slope except at (1, 1), which lies above both parts."""
        linear = linear_stability([1, 0], [1, 1])
        return StabilityData(
            lambda cls: SlopeValue.of(5) if cls == (1, 1) else linear.slope_of(cls)
        )

    @staticmethod
    def free_routes(table, monoid=MONOID):
        """The free backend's entry points, called like ``vw_wcf``."""
        ctx = LieContext(monoid.effective_upto(4))
        letters = InvariantTable(
            {cls: LieElement.letter(ctx, cls) for cls in ctx.letters}, monoid=monoid
        )
        return [
            lambda alpha, tau, taup, **kw: utilde_lie_element(
                alpha, tau, taup, monoid, context=ctx, **kw
            ),
            lambda alpha, tau, taup, **kw: wcf_rhs(
                alpha, tau, taup, letters, FreeLieBackend(ctx), **kw
            ),
            lambda alpha, tau, taup, **kw: wcf_rhs(
                alpha, tau, taup, table, QuantumTorusBackend(CHI), monoid=monoid, **kw
            ),
        ]

    def test_refuses_a_see_saw_failure_before_any_product(self):
        bad = self.broken_at_11()
        # No table entry at all: the refusal comes before any entry is read.
        empty = InvariantTable({}, monoid=MONOID)
        routes = [lambda *args: vw_wcf(*args, empty, CHI)] + self.free_routes(empty)
        for target in ((1, 1), (2, 1), (1, 2)):
            for pair in ((bad, self.TAUP), (self.TAU, bad)):
                # Twice each: the kept see-saw verdict refuses again.
                for route in routes + routes:
                    with pytest.raises(SeeSawFailure, match=r"\(1, 1\)") as info:
                        route(target, *pair)
                    assert isinstance(info.value, WallxError)
        # Classes not above (1, 1) are unaffected.
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        assert vw_wcf((2, 0), bad, self.TAUP, table, CHI) == table.value((2, 0))

    def test_max_parts_overflows_where_the_splittings_do(self):
        cases = [
            (MONOID, CHI, self.TAU, self.TAUP),
            (
                NON_FREE,
                CHI3,
                linear_stability([1, 0, 2], [1, 1, 1]),
                linear_stability([0, 1, 1], [1, 1, 1]),
            ),
        ]
        for monoid, chi, tau, taup in cases:
            table = symbol_table(monoid.effective_upto(4), monoid=monoid)
            routes = [
                lambda *args, **kw: vw_wcf(*args, table, chi, **kw)
            ] + self.free_routes(table, monoid)[:2]
            for alpha in monoid.effective_upto(4):
                for max_parts in range(1, 5):
                    try:
                        monoid.decompositions(alpha, max_parts=max_parts)
                    except DecompositionOverflow:
                        for route in routes:
                            with pytest.raises(DecompositionOverflow, match="parts"):
                                route(alpha, tau, taup, max_parts=max_parts)
                    else:
                        for route in routes:
                            route(alpha, tau, taup, max_parts=max_parts)

    def test_refuses_other_quantum_integers(self):
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        for qint in (quantum_integer, lambda n: L.const(n)):
            with pytest.raises(ValueError, match="qint"):
                vw_wcf((1, 1), self.TAU, self.TAUP, table, CHI, qint=qint)

    def test_every_class_below_the_target_needs_an_entry(self):
        # With one stability on both sides only the target's own entry
        # enters the answer, but every class below it is still read.
        table = symbol_table([(2, 1)], monoid=MONOID)
        with pytest.raises(UnsupportedClass):
            vw_wcf((2, 1), self.TAU, self.TAU, table, CHI)
        sparse = symbol_table([(2, 1)], zero_missing=True, monoid=MONOID)
        assert vw_wcf((2, 1), self.TAU, self.TAU, sparse, CHI) == sparse.value((2, 1))

    def test_zero_missing_entries_drop_their_splittings(self):
        full = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        kept = [(1, 0), (0, 1), (2, 1), (1, 1)]
        sparse = InvariantTable(
            {cls: full.value(cls) for cls in kept}, zero_missing=True, monoid=MONOID
        )
        for alpha in ((1, 1), (2, 1), (1, 2)):
            terms = u_terms(alpha, self.TAU, self.TAUP, MONOID)
            assert vw_wcf(alpha, self.TAU, self.TAUP, sparse, CHI) == splitting_sum(
                terms, sparse, chi=CHI
            )

    def test_a_class_outside_the_cone_gives_zero(self):
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        assert vw_wcf((1, -1), self.TAU, self.TAUP, table, CHI) == L.zero()
        element, letters, value = [
            route((1, -1), self.TAU, self.TAUP) for route in self.free_routes(table)
        ]
        assert element.is_zero() and letters.is_zero()
        assert value == QuantumTorusBackend(CHI).zero()


# -- framed pair sums against their splitting sum --------------------------------

PAIR_GRID = {
    "two-generators": ([TWO], CHI, 6),
    "three-generators": ([THREE, NON_FREE], CHI3, 4),
}


def pair_stability(kind, dim, mass):
    """Constant, linear, or linear rounded down to halves (ties across
    directions); with the constant slope every splitting has equal slopes."""
    if kind == "constant":
        return StabilityData(lambda cls: SlopeValue.of(1))
    a, b = [1] + [0] * (dim - 1), [1] * dim
    if kind == "linear":
        return linear_stability(a, b)
    return tied_table(TWO if dim == 2 else THREE, a, b, F(1, 2), mass=mass)


def pair_fr(cls):
    return 1 + cls[0] + 2 * cls[-1]


@pytest.mark.parametrize("grid", list(PAIR_GRID))
@pytest.mark.parametrize("kind", ["constant", "linear", "tied"])
@pytest.mark.parametrize("qint", [None, unrefined_integer], ids=["refined", "unrefined"])
def test_pair_sum_equals_splitting_sum_and_inverts(grid, kind, qint):
    # Both three-generator monoids have the same classes and splittings, so
    # one oracle sum serves both.
    monoids, chi, mass = PAIR_GRID[grid]
    tau = pair_stability(kind, len(chi), mass)
    expected = {}
    for monoid in monoids:
        table = crossing_table(monoid, mass, seed=len(chi))
        qt = QuantumTorusBackend(chi, qint=qint)
        pairs = {}
        for alpha in monoid.effective_upto(mass):
            if alpha not in expected:
                expected[alpha] = pair_sum_oracle(
                    alpha, tau, table, chi, pair_fr,
                    monoid=monoid, qint=qint or quantum_integer,
                )
            got = pairs[alpha] = pair_invariant_rhs(alpha, pair_fr, tau, table, qt)
            assert got == expected[alpha] and repr(got) == repr(expected[alpha])
        pair_table = InvariantTable(pairs, monoid=monoid)
        recovered = invert_semistable(pair_table, pair_fr, tau, qt)
        assert recovered.entries == table.entries


class TestPairInvariantContract:
    FLAT = StabilityData(lambda cls: SlopeValue.of(1))

    def test_max_parts_overflows_where_the_splittings_do(self):
        for monoid, chi in ((MONOID, CHI), (NON_FREE, CHI3)):
            table = symbol_table(monoid.effective_upto(4), monoid=monoid)
            qt = QuantumTorusBackend(chi)
            for alpha in monoid.effective_upto(4):
                for max_parts in range(1, 5):
                    run = lambda: pair_invariant_rhs(
                        alpha, pair_fr, self.FLAT, table, qt, max_parts=max_parts
                    )
                    try:
                        monoid.decompositions(alpha, max_parts=max_parts)
                    except DecompositionOverflow:
                        with pytest.raises(DecompositionOverflow, match="parts"):
                            run()
                    else:
                        run()

    def test_a_class_outside_the_cone_gives_zero(self):
        # Neither the empty table nor the empty fr mapping is read.
        empty = InvariantTable({}, monoid=MONOID)
        qt = QuantumTorusBackend(CHI)
        assert pair_invariant_rhs((1, -1), {}, self.FLAT, empty, qt) == L.zero()

    def test_every_equal_slope_class_below_the_target_needs_an_entry(self):
        qt = QuantumTorusBackend(CHI)
        table = symbol_table([(2, 1)], monoid=MONOID)
        with pytest.raises(UnsupportedClass):
            pair_invariant_rhs((2, 1), pair_fr, self.FLAT, table, qt)
        sparse = symbol_table([(2, 1)], zero_missing=True, monoid=MONOID)
        own_term = q(pair_fr((2, 1))) * L.gen("v21")
        assert pair_invariant_rhs((2, 1), pair_fr, self.FLAT, sparse, qt) == own_term
        # No other class below (2, 1) has its linear slope, and none is read.
        linear = linear_stability([1, 0], [1, 1])
        assert pair_invariant_rhs((2, 1), pair_fr, linear, table, qt) == own_term


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
