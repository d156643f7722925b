import functools
import math
import random
import re
from fractions import Fraction

import pytest

from wallx import wallcross
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
from wallx.ring import (
    LaurentElement,
    SlopeValue,
    as_element,
    laurent_sum,
    specialize_kappa,
)
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


def symbol_table(classes, prefix="v", monoid=MONOID, **kwargs):
    return InvariantTable(
        {cls: L.gen(f"{prefix}{''.join(map(str, cls))}") for cls in classes},
        monoid=monoid,
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

    def test_the_monoid_is_required(self):
        with pytest.raises(TypeError):
            InvariantTable({(1, 0): L.gen("a")})
        with pytest.raises(TypeError, match="EffectiveMonoid"):
            InvariantTable({}, monoid=None)
        assert InvariantTable({}, monoid=MONOID).monoid is MONOID


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
    lookup = class_lookup(o_table)
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


def pairing(chi, a, b):
    """χ(a, b) = Σ a_i·χ_ij·b_j for the matrix ``chi``."""
    return sum(a[i] * chi[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))


def splitting_sum(terms, table, chi, *, qint=None, keep=None):
    """Σ over the splittings of ``terms`` (from ``u_terms``) of
    Ũ(α⃗; τ, τ′)·Π_{i≥2}[χ(α₁+…+α_{i−1}, α_i)]·Π table(α_i), the sum
    ``vw_wcf`` expands; ``keep`` lists the splittings to sum over."""
    chi, qint = pairing_form(chi), qint or quantum_integer
    acc = L.zero()
    for parts, u in terms:
        if keep is not None and parts not in keep:
            continue
        term = L.const(u / len(parts))
        partial = (0,) * len(parts[0])
        for i, cls in enumerate(parts):
            if i > 0:
                term = term * qint(pairing(chi, partial, cls))
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

    def test_missing_count(self):
        o = {(1, 1): 1}
        assert reduced_filter([((1, 1),)], o, 1) == [((1, 1),)]
        with pytest.raises(ValueError):
            reduced_filter(self.DECOMPS, o, 1)


def framing_degree(fr, cls):
    return sum(f * c for f, c in zip(fr, cls))


def pair_sum_oracle(alpha, tau, table, chi, fr, *, monoid=MONOID, qint=quantum_integer):
    """Direct expansion of the framed pair sum over the equal-slope ordered
    splittings of ``alpha``:

        Σ (1/n!)·Π_i [fr·α_i + χ(α_i, α_1+…+α_{i−1})]·table(α_i)

    with ``chi`` a matrix and ``fr`` a framing vector."""
    chi = pairing_form(chi)
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
            weight = weight * qint(framing_degree(fr, cls) + pairing(chi, cls, partial))
            values = values * value
            partial = class_sum([partial, cls])
        else:
            terms.append(F(1, math.factorial(len(parts))) * (weight * values))
    return laurent_sum(terms)


def pair_recurrence(alpha, fr, tau, table, chi, *, qint=quantum_integer):
    """The framed pair sum as the class-(α, 1) coefficient of exp(ad E)(∂),
    E the table's entries on the classes ≤ α of α's slope and ∂ the
    distinguished degree-zero slot, by the graded recurrence y_0 = ∂,
    y_k = [E, y_{k−1}]/k over the classes ≤ α; the bracket of E's class γ
    with the slot at class β is [χ(γ, β) + fr·γ]·table(γ)."""
    alpha = as_class(alpha)
    monoid = table.monoid
    chi = pairing_form(chi)
    if not monoid.contains(alpha):
        return L.zero()
    classes = monoid.below(alpha)
    slope = tau.slope_of(alpha)
    entries = []
    for cls in classes:
        value = table.value(cls) if tau.slope_of(cls) == slope else None
        if value is not None:
            entries.append((cls, framing_degree(fr, cls), as_element(value)))
    members = set(classes)
    # The layers hold k!·y_k, so no 1/k enters a product.
    layer = {(0,) * len(alpha): L.const(1)}
    found = []
    for k in range(1, sum(alpha) + 1):
        terms = {}
        for beta, y in layer.items():
            for gamma, fr_gamma, value in entries:
                cls = tuple(b + g for b, g in zip(beta, gamma))
                if cls in members:
                    weight = qint(pairing(chi, gamma, beta) + fr_gamma)
                    terms.setdefault(cls, []).append(weight * value * y)
        layer = {cls: laurent_sum(items) for cls, items in terms.items()}
        if alpha in layer:
            found.append(F(1, math.factorial(k)) * layer[alpha])
    return laurent_sum(found)


class TestPairInvariant:
    TAU = linear_stability([1, 1], [1, 1])
    FR = (1, 3)

    def test_single_class_term(self):
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        out = pair_invariant_rhs((1, 0), self.FR, self.TAU, table, CHI)
        assert out == q(1) * L.gen("v10")

    def test_matches_brute_force_up_to_three_parts(self):
        table = symbol_table(MONOID.effective_upto(3), monoid=MONOID)
        for alpha in ((1, 1), (2, 1), (1, 2)):
            got = pair_invariant_rhs(alpha, self.FR, self.TAU, table, CHI)
            assert got == pair_sum_oracle(alpha, self.TAU, table, CHI, self.FR)

    def test_missing_fr(self):
        # Also for a target outside the cone, where nothing else is read.
        empty = InvariantTable({}, monoid=MONOID)
        with pytest.raises(MissingFr, match="no fr values supplied"):
            pair_invariant_rhs((1, -1), None, self.TAU, empty, CHI)
        with pytest.raises(MissingFr, match="no fr values supplied"):
            invert_semistable(empty, None, self.TAU, CHI)

    def test_fr_values_follow_the_integer_rule(self):
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        pair = InvariantTable({(1, 0): L.gen("p")}, monoid=MONOID)
        # A float, a string or a bool entry, a wrong length, and a
        # class-keyed mapping (whose keys are read as entries) are refused.
        for fr in ((1.5, 3), (1, "3"), (True, 3), (1,), (1, 3, 0), {(1, 0): 1}):
            with pytest.raises(ValueError):
                pair_invariant_rhs((1, 0), fr, self.TAU, table, CHI)
            with pytest.raises(ValueError):
                invert_semistable(pair, fr, self.TAU, CHI)
        with pytest.raises(TypeError):
            pair_invariant_rhs((1, 0), lambda cls: cls[0], self.TAU, table, CHI)
        for fr in ([1, 3], (F(1), 3), iter((1, 3))):
            got = pair_invariant_rhs((1, 0), fr, self.TAU, table, CHI)
            assert got == q(1) * L.gen("v10")

    def test_fr_only_from_argument(self):
        tau = StabilityData(lambda cls: SlopeValue.of(1))
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        out = pair_invariant_rhs((1, 0), (1, 1), tau, table, CHI)
        assert out == q(1) * L.gen("v10")
        with pytest.raises(MissingFr, match="no fr values supplied"):
            pair_invariant_rhs((1, 0), None, tau, table, CHI)
        pair = InvariantTable({(1, 0): L.gen("p")}, monoid=MONOID)
        with pytest.raises(MissingFr, match="no fr values supplied"):
            invert_semistable(pair, None, tau, CHI)

    def test_chi_and_qint_are_read_as_by_vw_wcf(self):
        table = symbol_table([(1, 0)], zero_missing=True, monoid=MONOID)
        with pytest.raises(MissingChi):
            pair_invariant_rhs((1, 0), self.FR, self.TAU, table, None)
        with pytest.raises(ValueError, match="antisymmetric"):
            pair_invariant_rhs((1, 0), self.FR, self.TAU, table, [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="qint"):
            pair_invariant_rhs((1, 0), self.FR, self.TAU, table, CHI, qint=q)
        plain = pair_invariant_rhs(
            (1, 0), (2, 3), self.TAU, table, CHI, qint=unrefined_integer
        )
        assert plain == -2 * L.gen("v10")


class TestInvertSemistable:
    def flat_stability(self):
        return StabilityData(lambda cls: SlopeValue.of(1))

    def test_single_class(self):
        tau = self.flat_stability()
        pair = InvariantTable({(1, 0): q(2) * L.gen("p")}, monoid=MONOID)
        out = invert_semistable(pair, (2, 5), tau, CHI)
        assert out.value((1, 0)) == L.gen("p")

    def test_round_trip_randomized(self):
        rng = random.Random(9)
        mon = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        chi = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
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
            fr = tuple(rng.randint(1, 3) for _ in range(3))
            pairs = InvariantTable(
                {
                    cls: pair_invariant_rhs(cls, fr, tau, table, chi)
                    for cls in support
                },
                monoid=mon,
            )
            recovered = invert_semistable(pairs, fr, tau, chi)
            for cls in support:
                assert recovered.value(cls) == table.value(cls)

    def test_zero_quantum_integer(self):
        tau = self.flat_stability()
        pair = InvariantTable({(1, 0): L.gen("p")}, monoid=MONOID)
        with pytest.raises(ZeroQuantumInteger):
            invert_semistable(pair, (0, 1), tau, CHI)

    def test_bad_input_is_refused_before_any_pair_sum(self, monkeypatch):
        def no_pair_sum(*args, **kwargs):
            raise AssertionError("a pair sum was formed")

        monkeypatch.setattr(wallcross, "pair_invariant_rhs", no_pair_sum)
        tau = self.flat_stability()
        pair = symbol_table(MONOID.effective_upto(3))
        # Without (0, 1) and (0, 2), (0, 3) is the first class with b = 0.
        sparse = symbol_table(
            [cls for cls in MONOID.effective_upto(3) if cls not in ((0, 1), (0, 2))]
        )
        # The classes are checked in increasing mass, each for a nonzero
        # fr·α and then max_parts; the first refusal wins.
        cases = [
            (pair, (1, -2), 8, ZeroQuantumInteger, r"fr\(\(2, 1\)\) = 0"),
            (pair, (1, 1), 2, DecompositionOverflow, r"\(0, 3\) needs more than 2 parts"),
            (pair, (1, -1), 2, ZeroQuantumInteger, r"\(1, 1\)"),
            (pair, (1, -2), 2, DecompositionOverflow, r"\(0, 3\)"),
            (sparse, (1, 0), 2, ZeroQuantumInteger, r"\(0, 3\)"),
            (sparse, (1, 0), 8, ZeroQuantumInteger, r"\(0, 3\)"),
            (pair, (1, 0), 8, ZeroQuantumInteger, r"\(0, 1\)"),
        ]
        for table, fr, max_parts, error, message in cases:
            with pytest.raises(error, match=message):
                invert_semistable(table, fr, tau, CHI, max_parts=max_parts)


# Two generators, crossed from slope x/(x+y) to y/(x+y).
BEFORE = StabilityData(lambda c: (F(c[0], c[0] + c[1]),), name="before")
AFTER = StabilityData(lambda c: (F(c[1], c[0] + c[1]),), name="after")


def one_object_each(top):
    """ε(k,0) = ε(0,k) = 1/k² for k ≤ ``top``: one stable object on each
    generator, as rational invariants, and no other entry."""
    return InvariantTable(
        {cls: L.const(F(1, k * k)) for k in range(1, top + 1) for cls in ((k, 0), (0, k))},
        monoid=MONOID,
        zero_missing=True,
    )


def omega_from_epsilon(classes, epsilon):
    """Ω′ on ``classes``, read from ε′(γ) = Σ_{k|γ} Ω′(γ/k)/k² with ε′ the
    constant ``epsilon(γ)``; every divisor of a class must be among them."""
    omega = {}
    for cls in sorted(classes, key=sum):
        g = math.gcd(*cls)
        multiples = sum(
            (
                omega[tuple(c // k for c in cls)] / (k * k)
                for k in range(2, g + 1)
                if g % k == 0
            ),
            F(0),
        )
        omega[cls] = epsilon(cls).as_fraction() - multiples
    return omega


def multicover_table(monoid, omega, mass):
    """ε(γ) = Σ_{k|γ} Ω(γ/k)/k² on every class of mass ≤ ``mass``, from
    integers Ω on a few classes; zero elsewhere."""
    entries = {}
    for cls, value in omega.items():
        for k in range(1, mass // sum(cls) + 1):
            multiple = tuple(k * c for c in cls)
            entries[multiple] = entries.get(multiple, 0) + F(value, k * k)
    return InvariantTable(entries, zero_missing=True, monoid=monoid)


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
        # Without the counts the splitting (1,0) + (0,1) is summed too.
        chi = [[0, 1], [-1, 0]]
        assert str(vw_wcf((1, 1), tau, taup, table, chi)) == "v01*v10 + v11"

    def test_negative_o_counts_are_refused(self):
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        counts = {(1, 0): 1, (0, 1): 0, (1, 1): 1}
        for cls in ((1, 1), (0, 1)):
            bad = dict(counts)
            bad[cls] = -1
            for o_table in (bad, bad.__getitem__):
                with pytest.raises(ValueError, match="o counts must be nonnegative"):
                    vw_wcf((1, 1), tau, taup, table, CHI, o_table=o_table)
        got = vw_wcf((1, 1), tau, taup, table, CHI, o_table=counts)
        assert got == vw_wcf((1, 1), tau, taup, table, CHI)

    def test_o_counts_follow_the_integer_rule(self):
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        fractional = {(1, 0): 0.6, (0, 1): 0.6, (1, 1): 1.2}
        for o_table in (fractional, fractional.__getitem__):
            with pytest.raises(ValueError, match="expected an integer"):
                vw_wcf((1, 1), tau, taup, table, CHI, o_table=o_table)
        counts = {(1, 0): 1, (0, 1): 0, (1, 1): 1}
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="expected an integer"):
                vw_wcf((1, 1), tau, taup, table, CHI, o_table={**counts, (1, 1): bad})
        assert vw_wcf(
            (1, 1), tau, taup, table, CHI, o_table={**counts, (1, 1): F(1)}
        ) == vw_wcf((1, 1), tau, taup, table, CHI, o_table=counts)

    @pytest.mark.parametrize("bad", [0.1, "2"])
    def test_a_table_entry_that_is_not_an_int_or_a_fraction_is_refused(self, bad):
        # A float entry would be read as its binary fraction and a string
        # entry as its parse; the table refuses both when it is built, also
        # at (3, 2), a class that no sum at (1, 1) reads.
        for cls in [(1, 1), (3, 2)]:
            with pytest.raises(TypeError):
                InvariantTable({(1, 0): 1, (0, 1): F(1, 2), cls: bad}, monoid=MONOID)
        tau = linear_stability([1, 0], [1, 1])
        taup = linear_stability([0, 1], [1, 1])
        good = InvariantTable({(1, 0): 1, (0, 1): F(1, 2), (1, 1): F(4, 2)}, monoid=MONOID)
        assert type(good.value((1, 1))) is int
        assert vw_wcf((1, 1), tau, taup, good, CHI) == wcf_rhs(
            (1, 1), tau, taup, good, QuantumTorusBackend(CHI)
        ).value

    @pytest.mark.parametrize(
        "m, expected",
        [
            (1, {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
            (
                2,
                {(1, 0): 1, (0, 1): 1, (1, 1): -2, (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1},
            ),
            (
                3,
                {
                    (1, 0): 1, (0, 1): 1, (1, 1): 3, (2, 2): -6, (3, 3): 18,
                    (1, 2): 3, (2, 1): 3, (1, 3): 1, (3, 1): 1,
                    (2, 3): 13, (3, 2): 13, (2, 4): -6, (4, 2): -6,
                },
            ),
        ],
        ids=["pentagon", "kronecker", "m3"],
    )
    def test_two_generator_quivers_match_the_known_invariants(self, m, expected):
        """An outside check: two generators with ε(k,0) = ε(0,k) = 1/k² (one
        stable object each, as rational invariants) and χ = [[0,m],[-m,0]],
        crossed from slope x/(x+y) to y/(x+y), give the m-Kronecker quiver's
        numerical DT invariants Ω′ on every class of mass ≤ 6, read from
        ε′(γ) = Σ_{k|γ} Ω′(γ/k)/k²: the pentagon identity at m = 1, the
        Kronecker values at m = 2, and the known m = 3 values."""
        table = one_object_each(6)
        chi = [[0, m], [-m, 0]]
        classes = [(a, b) for a in range(7) for b in range(7) if 0 < a + b <= 6]
        backend = QuantumTorusBackend(chi, qint=unrefined_integer)
        routes = {
            "vw_wcf": lambda cls: vw_wcf(
                cls, BEFORE, AFTER, table, chi, qint=unrefined_integer
            ),
            "wcf_rhs": lambda cls: wcf_rhs(cls, BEFORE, AFTER, table, backend).value,
        }
        for name, route in routes.items():
            omega = omega_from_epsilon(classes, route)
            assert {cls: v for cls, v in omega.items() if v} == expected, name

    def test_three_kronecker_diagonal_is_the_ray_function(self):
        """The m = 3 diagonal: Ω′(k,k) for k ≤ 5 is 3, −6, 18, −84, 465, and
        Π_k (1 − (−z)^k)^(3k·Ω′(k,k)) equals (Σ_k C(4k,k)/(3k+1)·z^k)⁹ through
        z⁵, Gross–Pandharipande's ray function for ℓ₁ = ℓ₂ = 3 (arXiv
        0909.5153)."""
        top = 5
        table = one_object_each(2 * top)
        chi = [[0, 3], [-3, 0]]
        omega = omega_from_epsilon(
            [(k, k) for k in range(1, top + 1)],
            lambda cls: vw_wcf(
                cls, BEFORE, AFTER, table, chi, qint=unrefined_integer, max_parts=2 * top
            ),
        )
        assert [omega[k, k] for k in range(1, top + 1)] == [3, -6, 18, -84, 465]

        def times(f, g):
            out = [F(0)] * (top + 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g[: top + 1 - i]):
                    out[i + j] += x * y
            return out

        product = [F(1)] + [F(0)] * top
        for k in range(1, top + 1):
            # (1 − (−z)^k)^e = Σ_j C(e, j)·(−(−1)^k)^j·z^(kj), e of either sign.
            e, factor, c = 3 * k * omega[k, k], [F(0)] * (top + 1), F(1)
            for j in range(top // k + 1):
                factor[k * j] = c * (-((-1) ** k)) ** j
                c = c * (e - j) / (j + 1)
            product = times(product, factor)
        ray = [F(math.comb(4 * k, k), 3 * k + 1) for k in range(top + 1)]
        power = [F(1)] + [F(0)] * top
        for _ in range(9):
            power = times(power, ray)
        assert product == power

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
            monoid=MONOID,
        )
        for alpha in ((1, 1), (2, 1)):
            out = vw_wcf(alpha, tau, taup, table, CHI, o_table=o)
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


def test_integral_invariants_cross_to_integral_invariants_hypothesis():
    """Integrality across a wall: for χ = [[0, m], [−m, 0]] and integers
    Ω ∈ −3…3 on up to five classes of mass ≤ 4, the table
    ε(γ) = Σ_{k|γ} Ω(γ/k)/k² crossed from ``BEFORE`` to ``AFTER``
    unrefined gives ε′ whose Ω′, read back by Möbius inversion, is an
    integer on every class of mass ≤ 6."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    classes = MONOID.effective_upto(6)

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(
        st.integers(1, 4),
        st.dictionaries(
            st.sampled_from(MONOID.effective_upto(4)), st.integers(-3, 3), max_size=5
        ),
    )
    def check(m, omega):
        table = multicover_table(MONOID, omega, 6)
        chi = [[0, m], [-m, 0]]
        crossed = omega_from_epsilon(
            classes,
            lambda cls: vw_wcf(cls, BEFORE, AFTER, table, chi, qint=unrefined_integer),
        )
        assert all(value.denominator == 1 for value in crossed.values()), (m, omega)

    check()


TWO = EffectiveMonoid([(1, 0), (0, 1)])
THREE = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
NON_FREE = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
CHI3 = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
ORACLE_MASS = 6


def test_integral_invariants_cross_to_integral_invariants_on_three_generators_hypothesis():
    """Integrality across a wall on three generators: for an antisymmetric
    χ with entries in −2…2 and Ω ∈ ±1…±3 on up to four classes of mass
    ≤ 3, crossed unrefined between two generic stabilities, Ω′ is an
    integer on every class of mass ≤ 5.  A generic stability here is the
    pair (a·γ/b·γ, a′·γ/b·γ) compared lexicographically, one b ∈ 1…3 for
    both entries: each entry of β + δ is a weighted mean of those of β and
    δ, which keeps the weak see-saw property.  A plain linear slope on ℤ³
    puts classes that are not proportional on one slope, where χ need not
    vanish, and integrality is not claimed there."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    classes = THREE.effective_upto(5)
    vector = lambda low: st.tuples(*[st.integers(low, 3)] * 3)

    def lexicographic(a, a_prime, b):
        dot = lambda x, cls: sum(p * q for p, q in zip(x, cls))
        return StabilityData(lambda cls: (F(dot(a, cls), dot(b, cls)), F(dot(a_prime, cls), dot(b, cls))))

    stabilities = st.builds(lexicographic, vector(-3), vector(-3), vector(1))

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(
        st.tuples(*[st.integers(-2, 2)] * 3),
        st.dictionaries(
            st.sampled_from(THREE.effective_upto(3)),
            st.integers(1, 3).flatmap(lambda n: st.sampled_from((n, -n))),
            max_size=4,
        ),
        stabilities,
        stabilities,
    )
    def check(upper, omega, tau, tau_prime):
        x, y, w = upper
        chi = [[0, x, y], [-x, 0, w], [-y, -w, 0]]
        table = multicover_table(THREE, omega, 5)
        crossed = omega_from_epsilon(
            classes,
            lambda cls: vw_wcf(cls, tau, tau_prime, table, chi, qint=unrefined_integer),
        )
        assert all(value.denominator == 1 for value in crossed.values()), (chi, omega)

    check()


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


def crossing_table(monoid, mass):
    """Symbol entries on every class up to ``mass``.  Two entries use the
    names ``kappa`` and ``o``, the first names the unrefined and reduced
    routes try for their private variables."""
    classes = monoid.effective_upto(mass)
    entries = {cls: L.gen("v" + "_".join(map(str, cls))) for cls in classes}
    entries[classes[0]] = L.gen("kappa") * L.gen("o")
    entries[classes[1]] = L.gen("k") + 2
    return InvariantTable(entries, monoid=monoid)


def crossing_counts(monoid, mass, seed):
    """Seeded o counts in 0..2 on every class up to ``mass``."""
    rng = random.Random(seed)
    return {cls: rng.randint(0, 2) for cls in monoid.effective_upto(mass)}


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
    assert NON_FREE.longest_splitting((1, 1, 0), 2) == 2


@pytest.mark.parametrize(
    "name, pair",
    [(name, i) for name in ORACLE_CASES for i in range(3)],
    ids=lambda v: str(v),
)
def test_vw_wcf_equals_splitting_sum_up_to_mass_six(name, pair):
    # The same U terms also check the Lie element of the free backend.
    monoids, chi, pairs = ORACLE_CASES[name]
    tau, taup = pairs[pair]
    tables = [crossing_table(monoid, ORACLE_MASS) for monoid in monoids]
    o = crossing_counts(monoids[0], ORACLE_MASS, seed=pair)
    ctx = LieContext(monoids[0].effective_upto(ORACLE_MASS))
    for alpha in monoids[0].effective_upto(ORACLE_MASS):
        terms = u_terms(alpha, tau, taup, monoids[0])
        words = UEAElement(ctx, dict(terms))
        for monoid in monoids:
            element = utilde_lie_element(alpha, tau, taup, monoid, context=ctx)
            assert expand_to_uea(element) == words
        keep = reduced_splittings(terms, o, o[alpha])
        expected = [
            splitting_sum(terms, tables[0], chi),
            splitting_sum(terms, tables[0], chi, keep=keep),
            splitting_sum(terms, tables[0], chi, qint=unrefined_integer),
        ]
        for table in tables:
            assert [
                vw_wcf(alpha, tau, taup, table, chi),
                vw_wcf(alpha, tau, taup, table, chi, o_table=o),
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
        table = crossing_table(monoid, 4)
        # α's own count is drawn in 0..3 apart from the other classes'.
        o = {**crossing_counts(monoid, 4, seed), alpha: random.Random(seed).randint(0, 3)}
        terms = u_terms(alpha, tau, taup, monoid)
        keep = reduced_splittings(terms, o, o[alpha])
        assert vw_wcf(alpha, tau, taup, table, chi) == splitting_sum(terms, table, chi)
        assert vw_wcf(
            alpha, tau, taup, table, chi, o_table=o
        ) == splitting_sum(terms, table, chi, keep=keep)
        assert vw_wcf(
            alpha, tau, taup, table, chi, qint=unrefined_integer
        ) == splitting_sum(terms, table, chi, qint=unrefined_integer)
        ctx = LieContext(monoid.effective_upto(4))
        element = utilde_lie_element(alpha, tau, taup, monoid, context=ctx)
        assert expand_to_uea(element) == UEAElement(ctx, dict(terms))

    check()


# -- the packed peel of vw_wcf on wide entries and large χ ---------------------


# Symbols on both sides of "k" in name order; "kappa" and "o" are the
# names the unrefined and reduced routes try first for their variables.
PEEL_SYMBOLS = ["a", "b_1", "k", "kappa", "n0_2", "o", "z"]
BIG = 10**6
BIG_CHI = [[0, BIG + 1], [-BIG - 1, 0]]


def peel_table(monoid, mass, seed, *, zero_missing=False, big=False):
    """Seeded entries on the classes up to ``mass``: sums of one to three
    monomials in ``PEEL_SYMBOLS`` with half-integer exponents of either
    sign and int or Fraction coefficients.  With ``zero_missing`` about a
    third of the classes have no entry; with ``big`` every entry has a
    factor v^(±10^6) for a seeded symbol v."""
    rng = random.Random(seed)
    entries = {}
    for cls in monoid.effective_upto(mass):
        if zero_missing and rng.random() < 0.35:
            continue
        value = laurent_sum(
            L.monomial(
                F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 1, 2])),
                {v: F(rng.randint(-3, 3), 2) for v in rng.sample(PEEL_SYMBOLS, 2)},
            )
            for _ in range(rng.randint(1, 3))
        ) or L.gen("z")
        if big:
            value = value * L.monomial(1, {rng.choice(PEEL_SYMBOLS): rng.choice([-BIG, BIG])})
        entries[cls] = value
    return InvariantTable(entries, monoid=monoid, zero_missing=zero_missing)


def same_order_pair(a, b):
    """Two different stabilities with the same slope order on every class:
    the second slope is twice the first plus one, so no wall is crossed."""
    return linear_stability(a, b), linear_stability([2 * x + y for x, y in zip(a, b)], b)


def assert_packed_peel_matches(alpha, tau, taup, table, chi, o, own_count):
    """The packed peel equals the splitting sum plain, with the o counts
    ``o``, with α's own count set to ``own_count`` in them, and unrefined."""
    terms = u_terms(alpha, tau, taup, table.monoid)
    for qint, o_table in (
        (None, None),
        (None, o),
        (None, {**o, alpha: own_count}),
        (unrefined_integer, None),
        (unrefined_integer, o),
    ):
        got = vw_wcf(alpha, tau, taup, table, chi, qint=qint, o_table=o_table)
        keep = None if o_table is None else reduced_splittings(terms, o_table, o_table[alpha])
        expected = splitting_sum(terms, table, chi, qint=qint, keep=keep)
        assert got == expected
        assert str(got) == str(expected)


PEEL_CASES = {
    "two": (TWO, CHI, 4, ORACLE_CASES["two-generators"][2][:2]),
    "three": (THREE, CHI3, 3, ORACLE_CASES["three-generators-and-non-free"][2][:2]),
    # χ past 10^6 gives quantum integers of 10^6 terms wherever a wall is
    # crossed; with none crossed every product still carries the large
    # weights, and the answer is the entry.
    "big-chi": (
        TWO, BIG_CHI, 4, [same_order_pair([1, 0], [1, 1]), same_order_pair([2, -1], [1, 3])]
    ),
}


@pytest.mark.parametrize("name", PEEL_CASES)
@pytest.mark.parametrize("zero_missing", [False, True])
def test_packed_peel_equals_splitting_sum(name, zero_missing):
    monoid, chi, mass, pairs = PEEL_CASES[name]
    for seed, (tau, taup) in enumerate(pairs):
        table = peel_table(monoid, mass, seed, zero_missing=zero_missing, big=seed == 1)
        o = crossing_counts(monoid, mass, seed)
        for alpha in monoid.effective_upto(mass):
            assert_packed_peel_matches(alpha, tau, taup, table, chi, o, (seed + sum(alpha)) % 3)
            if name == "big-chi":
                value = table.value(alpha)
                expected = L.zero() if value is None else value
                assert vw_wcf(alpha, tau, taup, table, chi) == expected


def test_packed_peel_on_the_mass_one_classes():
    # No splitting and no division: the entry comes back, as in the oracle.
    tau, taup = ORACLE_CASES["two-generators"][2][0]
    table = peel_table(TWO, 1, seed=5)
    o = {(1, 0): 2, (0, 1): 0}
    for alpha in [(1, 0), (0, 1)]:
        assert vw_wcf(alpha, tau, taup, table, CHI) == table.value(alpha)
        assert_packed_peel_matches(alpha, tau, taup, table, CHI, o, 1)


def test_packed_peel_equals_splitting_sum_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        dim = draw(st.sampled_from([2, 3]))
        monoid = TWO if dim == 2 else THREE
        big_chi = draw(st.booleans())
        a = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        b = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        if big_chi:
            stabs = same_order_pair(a, b)
            entry = st.sampled_from([BIG, -BIG - 7, BIG + 2])
        else:
            a2 = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            b2 = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
            stabs = linear_stability(a, b), linear_stability(a2, b2)
            entry = st.integers(-3, 3)
        upper = draw(st.lists(entry, min_size=dim, max_size=dim))
        chi = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                chi[i][j], chi[j][i] = upper[i + j - 1], -upper[i + j - 1]
        mass = 4 if dim == 2 else 3
        alpha = draw(st.sampled_from(monoid.effective_upto(mass)))
        seed = draw(st.integers(0, 1000))
        flags = draw(st.tuples(st.booleans(), st.booleans()))
        return monoid, stabs, chi, alpha, mass, seed, flags

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        monoid, (tau, taup), chi, alpha, mass, seed, (zero_missing, big) = case
        table = peel_table(monoid, mass, seed, zero_missing=zero_missing, big=big)
        o = crossing_counts(monoid, mass, seed)
        assert_packed_peel_matches(alpha, tau, taup, table, chi, o, seed % 4)

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
                alpha, tau, taup, table, QuantumTorusBackend(CHI), **kw
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

    def test_a_class_far_from_zero_overflows(self):
        # (1200, 0) is 1,200 generator steps from zero; a fresh monoid has
        # no memo from another test to lean on.
        monoid = EffectiveMonoid([(1, 0), (0, 1)])
        table = InvariantTable({(1, 0): L.gen("a"), (0, 1): L.gen("b")}, monoid=monoid)
        for qint in (None, unrefined_integer):
            with pytest.raises(DecompositionOverflow, match=r"\(1200, 0\) needs more than 8"):
                vw_wcf((1200, 0), BEFORE, AFTER, table, CHI, qint=qint)

    def test_refuses_other_quantum_integers(self):
        table = symbol_table(MONOID.effective_upto(2), monoid=MONOID)
        for qint in (quantum_integer, lambda n: L.const(n)):
            with pytest.raises(ValueError, match="qint"):
                vw_wcf((1, 1), self.TAU, self.TAUP, table, CHI, qint=qint)

    def test_refuses_a_pairing_matrix_of_another_size_at_every_target(self):
        # An empty table: the refusal comes before any entry is read.
        empty = InvariantTable({}, monoid=MONOID)
        for chi in ([[0]], CHI3):
            for target in ((1, 0), (1, 1), (1, -1)):
                with pytest.raises(ValueError, match=r"must be 2x2, got"):
                    vw_wcf(target, self.TAU, self.TAUP, empty, chi)

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


def pair_fr(dim):
    """The framing vector γ ↦ mass(γ) + γ₀ + 2·γ_last, nonzero on the cone."""
    return (2,) + (1,) * (dim - 2) + (3,)


@pytest.mark.parametrize("grid", list(PAIR_GRID))
@pytest.mark.parametrize("kind", ["constant", "linear", "tied"])
@pytest.mark.parametrize("qint", [None, unrefined_integer], ids=["refined", "unrefined"])
def test_pair_sum_equals_splitting_sum_and_inverts(grid, kind, qint):
    # Both three-generator monoids have the same classes and splittings, so
    # one oracle sum serves both.
    monoids, chi, mass = PAIR_GRID[grid]
    tau = pair_stability(kind, len(chi), mass)
    fr = pair_fr(len(chi))
    expected = {}
    for monoid in monoids:
        table = crossing_table(monoid, mass)
        pairs = {}
        for alpha in monoid.effective_upto(mass):
            if alpha not in expected:
                expected[alpha] = pair_sum_oracle(
                    alpha, tau, table, chi, fr,
                    monoid=monoid, qint=qint or quantum_integer,
                )
            got = pairs[alpha] = pair_invariant_rhs(
                alpha, fr, tau, table, chi, qint=qint
            )
            assert got == expected[alpha] and repr(got) == repr(expected[alpha])
        pair_table = InvariantTable(pairs, monoid=monoid)
        recovered = invert_semistable(pair_table, fr, tau, chi, qint=qint)
        assert recovered.entries == table.entries


def test_pair_sum_equals_the_recurrence_hypothesis():
    """The framed peel equals the exp(ad E) recurrence on random antisymmetric
    χ, framing vectors, slopes and tables, and inverts wherever fr·γ ≠ 0."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        dim = draw(st.sampled_from([2, 3]))
        upper = {
            (i, j): draw(st.integers(-3, 3)) for i in range(dim) for j in range(i + 1, dim)
        }
        chi = [
            [upper.get((i, j), -upper.get((j, i), 0)) for j in range(dim)]
            for i in range(dim)
        ]
        fr = tuple(draw(st.integers(-2, 3)) for _ in range(dim))
        monoid = TWO if dim == 2 else draw(st.sampled_from([THREE, NON_FREE]))
        mass = 4 if dim == 2 else 3
        tau = pair_stability(draw(st.sampled_from(["constant", "linear", "tied"])), dim, mass)
        kind = draw(st.sampled_from(["symbol", "int", "fraction"]))
        entries = {}
        for cls in monoid.effective_upto(mass):
            if kind == "symbol":
                entries[cls] = L.gen("v" + "_".join(map(str, cls)))
            elif kind == "int":
                entries[cls] = draw(st.integers(-4, 4))
            else:
                entries[cls] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        table = InvariantTable(entries, monoid=monoid)
        qint = draw(st.sampled_from([None, unrefined_integer]))
        return chi, fr, monoid, mass, tau, table, qint

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        chi, fr, monoid, mass, tau, table, qint = case
        support = monoid.effective_upto(mass)
        pairs = {}
        for alpha in support:
            pairs[alpha] = got = pair_invariant_rhs(alpha, fr, tau, table, chi, qint=qint)
            want = pair_recurrence(alpha, fr, tau, table, chi, qint=qint or quantum_integer)
            assert got == want and repr(got) == repr(want)
        if all(framing_degree(fr, cls) for cls in support):
            recovered = invert_semistable(
                InvariantTable(pairs, monoid=monoid), fr, tau, chi, qint=qint
            )
            assert recovered.entries == {
                cls: as_element(v) for cls, v in table.entries.items()
            }

    check()


def m_loop_omega(m, d):
    """The m-loop quiver's numerical DT invariant Ω_d = d⁻²·Σ_{e|d}
    μ(d/e)·(−1)^((m−1)(d−e))·C(me−1, e−1) (Reineke, arXiv 1102.3978)."""

    def mobius(n):
        out, p = 1, 2
        while n > 1:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return out

    return F(
        sum(
            mobius(d // e) * (-1) ** ((m - 1) * (d - e)) * math.comb(m * e - 1, e - 1)
            for e in range(1, d + 1)
            if d % e == 0
        ),
        d * d,
    )


@pytest.mark.parametrize("m", range(1, 7))
def test_m_loop_quiver_pair_sums_are_fuss_catalan(m):
    """An outside check: on one generator with χ = 0 and fr = (1,), the
    unrefined framed pair sums of the m-loop quiver's rational invariants
    ε(d) = (−1)^(d−1)·Σ_{k|d} (−1)^((m−1)(d−d/k))·Ω(d/k)/k² are the
    Fuss–Catalan numbers C(md, d)/((m−1)d + 1), the Euler characteristics
    of its noncommutative Hilbert schemes (Reineke, math/0306185)."""
    top = 8
    monoid = EffectiveMonoid([(1,)])
    flat = StabilityData(lambda cls: SlopeValue.of(0))
    omega = {d: m_loop_omega(m, d) for d in range(1, top + 1)}
    assert all(value.denominator == 1 for value in omega.values())
    if m == 3:
        assert [omega[d] for d in range(1, 6)] == [1, 1, 3, 10, 40]
    epsilon = {
        (d,): L.const(
            (-1) ** (d - 1)
            * sum(
                (-1) ** ((m - 1) * (d - d // k)) * omega[d // k] / (k * k)
                for k in range(1, d + 1)
                if d % k == 0
            )
        )
        for d in range(1, top + 1)
    }
    fuss_catalan = {
        (d,): L.const(F(math.comb(m * d, d), (m - 1) * d + 1)) for d in range(1, top + 1)
    }
    pairs = InvariantTable(fuss_catalan, monoid=monoid)
    recovered = invert_semistable(pairs, (1,), flat, [[0]], qint=unrefined_integer)
    assert recovered.entries == epsilon
    table = InvariantTable(epsilon, monoid=monoid)
    for cls, value in fuss_catalan.items():
        got = pair_invariant_rhs(cls, (1,), flat, table, [[0]], qint=unrefined_integer)
        assert got == value


class TestPairInvariantContract:
    FLAT = StabilityData(lambda cls: SlopeValue.of(1))

    def test_max_parts_overflows_where_the_splittings_do(self):
        for monoid, chi in ((MONOID, CHI), (NON_FREE, CHI3)):
            table = symbol_table(monoid.effective_upto(4), monoid=monoid)
            fr = pair_fr(monoid.dim)
            for alpha in monoid.effective_upto(4):
                for max_parts in range(1, 5):
                    run = lambda: pair_invariant_rhs(
                        alpha, fr, self.FLAT, table, chi, max_parts=max_parts
                    )
                    try:
                        monoid.decompositions(alpha, max_parts=max_parts)
                    except DecompositionOverflow:
                        with pytest.raises(DecompositionOverflow, match=re.escape(f"{alpha} needs")):
                            run()
                    else:
                        run()

    def test_a_class_far_from_zero_overflows(self):
        monoid = EffectiveMonoid([(1, 0), (0, 1)])
        table = InvariantTable({(1, 0): L.gen("p")}, monoid=monoid, zero_missing=True)
        with pytest.raises(DecompositionOverflow, match=r"\(1200, 0\) needs more than 8"):
            pair_invariant_rhs((1200, 0), (1, 3), self.FLAT, table, CHI)

    def test_a_class_outside_the_cone_gives_zero(self):
        # The empty table is not read.
        empty = InvariantTable({}, monoid=MONOID)
        assert pair_invariant_rhs((1, -1), (1, 3), self.FLAT, empty, CHI) == L.zero()

    def test_refuses_a_callable_or_a_pairing_matrix_of_another_size(self):
        empty = InvariantTable({}, monoid=MONOID)
        pair = InvariantTable({(1, 0): L.gen("p")}, monoid=MONOID)
        for chi in ([[0]], CHI3):
            for target in ((1, 0), (1, 1), (1, -1)):
                with pytest.raises(ValueError, match=r"must be 2x2, got"):
                    pair_invariant_rhs(target, (1, 3), self.FLAT, empty, chi)
            for table in (pair, empty):
                with pytest.raises(ValueError, match=r"must be 2x2, got"):
                    invert_semistable(table, (1, 3), self.FLAT, chi)
        chi = lambda a, b: 3 * (a[0] * b[1] - a[1] * b[0])
        with pytest.raises(TypeError, match="not a callable"):
            pair_invariant_rhs((1, 0), (1, 3), self.FLAT, empty, chi)
        for table in (pair, empty):
            with pytest.raises(TypeError, match="not a callable"):
                invert_semistable(table, (1, 3), self.FLAT, chi)

    def test_every_equal_slope_class_below_the_target_needs_an_entry(self):
        fr = pair_fr(2)
        table = symbol_table([(2, 1)], monoid=MONOID)
        with pytest.raises(UnsupportedClass):
            pair_invariant_rhs((2, 1), fr, self.FLAT, table, CHI)
        sparse = symbol_table([(2, 1)], zero_missing=True, monoid=MONOID)
        own_term = q(framing_degree(fr, (2, 1))) * L.gen("v21")
        assert pair_invariant_rhs((2, 1), fr, self.FLAT, sparse, CHI) == own_term
        # No other class below (2, 1) has its linear slope, and none is read.
        linear = linear_stability([1, 0], [1, 1])
        assert pair_invariant_rhs((2, 1), fr, linear, table, CHI) == own_term


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
