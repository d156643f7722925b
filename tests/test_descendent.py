import math
from fractions import Fraction
from types import MappingProxyType

import pytest

from wallx.descendent import (
    SetPartition,
    adams,
    build_xi,
    corner_entry,
    cy_limit_xi,
    delta_apply,
    delta_matrix,
    dt0_symbol,
    dt_to_pt,
    exp_minus_delta,
    factorized_entry,
    hbar_to_weights,
    merge_symbol,
    pair_chern_character,
    partitions_of,
    pt_symbol,
    td_series,
    total_truncate,
    y_explicit,
    y_recursion,
)
from wallx.kclasses import VirtualClass, chern_character, theta_closed, theta_coefficients
from wallx.ring import LaurentElement, exact_laurent_div
from wallx.ucoeff import mu_n

F = Fraction
L = LaurentElement
X = merge_symbol(())
X1 = merge_symbol((1,))
X2 = merge_symbol((2,))
X12 = merge_symbol((1, 2))


def xi_series(source, order: int):
    """Σ_{n <= order} θ_{n+1}/(hbar·n!), the undeformed kernel series."""
    h = L.gen("hbar")
    acc = L.zero()
    for n in range(order + 1):
        term = exact_laurent_div(theta_closed(source, n + 1), h, "hbar")
        acc = acc + F(1, math.factorial(n)) * term
    return acc


def pure_coeff(element, **exps):
    """The rational coefficient of the exact monomial with the given powers."""
    for var, e in exps.items():
        element = element.coeff_of(var, e)
    for var in sorted(element.variables()):
        element = element.coeff_of(var, 0)
    value = element.as_fraction()
    return F(0) if value is None else value


def truncated_exp(arg, order):
    acc = L.zero()
    for m in range(order + 1):
        acc = acc + F(1, math.factorial(m)) * arg**m
    return acc


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition([[3, 1], (2,)])
        assert p.blocks == ((1, 3), (2,))
        assert p.ground == (1, 2, 3)
        assert p == SetPartition([(2,), (1, 3)])
        assert len({p, SetPartition([(1, 3), (2,)])}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartition([()])
        with pytest.raises(ValueError):
            SetPartition([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            SetPartition([("a",)])
        with pytest.raises(ValueError):
            SetPartition([(1,)], ground=(1, 2))
        assert SetPartition([(1,), (2,)], ground=(1, 2)).ground == (1, 2)

    def test_finest_coarsest_merge(self):
        f = SetPartition.finest(3)
        assert f.blocks == ((1,), (2,), (3,))
        c = SetPartition.coarsest(3)
        assert c.blocks == ((1, 2, 3),)
        assert f.merge((0, 2)) == SetPartition([(1, 3), (2,)])
        assert SetPartition.coarsest(0).blocks == ()

    def test_refines(self):
        f = SetPartition.finest(3)
        mid = SetPartition([(1, 2), (3,)])
        c = SetPartition.coarsest(3)
        assert f.refines(mid) and mid.refines(c) and f.refines(c)
        assert not mid.refines(f)
        assert not mid.refines(SetPartition([(1,), (2, 3)]))

    def test_partition_counts_are_bell_numbers(self):
        for n, bell in enumerate([1, 1, 2, 5, 15]):
            assert len(partitions_of(n)) == bell
        assert len(partitions_of((2, 5, 7))) == 5


class TestMergeOperator:
    def test_single_label(self):
        p = SetPartition.finest(1)
        assert delta_apply(p) == {p: X - X1}

    def test_two_labels(self):
        # the four designations: none and each singleton give the diagonal,
        # the full pair merges with a plus sign
        f = SetPartition.finest(2)
        c = SetPartition.coarsest(2)
        assert delta_apply(f) == {f: X - X1 - X2, c: X12}
        assert delta_apply(c) == {c: X - X12}

    def test_empty_ground(self):
        p = SetPartition.coarsest(0)
        assert delta_apply(p) == {p: X}

    def test_upper_triangular_in_refinement(self):
        for n in (3, 4):
            for source in partitions_of(n):
                for target in delta_apply(source):
                    assert source.refines(target)

    def test_strictly_merging_part_is_nilpotent(self):
        basis = partitions_of(3)
        strict = {
            (t, s): entry
            for (t, s), entry in delta_matrix(3).items()
            if t != s
        }

        def compose(a, b):
            out = {}
            for (t, mid), left in a.items():
                for (m2, s), right in b.items():
                    if m2 != mid:
                        continue
                    prev = out.get((t, s), L.zero())
                    val = prev + left * right
                    out[t, s] = val
            return {k: v for k, v in out.items() if v}

        cube = compose(compose(strict, strict), strict)
        assert cube == {}
        assert len(basis) == 5

    def test_merge_symbol_labels(self):
        assert merge_symbol(()) == L.gen("x")
        assert merge_symbol((2, 1)) == L.gen("x12")
        with pytest.raises(ValueError):
            merge_symbol((10,))


class TestMatrixExponential:
    def test_empty_ground(self):
        p = SetPartition.coarsest(0)
        table = exp_minus_delta(0, 5)
        assert table == {(p, p): truncated_exp(-X, 5)}

    def test_single_label(self):
        p = SetPartition.finest(1)
        table = exp_minus_delta(1, 6)
        assert table == {(p, p): truncated_exp(X1 - X, 6)}

    def test_two_label_corner_matches_path_sum(self):
        # solve the two-state system by hand: each power contributes one
        # merge symbol flanked by powers of the two diagonals
        order = 6
        corner = corner_entry(2, order)
        d_fine = X - X1 - X2
        d_coarse = X - X12
        oracle = L.zero()
        for m in range(1, order + 1):
            inner = L.zero()
            for i in range(m):
                inner = inner + d_coarse**i * d_fine ** (m - 1 - i)
            oracle = oracle + F((-1) ** m, math.factorial(m)) * X12 * inner
        assert corner == total_truncate(oracle, order)

    def test_corner_is_the_table_entry(self):
        for n, order in ((0, 3), (1, 3), (3, 4), (4, 3)):
            table = exp_minus_delta(n, order)
            key = (SetPartition.coarsest(n), SetPartition.finest(n))
            assert corner_entry(n, order) == table.get(key, L.zero())
        for call in (exp_minus_delta, corner_entry):
            with pytest.raises(ValueError, match="nonnegative"):
                call(2, -1)

    def test_order_stability(self):
        small = exp_minus_delta(3, 3)
        large = exp_minus_delta(3, 5)
        for key, entry in large.items():
            assert total_truncate(entry, 3) == small.get(key, L.zero())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factorization(self, n):
        order = 4
        table = exp_minus_delta(n, order)
        finest = SetPartition.finest(n)
        for sigma in partitions_of(n):
            direct = table.get((sigma, finest), L.zero())
            assert total_truncate(direct, order) == factorized_entry(
                sigma, order
            )


class TestCornerCoefficients:
    def test_base_cases(self):
        assert y_recursion(()) == dt0_symbol()
        assert y_recursion((7,)) == dt0_symbol((7,))
        assert y_explicit(()) == dt0_symbol()
        assert y_explicit((7,)) == dt0_symbol((7,))

    def test_two_keys_by_hand(self):
        expected = dt0_symbol((1, 3)) - dt0_symbol((1,)) * dt0_symbol(
            (3,)
        ) * dt0_symbol() ** (-1)
        assert y_recursion((1, 3)) == expected
        assert y_recursion((3, 1)) == expected

    @pytest.mark.parametrize(
        "keys",
        [(), (2,), (1, 3), (1, 1), (1, 2, 3), (1, 1, 2), (1, 2, 3, 4), (1, 1, 2, 2)],
    )
    def test_recursion_equals_explicit(self, keys):
        assert y_recursion(keys) == y_explicit(keys)

    def test_explicit_term_count(self):
        # fifteen partitions of a four-element set
        assert len(y_explicit((1, 2, 3, 4)).terms) == 15

    def test_partition_coefficient_identity_via_mu(self):
        # the closed-form coefficients solve the recursion exactly when the
        # partition sum of (-1)**(j-1)(j-1)! over block sizes telescopes
        for n in range(1, 7):
            assert mu_n(n) == (1 if n == 1 else 0)


class TestTransformationTable:
    def test_no_keys(self):
        assert dt_to_pt(()) == pt_symbol() * dt0_symbol()

    def test_one_key(self):
        assert dt_to_pt((5,)) == pt_symbol((5,)) * dt0_symbol((5,))

    def test_two_keys_by_hand(self):
        inv = dt0_symbol() ** (-1)
        split = dt0_symbol((1,)) * dt0_symbol((2,)) * inv
        expected = (
            pt_symbol((3,)) * (dt0_symbol((1, 2)) - split)
            + pt_symbol((1, 2)) * split
        )
        assert dt_to_pt((1, 2)) == expected

    @pytest.mark.parametrize("keys", [(), (5,), (1, 2), (1, 1), (1, 2, 3), (2, 2, 4)])
    def test_routes_agree(self, keys):
        assert dt_to_pt(keys, "y") == dt_to_pt(keys, "theorem")

    def test_key_order_irrelevant(self):
        assert dt_to_pt((2, 1, 2)) == dt_to_pt((2, 2, 1))

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            dt_to_pt((1,), "other")


class TestAdams:
    GRADING = {"a": 1, "b": 2, "c": 1}

    def test_identity(self):
        e = L.gen("a") * L.gen("b") + 3 * L.gen("c") + L.const(5)
        assert adams(1, e, self.GRADING) == e

    def test_zero_kills_positive_degrees(self):
        e = L.gen("a") + L.gen("b") * L.gen("a") + L.const(7)
        assert adams(0, e, self.GRADING) == L.const(7)

    def test_zero_rejects_negative_degrees(self):
        with pytest.raises(ValueError):
            adams(0, L.gen("a"), {"a": -1})

    def test_rescales_by_degree(self):
        e = L.gen("a") ** 2 + L.gen("b") + L.gen("a") * L.gen("b")
        out = adams(3, e, self.GRADING)
        assert out == 9 * L.gen("a") ** 2 + 9 * L.gen("b") + 27 * L.gen(
            "a"
        ) * L.gen("b")

    def test_descendent_weights(self):
        # Σ tau_n of a degree-2 insertion rescales by k**(n - 3 + 2)
        total = L.zero()
        expected = L.zero()
        grading = {}
        for n in range(6):
            grading[f"tau{n}"] = n - 3 + 2
            total = total + L.gen(f"tau{n}")
            expected = expected + F(2) ** (n - 1) * L.gen(f"tau{n}")
        assert adams(2, total, grading) == expected

    def test_commutes_with_graded_substitution(self):
        e = L.gen("a") ** 2 + 5 * L.gen("a") * L.gen("b") + L.gen("b")
        image = L.gen("c") * L.gen("a") + 2 * L.gen("c") ** 2

        def substitute(el):
            return el.subs_poly("b", image)

        for k in (-2, 0, 1, 3):
            assert adams(k, substitute(e), self.GRADING) == substitute(
                adams(k, e, self.GRADING)
            )

    def test_any_mapping_or_callable_grading(self):
        e = L.gen("a") * L.gen("b")
        expected = 4 * e
        assert adams(2, e, MappingProxyType({"a": 1, "b": 1})) == expected
        assert adams(2, e, lambda var: 1) == expected

    def test_half_integer_degree_rejected(self):
        e = L.monomial(1, {"a": F(1, 2)})
        with pytest.raises(ValueError):
            adams(2, e, {"a": 1})


class TestXiSeries:
    @pytest.mark.parametrize("rank", [-2, 0, 1, 3])
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_hbar_zero_reduction(self, rank, k):
        xi = build_xi(k, rank, 4)
        assert xi.subs_zero("hbar") == cy_limit_xi(k, rank, 4)

    def test_equals_degree_rescaled_series(self):
        def grading(var):
            return 1 if var == "hbar" else int(var.removeprefix("ch"))

        for rank in (-1, 2):
            for k in (2, -3):
                assert build_xi(k, rank, 4) == adams(
                    k, xi_series(rank, 4), grading
                )

    @pytest.mark.parametrize("rank", [-2, 1])
    def test_hbar_linear_term_matches_series_route(self, rank):
        k = 2
        xi = build_xi(k, rank, 3)
        thetas = theta_coefficients(rank, 4)
        oracle = L.zero()
        for n in range(4):
            q = exact_laurent_div(thetas[n + 1], L.gen("hbar"), "hbar")
            oracle = oracle + F(k) ** n * F(1, math.factorial(n)) * q
        assert xi.coeff_of("hbar", 1) == oracle.coeff_of("hbar", 1)

    def test_empty_class_vanishes(self):
        zero_class = VirtualClass((), mode="coh")
        assert build_xi(3, zero_class, 4) == L.zero()

    def test_chern_substitution_matches_concrete_class(self):
        line = VirtualClass([L.gen("s1")], mode="coh")
        values = {a: chern_character(line, a) for a in range(1, 6)}
        direct = build_xi(2, line, 4)
        substituted = build_xi(2, 1, 4, ch_values=values)
        assert substituted == direct


class TestPairChernData:
    GRADING = {"v": 1, "s1": 1, "s2": 1, "s3": 1}
    for m in range(12):
        GRADING[f"taup{m}"] = m
        GRADING[f"tau1{m}"] = m - 3

    def test_td_series(self):
        td = td_series("s", 4)
        assert pure_coeff(td) == 1
        assert pure_coeff(td, s=1) == F(1, 2)
        assert pure_coeff(td, s=2) == F(1, 12)
        assert pure_coeff(td, s=3) == 0
        assert pure_coeff(td, s=4) == F(-1, 720)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_homogeneous(self, n):
        ch = pair_chern_character(n)
        for mono, _ in ch.terms.items():
            assert sum(self.GRADING[v] * e for v, e in mono) == 2 * n

    def test_hand_coefficients(self):
        ch0 = pair_chern_character(0)
        ch1 = pair_chern_character(1)
        assert pure_coeff(ch0, tau13=1) == -1
        assert pure_coeff(ch0, taup0=1, tau13=1) == 1
        assert pure_coeff(ch0, tau10=1) == 0
        assert pure_coeff(ch1, v=1, tau13=1) == 1
        assert pure_coeff(ch1, s1=1, tau13=1) == F(-1, 2)
        assert pure_coeff(ch1, taup1=1, tau13=1) == -1
        assert pure_coeff(ch1, tau14=1) == -1

    def test_hbar_substitution(self):
        e = L.gen("hbar") ** 2 + L.const(3)
        s = L.gen("s1") + L.gen("s2") + L.gen("s3")
        assert hbar_to_weights(e) == s * s + L.const(3)
