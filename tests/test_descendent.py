import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from types import MappingProxyType

import pytest

from wallx.descendent import (
    SetPartition,
    adams,
    build_xi,
    corner_entry,
    cy_limit_xi,
    delta_apply,
    dt0_symbol,
    dt_to_pt,
    exp_minus_delta,
    factorized_entry,
    hbar_to_weights,
    merge_symbol,
    pair_chern_character,
    partitions_of,
    pt_symbol,
    total_truncate,
    y_explicit,
    y_recursion,
)
from wallx.kclasses import VirtualClass, chern_character, theta_closed, theta_coefficients
from wallx import descendent
from wallx.ring import LaurentElement, exact_laurent_div, exp_times, laurent_sum
from wallx.selftest import mu_n
from wallx.ucoeff import set_partitions

F = Fraction
L = LaurentElement
X = merge_symbol(())
X1 = merge_symbol((1,))
X2 = merge_symbol((2,))
X12 = merge_symbol((1, 2))


def xi_series(source, order: int, k=1):
    """Σ_{n <= order} k**n·θ_{n+1}/(hbar·n!) from the enumeration
    ``theta_closed``; k = 1 is the undeformed kernel series."""
    h = L.gen("hbar")
    acc = L.zero()
    for n in range(order + 1):
        term = exact_laurent_div(theta_closed(source, n + 1), h, "hbar")
        acc = acc + F(k) ** n * F(1, math.factorial(n)) * term
    return acc


def _pair_chern_by_series(n: int) -> L:
    """``pair_chern_character`` by series in an auxiliary degree variable t,
    each product truncated at t**(n + 3): each Todd factor w/(1 - exp(-w))
    the geometric-sum inverse of (1 - exp(-w))/w = 1 + g, Σ_m (-g)**m, then
    -td·(exp(-v) - P)·T multiplied out and its t**n coefficient read.  T
    starts at t**-3, so the product before it is truncated at t**(n + 3)."""
    bound = n + 3
    t = L.gen("t")

    def cut(el: L) -> L:
        return el.truncate({"t"}, bound)

    td = one = L.const(1)
    for w in ("s1", "s2", "s3"):
        s = L.gen(w) * t
        g = laurent_sum(F((-1) ** j, math.factorial(j + 1)) * s**j for j in range(1, bound + 1))
        power, inverse = one, one
        for _ in range(bound):
            power = cut(-power * g)
            inverse = inverse + power
        td = cut(td * inverse)
    expv = exp_times(-(L.gen("v") * t), [], {"t"}, bound)
    points = units = L.zero()
    for m in range(bound + 1):
        points = points + (-1) ** m * L.gen(f"taup{m}") * t**m
    for m in range(bound + 4):
        units = units + L.gen(f"tau1{m}") * t ** (m - 3)
    total = cut(-td * (expv - points)) * units
    return total.coeff_of("t", n)


def _bernoulli_plus(top: int) -> list:
    """B_0⁺, …, B_top⁺ from Σ_{k<=n} C(n+1, k)·B_k = 0 for n >= 1, with
    B_1⁺ = -B_1 = +1/2."""
    bernoulli = [F(1)]
    for n in range(1, top + 1):
        bernoulli.append(-sum(math.comb(n + 1, k) * b for k, b in enumerate(bernoulli)) / (n + 1))
    bernoulli[1] = -bernoulli[1]
    return bernoulli


def pure_coeff(element, **exps):
    """The rational coefficient of the exact monomial with the given powers."""
    for var, e in exps.items():
        element = element.coeff_of(var, e)
    for var in sorted(element.variables()):
        element = element.coeff_of(var, 0)
    value = element.as_fraction()
    return F(0) if value is None else value


@lru_cache(maxsize=None)
def y_by_set_partitions(keys: tuple) -> L:
    """Corner coefficient by subtracting, from DT0[keys], the product of the
    corners of every set partition of the keys into two or more blocks."""
    if len(keys) <= 1:
        return dt0_symbol(keys)
    inv = dt0_symbol(()).monomial_inverse()

    def terms():
        yield dt0_symbol(keys)
        for part in set_partitions(range(len(keys))):
            n = len(part)
            if n <= 1:
                continue
            term = inv ** (n - 1)
            for block in part:
                term = term * y_by_set_partitions(tuple(sorted(keys[i] for i in block)))
            yield -term

    return laurent_sum(terms())


def dt_to_pt_by_set_partitions(keys) -> L:
    """The transformation table summed over every set partition of the keys,
    one corner coefficient per block."""
    keys = tuple(int(k) for k in keys)

    def terms():
        for part in set_partitions(range(len(keys))):
            n = len(part)
            term = pt_symbol(sum(keys[i] for i in b) for b in part)
            term = term * dt0_symbol(()) ** (1 - n)
            for block in part:
                term = term * y_by_set_partitions(tuple(sorted(keys[i] for i in block)))
            yield term

    return laurent_sum(terms())


def truncated_exp(arg, order):
    acc = L.zero()
    for m in range(order + 1):
        acc = acc + F(1, math.factorial(m)) * arg**m
    return acc


def _exp_column(source, step, order: int) -> dict:
    """Column ``source`` of the truncated exponential in Laurent arithmetic,
    target -> entry; ``step`` maps every partition reachable from
    ``source`` to its ``delta_apply`` column."""
    column = {source: L.const(1)}
    out = {source: L.const(1)}
    for m in range(1, order + 1):
        factor = F(-1, m)
        pieces = {}
        for mid, coeff in column.items():
            scaled = factor * coeff
            for target, entry in step[mid].items():
                pieces.setdefault(target, []).append(scaled * entry)
        column = {target: laurent_sum(items) for target, items in pieces.items()}
        for target, coeff in column.items():
            out[target] = out.get(target, L.zero()) + coeff
    return out


def delta_matrix(ground) -> dict:
    """The block-merge operator on the full basis, keyed (target, source)."""
    return {(t, s): e for s in partitions_of(ground) for t, e in delta_apply(s).items()}


def laurent_exp_minus_delta(ground, order: int) -> dict:
    """The truncated exponential over ``delta_matrix``, every column by its
    own Laurent matrix powers: no column is renamed from another."""
    step = {}
    for (target, source), entry in delta_matrix(ground).items():
        step.setdefault(source, {})[target] = entry
    return {
        (target, source): val
        for source in step
        for target, val in _exp_column(source, step, order).items()
        if val
    }


def assert_matches_laurent_oracle(ground, order: int) -> None:
    got = exp_minus_delta(ground, order)
    want = laurent_exp_minus_delta(ground, order)
    assert got.keys() == want.keys()
    # Columns come out whole, their sources in basis order.
    assert [s for s, _ in groupby(source for _, source in got)] == partitions_of(ground)
    for key, entry in want.items():
        assert got[key] == entry
        assert str(got[key]) == str(entry)
        assert all(type(c) is int or c.denominator > 1 for _, c in got[key].monomials())
    corner = (SetPartition.coarsest(ground), SetPartition.finest(ground))
    assert corner_entry(ground, order) == want.get(corner, L.zero())


def refines(fine: SetPartition, coarse: SetPartition) -> bool:
    """Every block of ``fine`` lies inside a block of ``coarse``, both
    partitions of one ground set."""
    if fine.ground != coarse.ground:
        return False
    block_of = {i: set(b) for b in coarse.blocks for i in b}
    return all(set(b) <= block_of[b[0]] for b in fine.blocks)


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
        assert SetPartition.coarsest(0).blocks == ()

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
        mid = SetPartition([(1, 2), (3,)])
        assert refines(SetPartition.finest(3), mid) and refines(mid, SetPartition.coarsest(3))
        assert not refines(mid, SetPartition.finest(3))
        assert not refines(mid, SetPartition([(1,), (2, 3)]))
        for n in (3, 4):
            for source in partitions_of(n):
                for target in delta_apply(source):
                    assert refines(source, target)

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

    def test_total_truncate_filters_by_total_degree_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        exps = st.dictionaries(
            st.sampled_from("abc"), st.integers(-4, 4).map(lambda n: F(n, 2)), max_size=3
        )
        terms = st.lists(st.tuples(exps, st.integers(-5, 5)), max_size=6)

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(terms, st.integers(-3, 3))
        def check(terms, order):
            element = laurent_sum(L.monomial(c, e) for e, c in terms)
            want = laurent_sum(
                L.monomial(c, e)
                for e, c in element.monomials()
                if sum(e.values()) <= order
            )
            got = total_truncate(element, order)
            assert got == want

        check()

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


    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("n", range(5))
    def test_every_entry_matches_the_laurent_oracle(self, n, order):
        assert_matches_laurent_oracle(n, order)

    @pytest.mark.parametrize(
        "ground, order",
        [
            ((0, 2, 3, 5, 7), 2), ((0, 2, 3, 5, 7), 3), ((9,), 3), ((), 3), ((9,), 0), ((), 0),
            # High orders, where the column is built scaled by order! (720 at 6).
            ((), 6), ((4,), 6), ((3, 8), 6), ((0, 4, 7), 6), ((1, 2, 5, 9), 5),
        ],
    )
    def test_every_entry_matches_the_laurent_oracle_on_labels(self, ground, order):
        assert_matches_laurent_oracle(ground, order)

    def test_every_entry_matches_the_laurent_oracle_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=25, deadline=None)
        @hypothesis.given(st.sets(st.integers(0, 9), max_size=4), st.integers(0, 3))
        def check(labels, order):
            assert_matches_laurent_oracle(labels, order)

        check()

    @pytest.mark.parametrize(
        "call", [exp_minus_delta, corner_entry], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("ground", [range(11), 10, (3, 12)])
    def test_labels_refused_before_enumerating(self, monkeypatch, call, ground):
        # Eleven labels are 678,570 set partitions: the check must come first.
        def refuse(ground):
            raise AssertionError("set partitions enumerated before the label check")

        monkeypatch.setattr(descendent, "partitions_of", refuse)
        with pytest.raises(ValueError, match="single-digit labels"):
            call(ground, 1)


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

    def test_keys_follow_the_integer_rule(self):
        for corner in (y_recursion, y_explicit):
            for keys in ((1.9,), (1, True), ("2",)):
                with pytest.raises(ValueError, match="expected an integer"):
                    corner(keys)
        assert y_recursion((Fraction(3), 1)) == y_recursion((1, 3))

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

    def test_keys_follow_the_integer_rule(self):
        for route in ("y", "theorem"):
            for keys in ((1.9,), (2, True)):
                with pytest.raises(ValueError, match="expected an integer"):
                    dt_to_pt(keys, route)
        assert dt_to_pt((Fraction(2), 1)) == dt_to_pt((1, 2))

    @pytest.mark.parametrize("keys", [(), (5,), (1, 2), (1, 1), (1, 2, 3), (2, 2, 4)])
    def test_routes_agree(self, keys):
        assert dt_to_pt(keys, "y") == dt_to_pt(keys, "theorem")

    def test_key_order_irrelevant(self):
        assert dt_to_pt((2, 1, 2)) == dt_to_pt((2, 2, 1))

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            dt_to_pt((1,), "other")


    @pytest.mark.parametrize(
        "keys",
        [(), (4,), (1, 1), (1, 2), (2, 2, 4), (1, 1, 2, 3), (3, 1, 2, 1, 3), (1, 1, 1, 2, 2, 4)],
    )
    def test_equals_set_partition_sum(self, keys):
        assert dt_to_pt(keys) == dt_to_pt_by_set_partitions(keys)
        assert y_recursion(keys) == y_by_set_partitions(tuple(sorted(keys)))

    def test_equals_set_partition_sum_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # Keys from 1..4: repeated keys and coinciding block sums both occur.
        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.lists(st.integers(1, 4), max_size=6))
        def check(keys):
            assert dt_to_pt(keys) == dt_to_pt_by_set_partitions(keys)
            assert y_recursion(keys) == y_explicit(keys)

        check()

    @pytest.mark.parametrize(
        "keys, size",
        [
            ((1,) * 8, 192),
            ((1,) * 9, 340),
            ((1,) * 10, 619),
            ((1, 1, 1, 1, 2, 2, 2, 2, 2), 3459),
            ((1, 2, 3, 4, 5, 6, 7), 14699),
        ],
    )
    def test_term_counts_of_the_set_partition_sum(self, keys, size):
        # Sizes measured by summing over every set partition of the keys.
        assert len(dt_to_pt(keys).terms) == size


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
            return el.subs("b", image)

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

    def test_k_follows_the_integer_rule(self):
        e = L.gen("a") * L.gen("b") + L.const(5)
        for k in (True, 0.5, "2"):
            with pytest.raises(ValueError, match="expected an integer"):
                adams(k, e, self.GRADING)
        assert str(adams(F(2), e, self.GRADING)) == str(adams(2, e, self.GRADING))


class TestXiSeries:
    @pytest.mark.parametrize("rank", [-2, 0, 1, 3])
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_hbar_zero_reduction(self, rank, k):
        xi = build_xi(k, rank, 4)
        assert xi.subs("hbar", 0) == cy_limit_xi(k, rank, 4)

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

    @pytest.mark.parametrize(
        "source",
        [
            *range(-3, 4),
            VirtualClass([L.gen("a") + L.gen("hbar"), (L.gen("b"), -1)], mode="coh"),
            VirtualClass([2 * L.gen("b") + 1, (L.gen("w"), -1), L.gen("b")], mode="coh"),
            VirtualClass([L.gen("y"), (L.gen("y") + L.gen("hbar"), -1)], mode="coh"),
        ],
        ids=[*map(str, range(-3, 4)), "hbar-root", "signed-root", "y-root"],
    )
    def test_matches_the_enumeration(self, source):
        for k in (-1, 0, 1, 2):
            for order in range(-1, 7):
                want = xi_series(source, order, k)
                assert str(build_xi(k, source, order)) == str(want)
                assert str(cy_limit_xi(k, source, order)) == str(want.subs("hbar", 0))

    def test_order_follows_the_integer_rule(self):
        for order in (True, 2.0, "2"):
            for call in (build_xi, cy_limit_xi):
                with pytest.raises(ValueError, match="expected an integer"):
                    call(2, 1, order)
        for call in (build_xi, cy_limit_xi):
            assert str(call(2, 1, F(2))) == str(call(2, 1, 2))

    @pytest.mark.parametrize("call", [build_xi, cy_limit_xi])
    def test_k_follows_the_integer_rule(self, call):
        for k in (True, 0.5, "2"):
            with pytest.raises(ValueError, match="expected an integer"):
                call(k, 1, 3)
        assert str(call(F(2), 1, 3)) == str(call(2, 1, 3))

    def test_negative_order_is_the_empty_sum(self):
        # The order is read first, so even a K-mode class gives the empty sum.
        k_class = VirtualClass([L.gen("a")])
        for order in (-1, -3):
            for source in (2, k_class):
                assert build_xi(2, source, order) == L.zero()
                assert cy_limit_xi(2, source, order) == L.zero()

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
        # The s1**k·tau13 coefficient of the degree-k character is -b_k,
        # b_k the s**k coefficient of s/(1 - exp(-s)).
        todd = {0: 1, 1: F(1, 2), 2: F(1, 12), 3: 0, 4: F(-1, 720)}
        for k, b in todd.items():
            assert pure_coeff(pair_chern_character(k), s1=k, tau13=1) == -b

    def test_td_series_is_the_bernoulli_series(self):
        # s/(1 - exp(-s)) = Σ B_n⁺·s**n/n!, one factor per tangent weight.
        b = [bn / math.factorial(n) for n, bn in enumerate(_bernoulli_plus(8))]
        for k in range(9):
            ch = pair_chern_character(k)
            assert pure_coeff(ch, s1=k, tau13=1) == -b[k]
            for i in range(k + 1):
                for j in range(k - i + 1):
                    got = pure_coeff(ch, s1=i, s2=j, s3=k - i - j, tau13=1)
                    assert got == -b[i] * b[j] * b[k - i - j]

    def test_matches_the_series_route(self):
        for n in range(-3, 9):
            assert str(pair_chern_character(n)) == str(_pair_chern_by_series(n))

    def test_below_the_lowest_degree_is_zero(self):
        for n in (-4, -5, -10):
            assert pair_chern_character(n) == L.zero()

    def test_degree_follows_the_integer_rule(self):
        for n in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="expected an integer"):
                pair_chern_character(n)
        assert str(pair_chern_character(F(2))) == str(pair_chern_character(2))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_homogeneous(self, n):
        ch = pair_chern_character(n)
        for exps, _ in ch.monomials():
            assert sum(self.GRADING[v] * e for v, e in exps.items()) == n

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
