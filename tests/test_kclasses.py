"""Oracle tests for root-symbol classes, wedges, residues, and theta data."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from wallx.errors import ModeMismatch, NonExpandable, TrivialWeightAtOne
from wallx.kclasses import (
    ThetaKernel,
    VirtualClass,
    chern_character,
    complete_homogeneous,
    cy_limit_theta,
    euler,
    projective_pushforward_K,
    projective_pushforward_coh,
    projective_pushforward_symmetrized,
    pushforward_closed_K,
    pushforward_closed_coh,
    quantum_integer,
    rigidity_residue,
    rigidity_residue_coh,
    segre_class,
    symmetrized_wedge,
    theta_closed,
    theta_coefficients,
    theta_series,
    wedge,
)
from wallx.ring import (
    LaurentElement,
    RationalElement,
    as_rational,
    exact_laurent_div,
    expand,
    exp_times,
    laurent_sum,
    specialize_kappa,
)

L = LaurentElement
one = L.const(1)
z = L.gen("z")
kap = L.gen("k")
khalf = L.monomial(1, {"k": Fraction(1, 2)})
hbar = L.gen("hbar")


def _half(m: L, sign: int) -> L:
    """Half power of a coefficient-1 monomial, built by hand for oracles."""
    ((exps, coeff),) = m.monomials()
    assert coeff == 1
    return L.monomial(1, {v: e * Fraction(sign, 2) for v, e in exps.items()})


def _random_honest(rng: random.Random, nroots: int, mode: str = "K") -> VirtualClass:
    roots = []
    for _ in range(nroots):
        if mode == "K":
            exps = {f"t{j}": rng.randint(-1, 2) for j in range(3)}
            roots.append(L.monomial(1, exps))
        else:
            roots.append(
                sum((rng.randint(-2, 2) * L.gen(f"w{j}") for j in range(3)), L.zero())
            )
    return VirtualClass(roots, mode)


# -- quantum integers ------------------------------------------------------------


def test_quantum_integer_small_values() -> None:
    assert quantum_integer(0) == L.zero()
    assert quantum_integer(1) == one
    assert quantum_integer(2) == -(khalf + khalf.monomial_inverse())
    assert quantum_integer(3) == kap + one + kap.monomial_inverse()


def test_quantum_integer_defining_ratio() -> None:
    gap = khalf - khalf.monomial_inverse()
    for n in range(1, 9):
        big = L.monomial(1, {"k": Fraction(n, 2)})
        assert quantum_integer(n) * gap == (-1) ** (n - 1) * (
            big - big.monomial_inverse()
        )


def test_quantum_integer_odd_symmetry() -> None:
    for n in range(0, 7):
        assert quantum_integer(-n) == -quantum_integer(n)


def test_quantum_integer_kappa_one_limit() -> None:
    for n in range(1, 9):
        assert specialize_kappa(quantum_integer(n)) == L.const((-1) ** (n - 1) * n)


def test_quantum_integer_follows_the_integer_rule() -> None:
    for n in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="expected an integer"):
            quantum_integer(n)
    assert quantum_integer(Fraction(-3)) == quantum_integer(-3)


# -- virtual classes -------------------------------------------------------------


def test_virtual_class_rank_dual_twist() -> None:
    t1, t2 = L.gen("t1"), L.gen("t2")
    E = VirtualClass([t1, (t2, -1)])
    assert E.rank == 0
    assert not E.honest
    assert E.dual().roots[0][0] == t1.monomial_inverse()
    assert E.twist(kap).roots[1] == (kap * t2, -1)
    assert (-E).rank == 0
    assert (E + VirtualClass([t1])).rank == 1


def test_virtual_class_rejects_non_monomial_weight() -> None:
    with pytest.raises(ValueError):
        VirtualClass([L.gen("t1") + 1])
    with pytest.raises(ValueError):
        VirtualClass([3 * L.gen("t1")])


def test_virtual_class_reads_signs_by_the_integer_rule() -> None:
    t1, t2 = L.gen("t1"), L.gen("t2")
    for sign in (1.0, True, 2, Fraction(1, 2), "1"):
        with pytest.raises(ValueError):
            VirtualClass([(t1, sign), t2])
    with pytest.raises(ValueError):
        VirtualClass([(L.gen("w1"), 1.0)], mode="coh")
    E = VirtualClass([(t1, Fraction(1)), t2])
    assert E == VirtualClass([t1, t2])
    assert type(E.rank) is int and E.rank == 2
    assert pushforward_closed_K(-3, E) == pushforward_closed_K(-3, VirtualClass([t1, t2]))
    assert VirtualClass([(t1, Fraction(-1))]) == VirtualClass([(t1, -1)])


def test_coh_mode_allows_additive_weights() -> None:
    E = VirtualClass([L.gen("w1") + hbar], mode="coh")
    assert E.dual().roots[0][0] == -L.gen("w1") - hbar
    assert E.twist(hbar).roots[0][0] == L.gen("w1") + 2 * hbar


def test_chern_character_from_roots() -> None:
    w1, w2 = L.gen("w1"), L.gen("w2")
    E = VirtualClass([w1, (w2, -1)], mode="coh")
    assert chern_character(E, 0) == L.zero()
    assert chern_character(E, 1) == w1 - w2
    assert chern_character(E, 2) == Fraction(1, 2) * (w1**2 - w2**2)


# -- wedge classes ---------------------------------------------------------------


def test_wedge_single_trivial_root() -> None:
    assert wedge(VirtualClass([1])) == one - z


def test_wedge_rejects_additive_mode() -> None:
    with pytest.raises(ModeMismatch):
        wedge(VirtualClass([L.gen("w1")], mode="coh"))


def test_wedge_symmetry_identity() -> None:
    # wedge_{-z}(E) = (-z)**rank det(E) wedge_{-1/z}(E dual) for honest E.
    rng = random.Random(3)
    for _ in range(6):
        E = _random_honest(rng, rng.randint(1, 3))
        r = E.rank
        lhs = wedge(E, z)
        rhs = (-z) ** r * E.det() * wedge(E.dual(), z.monomial_inverse())
        assert lhs == rhs


def test_symmetrized_wedge_single_root() -> None:
    t1 = L.gen("t1")
    assert symmetrized_wedge(VirtualClass([t1])) == _half(z * t1, -1) - _half(
        z * t1, 1
    )


def test_symmetrized_wedge_symmetry_identity() -> None:
    # hat-wedge_{-z}(E) = (-1)**rank hat-wedge_{-1/z}(E dual) for honest E.
    rng = random.Random(4)
    for _ in range(6):
        E = _random_honest(rng, rng.randint(1, 3))
        lhs = symmetrized_wedge(E, z)
        rhs = (-1) ** E.rank * symmetrized_wedge(E.dual(), z.monomial_inverse())
        assert lhs == rhs


def _hypothesis_classes(hypothesis):
    """Random K-mode virtual classes: up to four roots of either sign whose
    weights are monomials in t1, t2, t3 with half-integer exponents."""
    st = hypothesis.strategies
    exps = st.dictionaries(
        st.sampled_from(["t1", "t2", "t3"]),
        st.integers(-3, 3).map(lambda n: Fraction(n, 2)),
        max_size=2,
    )
    roots = st.tuples(exps.map(lambda e: L.monomial(1, e)), st.sampled_from([1, -1]))
    return st.lists(roots, max_size=4).map(VirtualClass)


def test_wedge_is_one_signed_product_hypothesis() -> None:
    # wedge is additive-to-multiplicative and exact on negative summands;
    # euler is separate code, read here through the dual at 1/z.
    hypothesis = pytest.importorskip("hypothesis")
    classes = _hypothesis_classes(hypothesis)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(classes, classes)
    def check(E, F):
        assert wedge(E + F) == wedge(E) * wedge(F)
        assert wedge(E) * wedge(-E) == 1
        assert euler(E, z) == wedge(E.dual(), z.monomial_inverse())
        assert isinstance(wedge(E), L if E.honest else RationalElement)

    check()


def test_wedge_of_a_virtual_class_at_an_element() -> None:
    t1, t2, s1, q = (L.gen(v) for v in ("t1", "t2", "s1", "q"))
    E = VirtualClass([t1, t2, (s1, -1)])
    qz = q * z
    got = wedge(E, qz)
    assert isinstance(got, RationalElement)
    assert got == as_rational((one - qz * t1) * (one - qz * t2)) / (one - qz * s1)
    assert got == wedge(E).subs("z", qz)


# -- Euler classes ---------------------------------------------------------------


def test_euler_single_root_expansion() -> None:
    t1 = L.gen("t1")
    got = euler(VirtualClass([t1]))
    assert got == one - (z * t1).monomial_inverse()


def test_euler_times_euler_of_negative_is_one() -> None:
    rng = random.Random(5)
    for _ in range(4):
        E = _random_honest(rng, rng.randint(1, 3))
        assert euler(E) * euler(-E) == as_rational(one)


def test_euler_virtual_expansion_alternating_sym() -> None:
    # Expansion at 1/z = 0 of e_z(E1 - E2) is
    # sum_{i,j} z**-(i+j) (-1)**i wedge^i(E1 dual) Sym^j(E2 dual).
    t1, t2, s1, s2 = (L.gen(v) for v in ("t1", "t2", "s1", "s2"))
    E = VirtualClass([t1, t2, (s1, -1), (s2, -1)])
    f = euler(E)
    got = expand(f, "infinity", 4)
    tinv = [t1.monomial_inverse(), t2.monomial_inverse()]
    sinv = [s1.monomial_inverse(), s2.monomial_inverse()]
    want = 0 * got
    for i in range(3):
        for j in range(5 - i):
            want = want + (
                (-1) ** i
                * sum(math.prod(c, start=one) for c in itertools.combinations(tinv, i))
                * complete_homogeneous(j, sinv)
                * L.monomial(1, {"z": -(i + j)})
            )
    assert got == want


def test_euler_at_one_rejects_trivial_weight() -> None:
    E = VirtualClass([L.gen("t1"), one])
    with pytest.raises(TrivialWeightAtOne):
        euler(E, z=None)
    assert euler(VirtualClass([L.gen("t1")]), z=None) == one - L.gen(
        "t1"
    ).monomial_inverse()


# -- theta kernel ----------------------------------------------------------------


def test_theta_of_zero_classes_is_one() -> None:
    th = ThetaKernel(VirtualClass(), VirtualClass())
    assert th.value == as_rational(one)
    assert th.residue() == L.zero()


def test_theta_kappa_symmetric_pair_display() -> None:
    # For E_ab = [1/(kappa L)] and E_ba = -kappa^{-1} E_ab dual = -[L], the
    # kernel is ((z kappa L)^{-1/2} - (z kappa L)^{1/2}) / ((zL)^{1/2} - (zL)^{-1/2}).
    Lw = L.gen("Lw")
    e_ab = VirtualClass([kap.monomial_inverse() * Lw.monomial_inverse()])
    e_ba = -VirtualClass([Lw])
    assert e_ba == -e_ab.dual().twist(kap.monomial_inverse())
    th = ThetaKernel(e_ab, e_ba)
    num = _half(z * kap * Lw, -1) - _half(z * kap * Lw, 1)
    den = _half(z * Lw, 1) - _half(z * Lw, -1)
    assert th.value == as_rational(num) / den
    assert th.residue() == khalf.monomial_inverse() - khalf


def test_quotients_print_as_one_division_did() -> None:
    """Quotients keep their denominator factors, yet print as they did
    when they were divided out: these strings come from that version."""
    t1, t2, t3, q = (L.gen(n) for n in ("t1", "t2", "t3", "q"))
    E = VirtualClass([t1, (t2, -1), (t3 * q, -1)])
    den = "(1 + q*t2*t3*z^2 - q*t3*z - t2*z)"
    assert str(symmetrized_wedge(E)) == (
        "(q^(1/2)*t1^(-1/2)*t2^(1/2)*t3^(1/2)*z^(1/2)"
        " - q^(1/2)*t1^(1/2)*t2^(1/2)*t3^(1/2)*z^(3/2)) / " + den
    )
    assert str(euler(E)) == "(-q*t1^-1*t2*t3*z + q*t2*t3*z^2) / " + den
    theta = ThetaKernel(VirtualClass([t1 * kap.monomial_inverse()]), -VirtualClass([t2, t3]))
    assert str(theta.value) == (
        "(-k^(-1/2)*t1^(1/2)*t2^(1/2)*t3^(1/2)*z^(1/2)"
        " + k^(1/2)*t1^(-1/2)*t2^(1/2)*t3^(1/2)*z^(3/2))"
        " / (1 + t2*t3*z^2 - t2*z - t3*z)"
    )


def test_theta_rejects_additive_mode() -> None:
    with pytest.raises(ModeMismatch):
        ThetaKernel(VirtualClass([L.gen("w1")], mode="coh"), VirtualClass())


# -- rigidity --------------------------------------------------------------------


def test_rigidity_residue_closed_form() -> None:
    # Independent oracle: the two constant-limit values (-kappa**(1/2))**r and
    # (-kappa**(-1/2))**r, assembled by hand.
    for r in range(1, 6):
        V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
        want = (-khalf) ** r - (-khalf.monomial_inverse()) ** r
        assert rigidity_residue(V) == want


def test_rigidity_residue_is_gap_times_quantum_integer() -> None:
    gap = khalf.monomial_inverse() - khalf
    for r in range(1, 6):
        V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
        assert exact_laurent_div(rigidity_residue(V), gap, "k") == quantum_integer(r)


def test_rigidity_residue_coh_value() -> None:
    for r in range(1, 5):
        V = VirtualClass([L.gen(f"w{i}") for i in range(r)], mode="coh")
        assert rigidity_residue_coh(V) == (-1) ** r * r * hbar


# -- projective pushforwards -----------------------------------------------------


def test_pushforward_K_matches_closed_table() -> None:
    s = L.gen("s")
    for r in range(1, 5):
        V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
        for k in range(-6, 7):
            f = L.monomial(1, {"s": k})
            assert projective_pushforward_K(f, V) == pushforward_closed_K(k, V)
        assert projective_pushforward_K(3 * s**2 - L.monomial(1, {"s": -3}), V) == (
            3 * pushforward_closed_K(2, V) - pushforward_closed_K(-3, V)
        )


def test_pushforward_K_hand_picked_cases() -> None:
    t1, t2 = L.gen("t1"), L.gen("t2")
    V = VirtualClass([t1, t2])
    assert pushforward_closed_K(0, V) == one
    assert pushforward_closed_K(-1, V) == L.zero()
    assert pushforward_closed_K(-2, V) == -t1 * t2
    assert pushforward_closed_K(1, V) == t1.monomial_inverse() + t2.monomial_inverse()


def test_pushforward_symmetrized_unit_gives_quantum_integer() -> None:
    for r in range(1, 5):
        V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
        assert projective_pushforward_symmetrized(1, V) == quantum_integer(r)


def test_pushforward_coh_gives_segre_classes() -> None:
    h = L.gen("h")
    for r in range(1, 5):
        V = VirtualClass([L.gen(f"w{i}") for i in range(r)], mode="coh")
        for k in range(0, 7):
            assert projective_pushforward_coh(h**k, V) == pushforward_closed_coh(k, V)
        assert pushforward_closed_coh(r - 1, V) == one
        assert pushforward_closed_coh(r, V) == -sum(
            (L.gen(f"w{i}") for i in range(r)), L.zero()
        )


def test_segre_class_inverts_total_chern_class() -> None:
    # sum_j s_j u**j is the inverse of sum_i c_i u**i, checked to degree 4.
    roots = [L.gen("w1"), L.gen("w2")]
    V = VirtualClass(roots, mode="coh")
    u = L.gen("u")
    total_c = one
    for w in roots:
        total_c = (total_c * (1 + u * w)).truncate({"u"}, 4)
    total_s = laurent_sum(segre_class(V, j) * u**j for j in range(5))
    assert (total_c * total_s).truncate({"u"}, 4) == one


# -- residue variables never capture an input name ------------------------------


def _rename(x, old: str, new: str):
    """An element or a class with the variable ``old`` renamed ``new``."""
    if isinstance(x, VirtualClass):
        return VirtualClass([(_rename(w, old, new), s) for w, s in x.roots], x.mode)
    return x.subs(old, L.gen(new))


def _theta_residue(e_ab: VirtualClass, e_ba: VirtualClass):
    return ThetaKernel(e_ab, e_ba).residue()


_s, _h, _u, _t1 = L.gen("s"), L.gen("h"), L.gen("u"), L.gen("t1")


@pytest.mark.parametrize(
    ("call", "args", "name"),
    [
        (projective_pushforward_K, (_s**2, VirtualClass([z, _t1])), "z"),
        (projective_pushforward_K, (z * _s, VirtualClass([L.gen("t0")])), "z"),
        (projective_pushforward_symmetrized, (_s, VirtualClass([z, _t1])), "z"),
        (_theta_residue, (VirtualClass([z]), VirtualClass([(_t1, -1)])), "z"),
        (projective_pushforward_coh, (_h**2, VirtualClass([_u, _t1], mode="coh")), "u"),
        (rigidity_residue_coh, (VirtualClass([_u, _t1], mode="coh"),), "u"),
    ],
    ids=[
        "pushforward_K-root",
        "pushforward_K-f",
        "pushforward_symmetrized-root",
        "theta_residue-root",
        "pushforward_coh-root",
        "rigidity_residue_coh-root",
    ],
)
def test_input_named_like_the_residue_variable(call, args, name) -> None:
    # An input variable called z or u is an ordinary variable: the result is
    # the result for the same input with that variable renamed t9, renamed back.
    renamed = [_rename(a, name, "t9") for a in args]
    assert call(*args) == _rename(call(*renamed), "t9", name)


# -- theta coefficients ----------------------------------------------------------


def _gbinom(a: int, m: int) -> Fraction:
    acc = Fraction(1)
    for i in range(m):
        acc = acc * (a - i)
    return acc / math.factorial(m)


def test_theta_series_matches_closed_form() -> None:
    y = L.gen("y")
    for rk in range(-3, 5):
        closed = [theta_closed(rk, n) for n in range(7)]
        for order in range(7):
            series = theta_series(rk, order)
            assert series == laurent_sum(c * y**n for n, c in enumerate(closed[: order + 1]))
            assert theta_coefficients(rk, order) == closed[: order + 1]


def test_theta_series_matches_closed_form_negative_rank() -> None:
    assert theta_coefficients(-1, 4) == [theta_closed(-1, n) for n in range(5)]


def test_theta_series_of_a_class_with_a_root_that_is_no_monomial() -> None:
    b = L.gen("b")
    V = VirtualClass([2 * b + 1, (L.gen("w"), -1), b], mode="coh")
    for order in range(7):
        assert theta_coefficients(V, order) == [theta_closed(V, n) for n in range(order + 1)]


def test_theta_refuses_a_negative_order() -> None:
    for call in (theta_series, theta_coefficients):
        with pytest.raises(ValueError, match="order must be >= 0, got -1"):
            call(1, -1)


def test_theta_rank_follows_the_integer_rule() -> None:
    for rank in (2.7, True, "2"):
        with pytest.raises(ValueError, match="expected an integer"):
            theta_coefficients(rank, 3)
        with pytest.raises(ValueError, match="expected an integer"):
            theta_closed(rank, 2)
    assert theta_coefficients(Fraction(2), 3) == theta_coefficients(2, 3)


def test_theta_series_order_follows_the_integer_rule() -> None:
    # The order is read first: a coh-mode check on E never runs.
    k_class = VirtualClass([L.gen("a")])
    for order in (True, 2.0, "2"):
        for E in (2, k_class):
            with pytest.raises(ValueError, match="expected an integer"):
                theta_series(E, order)
    assert str(theta_series(2, Fraction(2))) == str(theta_series(2, 2))


def test_theta_coefficients_order_follows_the_integer_rule() -> None:
    for order in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="expected an integer"):
            theta_coefficients(2, order)
        with pytest.raises(ValueError, match="expected an integer"):
            theta_closed(2, order)
    assert theta_coefficients(2, Fraction(2)) == theta_coefficients(2, 2)
    assert theta_closed(2, Fraction(2)) == theta_closed(2, 2)


def test_theta_low_coefficients() -> None:
    ch1 = L.gen("ch1")
    for rk in (1, 2, 3):
        sign = 1 if rk % 2 == 0 else -1
        assert theta_closed(rk, 0) == L.const(sign)
        assert theta_closed(rk, 1) == -sign * rk * hbar
        assert theta_closed(rk, 2) == sign * (_gbinom(rk, 2) * hbar**2 - hbar * ch1)


def test_theta_hbar_divisibility() -> None:
    for rk in (1, 2, 3):
        for n in range(1, 7):
            assert theta_closed(rk, n).subs("hbar", 0) == L.zero()


def _cy_limit_oracle(E, n: int) -> L:
    """θ_{n+1}/hbar at hbar = 0, from the enumeration ``theta_closed``."""
    return exact_laurent_div(theta_closed(E, n + 1), hbar, "hbar").subs("hbar", 0)


_LIMIT_CLASSES = [
    VirtualClass((), mode="coh"),
    VirtualClass([L.gen("a") + hbar, (L.gen("b"), -1)], mode="coh"),
    VirtualClass([2 * L.gen("b") + 1, (L.gen("w"), -1), L.gen("b")], mode="coh"),
    VirtualClass([L.gen("y") + hbar, (Fraction(1, 2) * L.gen("a"), -1), hbar], mode="coh"),
]


def test_theta_cy_limit() -> None:
    for E in [*range(-3, 4), *_LIMIT_CLASSES]:
        for n in range(6):
            assert str(cy_limit_theta(E, n)) == str(_cy_limit_oracle(E, n))


def test_theta_cy_limit_reads_its_index_by_the_integer_rule() -> None:
    for n in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="expected an integer"):
            cy_limit_theta(2, n)
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"must be >= 0, got {n}"):
            cy_limit_theta(2, n)
    assert str(cy_limit_theta(2, Fraction(2))) == str(cy_limit_theta(2, 2))
    with pytest.raises(ModeMismatch):
        cy_limit_theta(VirtualClass([L.gen("a")]), 1)


def test_theta_coefficients_from_root_class() -> None:
    V = VirtualClass([L.gen("w1"), L.gen("w2")], mode="coh")
    assert theta_coefficients(V, 4) == [theta_closed(V, n) for n in range(5)]
    assert theta_closed(V, 1) == -2 * hbar
    assert theta_closed(V, 2) == hbar**2 - hbar * (L.gen("w1") + L.gen("w2"))


def test_theta_coefficients_reject_K_mode() -> None:
    with pytest.raises(ModeMismatch):
        theta_coefficients(VirtualClass([L.gen("t1")]), 2)


def _theta_by_products(E, order: int) -> L:
    """theta_series by the generic series route: with u = y/(1 - hbar·y),
    (-1)**rank·(1 - hbar·y)**rank·exp(-Σ_j (j-1)!·ch_j·(u**j - y**j)), from
    products and powers each truncated at y**order, 1/(1 - hbar·y) the
    geometric sum Σ_m (hbar·y)**m, the binomial a power of it when the rank
    is negative."""
    if isinstance(E, VirtualClass):
        rank, ch = E.rank, lambda p: chern_character(E, p)
    else:
        rank, ch = E, lambda p: L.gen(f"ch{p}")

    def cut(el: L) -> L:
        return el.truncate({"y"}, order)

    y = L.gen("y")
    geometric = [one]
    for _ in range(order):
        geometric.append(cut(geometric[-1] * hbar * y))
    ginv = laurent_sum(geometric)
    u = cut(y * ginv)
    terms, u_pow, y_pow = [], one, one
    for j in range(1, order + 1):
        u_pow, y_pow = cut(u_pow * u), cut(y_pow * y)
        terms.append(-math.factorial(j - 1) * ch(j) * (u_pow - y_pow))
    series = exp_times(laurent_sum(terms), [], {"y"}, order)
    base = one - hbar * y if rank >= 0 else ginv
    binom = one
    for _ in range(abs(rank)):
        binom = cut(binom * base)
    return cut((1 if rank % 2 == 0 else -1) * binom * series)


def _hypothesis_theta_inputs(hypothesis):
    """Integer ranks -5…6 at orders 0–8, and coh classes of up to three
    signed roots, linear forms in a, b and hbar with Fraction coefficients,
    at orders 0–6."""
    st = hypothesis.strategies
    coefficient = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    form = st.dictionaries(st.sampled_from(["a", "b", "hbar"]), coefficient, max_size=3)
    root = st.tuples(
        form.map(lambda f: laurent_sum(c * L.gen(v) for v, c in f.items())),
        st.sampled_from([1, -1]),
    )
    classes = st.lists(root, max_size=3).map(lambda roots: VirtualClass(roots, mode="coh"))
    return st.one_of(
        st.tuples(st.integers(-5, 6), st.integers(0, 8)),
        st.tuples(classes, st.integers(0, 6)),
    )


def test_theta_series_matches_the_product_route_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(_hypothesis_theta_inputs(hypothesis))
    def check(pair):
        E, order = pair
        got, want = theta_series(E, order), _theta_by_products(E, order)
        assert str(got) == str(want)

    check()


def test_theta_series_refuses_a_root_named_like_its_variable() -> None:
    # The product route reads such a root as part of the series variable,
    # so its coefficients are not θ_n; theta_closed has them, and so has
    # theta_coefficients, which runs the series in a primed variable.
    y, a = L.gen("y"), L.gen("a")
    V = VirtualClass([y, a], mode="coh")
    assert theta_closed(V, 2) == -a * hbar - hbar * y + hbar**2
    assert _theta_by_products(V, 2).coeff_of("y", 2) == -a * hbar + hbar**2
    with pytest.raises(ValueError, match="names y"):
        theta_series(V, 2)
    W = VirtualClass([(y + hbar, -1), L.monomial(1, {"y'": 1}), 2 * a], mode="coh")
    for E in (V, W):
        for order in range(6):
            got = theta_coefficients(E, order)
            assert list(map(str, got)) == [str(theta_closed(E, n)) for n in range(order + 1)]
    # The order is read first, then the mode.
    with pytest.raises(ValueError, match="order must be >= 0"):
        theta_series(V, -1)
    with pytest.raises(ModeMismatch):
        theta_series(VirtualClass([y]), 2)
