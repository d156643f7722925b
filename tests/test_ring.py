"""Oracle tests for the exact-arithmetic backbone."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wallx import ring
from wallx.errors import NonExpandable, NonzeroConstantTerm, PoleAtOne
from wallx.freelie import LieContext, LieElement, UEAElement, lyndon_words
from wallx.ring import (
    LaurentElement,
    RationalElement,
    SlopeValue,
    as_rational,
    exact_laurent_div,
    expand,
    expand_general,
    exp_times,
    fresh_name,
    integer_entry,
    laurent_sum,
    mul_terms,
    packed_algebra,
    residue_K,
    residue_coh,
    scaled_terms,
    slope_entry,
    specialize_kappa,
    sum_terms,
)

L = LaurentElement
z = L.gen("z")
w = L.gen("w")
u = L.gen("u")
t = L.gen("t")
x = L.gen("x")
one = L.const(1)


def _random_element(rng: random.Random, names: list[str], nterms: int = 4) -> L:
    acc = L.zero()
    for _ in range(nterms):
        exps = {v: Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for v in names}
        acc = acc + L.monomial(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), exps)
    return acc


def _random_regular(
    rng: random.Random, var: str, others: list[str], nterms: int = 4
) -> L:
    """Random element with only nonnegative powers of ``var``."""
    acc = L.zero()
    for _ in range(nterms):
        exps = {v: Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for v in others}
        exps[var] = Fraction(rng.randint(0, 3))
        acc = acc + L.monomial(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), exps)
    return acc


def _term_set(el: L) -> set:
    """The terms of ``el`` read through the public view, as a set."""
    return {(tuple(exps.items()), c) for exps, c in el.monomials()}


def _hypothesis_elements(hypothesis):
    """Random elements with half-integer exponents in k, t and z."""
    st = hypothesis.strategies
    exps = st.dictionaries(
        st.sampled_from("ktz"), st.integers(-4, 4).map(lambda n: Fraction(n, 2)), max_size=3
    )
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    return st.lists(st.tuples(exps, coeffs), max_size=6).map(
        lambda terms: laurent_sum(L.monomial(c, e) for e, c in terms)
    )


def _hypothesis_monomials(hypothesis):
    """Random nonzero monomials with half-integer exponents in k, t and z."""
    st = hypothesis.strategies
    exps = st.dictionaries(
        st.sampled_from("ktz"), st.integers(-4, 4).map(lambda n: Fraction(n, 2)), max_size=3
    )
    coeffs = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
    return st.builds(L.monomial, coeffs, exps)


# -- basic ring behaviour ------------------------------------------------------


def test_ring_axioms_on_randomized_elements() -> None:
    rng = random.Random(7)
    for _ in range(25):
        a = _random_element(rng, ["z", "t"])
        b = _random_element(rng, ["z", "k"])
        c = _random_element(rng, ["t", "k"])
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def test_half_integer_exponents_are_exact() -> None:
    k = L.monomial(1, {"k": Fraction(1, 2)})
    assert k * k == L.gen("k")
    assert k ** 2 == L.gen("k")
    assert str(k) == "k^(1/2)"


def test_monomial_refuses_a_float_exponent() -> None:
    with pytest.raises(TypeError, match="an exponent is an int or a Fraction"):
        L.monomial(1, {"a": -0.5})


def test_monomial_refuses_a_bool_exponent() -> None:
    with pytest.raises(TypeError, match="an exponent is an int or a Fraction"):
        L.monomial(1, {"a": True})


def test_coeff_of_refuses_a_float_exponent() -> None:
    with pytest.raises(TypeError, match="an exponent is an int or a Fraction"):
        L.gen("a").coeff_of("a", 1.0)
    assert L.gen("a").coeff_of("a", Fraction(1)) == L.gen("a").coeff_of("a", 1) == 1


def test_half_integer_power_matches_the_monomial_route_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exps = st.dictionaries(
        st.sampled_from("ktz"), st.integers(-4, 4).filter(bool).map(lambda n: Fraction(n, 2)),
        max_size=3,
    )

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(exps, st.integers(-5, 5).map(lambda n: Fraction(n, 2)))
    def check(e, p):
        if any((x * p).denominator > 2 for x in e.values()):
            with pytest.raises(ValueError, match="is not a half-integer"):
                L.monomial(1, e) ** p
            return
        assert L.monomial(1, e) ** p == L.monomial(1, {v: x * p for v, x in e.items()})

    check()


def test_half_integer_power_refuses_other_elements() -> None:
    with pytest.raises(ValueError, match="single-term"):
        (z + t) ** Fraction(1, 2)
    with pytest.raises(ValueError, match="single-term"):
        L.zero() ** Fraction(1, 2)
    with pytest.raises(ValueError, match="coefficient-1"):
        (2 * z) ** Fraction(1, 2)
    with pytest.raises(ValueError, match="coefficient-1"):
        (-z) ** Fraction(-1, 2)
    with pytest.raises(ValueError, match="exponent 1/4 of z is not a half-integer"):
        L.monomial(1, {"z": Fraction(1, 2)}) ** Fraction(1, 2)
    with pytest.raises(TypeError):
        z**0.5
    assert (z * z) ** Fraction(1, 2) == z
    assert z ** Fraction(3) == z**3


def test_monomial_division_is_exact() -> None:
    assert (z * t + z) / z == t + one
    assert (z / (2 * z)) == L.const(Fraction(1, 2))


def test_general_division_gives_rational_element() -> None:
    q = (one + z) / (one + t)
    assert isinstance(q, RationalElement)
    assert q * (one + t) == one + z


def test_rational_element_cancels_no_common_factor() -> None:
    f = RationalElement(one - t, t - one)
    assert f == -1
    assert not f.is_laurent()
    assert str(f) == "(1 - t) / (-1 + t)"


def test_unit_monomial_inverse_keeps_an_int_coefficient() -> None:
    for c in (1, -1):
        inv = (c * z * L.monomial(1, {"t": Fraction(-1, 2)})).monomial_inverse()
        assert _term_set(inv) == {((("t", Fraction(1, 2)), ("z", -1)), c)}
        assert all(type(coeff) is int for _, coeff in inv.monomials())
    assert (3 * z).monomial_inverse() * (3 * z) == one


def _content(el: L) -> dict:
    """The exponent-wise minimum over the terms of ``el``, a variable missing
    from a term counting as exponent 0 there."""
    names = {v for exps, _ in el.monomials() for v in exps}
    return {v: min(exps.get(v, 0) for exps, _ in el.monomials()) for v in names}


def test_rational_normalization_property() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    elements = _hypothesis_elements(hypothesis)
    monomials = _hypothesis_monomials(hypothesis)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(elements, elements.filter(bool), monomials)
    def check(num, den, m):
        f = RationalElement(num, den)
        assert all(e == 0 for e in _content(f.den).values())
        assert f.num * den == num * f.den
        if den.is_monomial():
            assert f.den == 1 and f.num == num / den
        assert f == RationalElement(num * m, den * m)

    check()


def test_rational_equality_beyond_a_common_factor_hypothesis() -> None:
    # A common factor c of several terms cancels in the comparison, and a
    # quotient moved by a nonzero monomial m stays unequal to the original.
    hypothesis = pytest.importorskip("hypothesis")
    elements = _hypothesis_elements(hypothesis)
    nonzero = elements.filter(bool)
    monomials = _hypothesis_monomials(hypothesis)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(elements, nonzero, nonzero.filter(lambda c: not c.is_monomial()), monomials)
    def check(a, b, c, m):
        f = RationalElement(a, b)
        assert RationalElement(a * c, b * c) == f
        moved = RationalElement(a * c + m * b * c, b * c)
        assert moved != f
        assert moved == f + m

    check()


def test_truncation_drops_high_order_terms() -> None:
    cube = (one + x) ** 3
    assert cube.truncate(["x"], 2) == one + 3 * x + 3 * x * x
    assert cube.truncate(["x"], 3) == cube
    assert cube.truncate(["x"], -1) == L.zero()


# -- the public view of the terms ------------------------------------------------


def test_monomials_give_natural_exponents() -> None:
    el = 3 * L.monomial(1, {"z": -2, "k": Fraction(1, 2)}) + Fraction(1, 2) * x - 4
    assert _term_set(el) == {
        ((("k", Fraction(1, 2)), ("z", -2)), 3),
        ((("x", 1),), Fraction(1, 2)),
        ((), -4),
    }
    for exps, _ in el.monomials():
        assert all(type(e) is (int if e.denominator == 1 else Fraction) for e in exps.values())
    assert list(L.zero().monomials()) == []


def test_rebuilding_from_monomials_is_the_identity_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(_hypothesis_elements(hypothesis))
    def check(el):
        rebuilt = laurent_sum(L.monomial(c, exps) for exps, c in el.monomials())
        assert rebuilt == el and str(rebuilt) == str(el)
        for exps, c in el.monomials():
            assert list(exps) == sorted(exps) and c != 0
            for e in exps.values():
                assert e != 0 and type(e) is (int if e.denominator == 1 else Fraction)

    check()


def test_truncate_keeps_the_terms_within_the_order_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        _hypothesis_elements(hypothesis),
        st.sets(st.sampled_from("ktz"), min_size=1),
        st.integers(-3, 3),
        st.sampled_from([1, -1]),
    )
    def check(el, names, n, sign):
        def kept(exps) -> bool:
            degree = sum(e for v, e in exps.items() if v in names)
            return degree <= n if sign > 0 else degree >= -n

        want = {(tuple(e.items()), c) for e, c in el.monomials() if kept(e)}
        assert _term_set(el.truncate(names, n, sign)) == want

    check()


# -- display -----------------------------------------------------------------------


def _str_oracle(el: L) -> str:
    """The rendering of ``LaurentElement.__str__`` term by term, reading each
    coefficient's sign and size apart: an independent route to its text."""
    if not el.terms:
        return "0"
    parts: list[str] = []
    for m, c in sorted(el.terms.items()):
        factors = []
        for v, e2 in m:
            if e2 == 2:
                factors.append(v)
            elif e2 % 2 == 0:
                factors.append(f"{v}^{e2 // 2}")
            else:
                factors.append(f"{v}^({e2}/2)")
        body = "*".join(factors)
        ac = abs(c)
        if body and ac == 1:
            text = body
        elif body:
            text = f"{ac}*{body}"
        else:
            text = str(ac)
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


def test_str_pins_signs_units_and_exponents() -> None:
    el = (
        Fraction(3, 4)
        - Fraction(1, 2) * L.monomial(1, {"x": Fraction(1, 2)})
        - L.monomial(1, {"y": -2})
    )
    assert str(el) == _str_oracle(el) == "3/4 - 1/2*x^(1/2) - y^-2"
    for el in (L.zero(), one, -one, x, -x, 1 - x, -x * z**3 + 1, 2 * x - Fraction(7, 3)):
        assert str(el) == _str_oracle(el)


def test_str_matches_the_oracle_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exps = st.dictionaries(
        st.sampled_from("kxyz"), st.integers(-5, 5).map(lambda n: Fraction(n, 2)), max_size=3
    )
    ints = st.integers(-40, 40)
    coeffs = st.one_of(st.sampled_from([1, -1]), ints, st.builds(Fraction, ints, st.integers(1, 12)))
    elements = st.lists(st.tuples(exps, coeffs), max_size=6).map(
        lambda terms: laurent_sum(L.monomial(c, e) for e, c in terms)
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(elements)
    def check(el):
        assert str(el) == _str_oracle(el)

    check()


# -- canonical form and truncated products -------------------------------------


def _canonical_coeff(c) -> bool:
    """An int, or a Fraction that is not integral: no float, bool or
    integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _assert_canonical(el: L) -> None:
    """The invariant every element keeps, however it was built."""
    assert L(dict(el.terms)).terms == el.terms
    for m, c in el.terms.items():
        assert _canonical_coeff(c) and c != 0
        assert m == tuple(sorted(m))
        assert len({v for v, _ in m}) == len(m)
        assert all(isinstance(e, int) and e != 0 for _, e in m)


def _operands(rng: random.Random, sign: int) -> list[L]:
    """Half-integer elements: whole, and cut by ``truncate`` with ``sign``
    on one or two variables at several orders."""
    out = [_random_element(rng, ["z", "t"]), _random_element(rng, ["z", "k"])]
    out.append(_random_element(rng, ["z", "t"]).truncate(["z"], 1, sign))
    out.append(_random_element(rng, ["z", "k"]).truncate(["z", "k"], 2, sign))
    out.append(_random_element(rng, ["t", "k"], nterms=6).truncate(["t"], 0, sign))
    return out


def _check_operations(a: L, b: L) -> None:
    results = [a + b, a - b, -a, a * 3, a * Fraction(-2, 3), a * 0, a * b]
    results.append(laurent_sum([a, b, -a, 2, b * b]))
    for el in results:
        _assert_canonical(el)


@pytest.mark.parametrize("sign", [1, -1])
def test_arithmetic_results_are_canonical(sign: int) -> None:
    rng = random.Random(40 + sign)
    for _ in range(6):
        operands = _operands(rng, sign)
        for a in operands:
            for b in operands:
                _check_operations(a, b)


def test_canonical_form_property() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponent = st.integers(-4, 4)  # doubled, so odd values are half-integers
    mono = st.dictionaries(st.sampled_from(["z", "t", "k"]), exponent, max_size=3)
    coeff = st.fractions(max_denominator=4).filter(bool)

    @st.composite
    def elements(draw, sign):
        terms = draw(st.lists(st.tuples(mono, coeff), max_size=5))
        el = L({tuple(m.items()): c for m, c in terms})
        names = draw(st.sets(st.sampled_from(["z", "t", "k"]), max_size=2))
        if names:
            el = el.truncate(names, draw(st.integers(-1, 3)), sign)
        return el

    signed_pairs = st.sampled_from([1, -1]).flatmap(
        lambda sign: st.tuples(elements(sign), elements(sign))
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(signed_pairs)
    def check(pair):
        _check_operations(*pair)

    check()


def test_laurent_sum_equals_folded_addition() -> None:
    rng = random.Random(5)
    for sign in (1, -1):
        items = _operands(rng, sign) + [Fraction(3, 2), 0, -1]
        folded = L.zero()
        for item in items:
            folded = folded + item
        assert laurent_sum(items).terms == folded.terms
    assert laurent_sum([]) == L.zero()


def _merged_product_oracle(a: L, b: L) -> L:
    """The product with each pair of monomials combined through
    a dict of exponents and sorted, the way monomials were once merged."""
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted((v, e) for v, e in exps.items() if e))
            out[m] = out.get(m, 0) + c1 * c2
    return L(out)


@pytest.mark.parametrize(
    "left_names, right_names",
    [
        (["a", "k"], ["a", "k"]),  # shared variables
        (["a", "b"], ["c", "d"]),  # disjoint, all of one before the other
        (["c", "d"], ["a", "b"]),
        (["a", "c", "e"], ["b", "d", "f"]),  # disjoint, interleaved
        (["a", "b", "k"], ["b", "c", "k"]),  # partly shared
        (["x", "x1", "x12", "x123"], ["x1", "x2", "x12", "x13"]),  # many names
    ],
)
def test_monomial_merge_matches_dict_and_sort(left_names, right_names) -> None:
    rng = random.Random(",".join(left_names + right_names))
    for _ in range(10):
        a = _random_element(rng, left_names, nterms=5)
        b = _random_element(rng, right_names, nterms=5)
        pairs = [(a, b), (b, a), (a, a)]
        for single in _single_terms(left_names[0], right_names[-1]):
            pairs += [(a, single), (single, b), (single, single)]
        for left, right in pairs:
            before = (dict(left.terms), dict(right.terms))
            product = left * right
            _assert_canonical(product)
            assert product == _merged_product_oracle(left, right)
            assert (left.terms, right.terms) == before


def _single_terms(first: str, second: str) -> list[L]:
    """One-term operands: the unit, a scalar constant and a monomial with
    half-integer exponents in ``first`` and ``second``."""
    exps = {first: Fraction(1, 2), second: Fraction(-3, 2)}
    return [one, L.const(Fraction(-3, 2)), L.monomial(Fraction(2, 3), exps)]


def test_monomial_merge_cancels_exponents() -> None:
    k = L.monomial(1, {"k": Fraction(1, 2)})
    abk = L.monomial(3, {"a": 1, "b": -2, "k": Fraction(-1, 2)})
    inverse = L.monomial(1, {"a": -1, "b": 2, "k": Fraction(1, 2)})
    assert (k * abk).terms == {(("a", 2), ("b", -4)): 3}
    assert (abk * inverse).terms == {(): 3}
    mixed = L.monomial(1, {"a": -1, "c": 1}) * abk
    assert mixed.terms == {(("b", -4), ("c", 2), ("k", -1)): 3}
    assert mixed == _merged_product_oracle(L.monomial(1, {"a": -1, "c": 1}), abk)


def test_truncated_product_matches_filtered_full_product() -> None:
    """``exp_times`` with 0-3 factors against the power-sum exponential
    times the factors' full product, cut once by ``truncate``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def inputs(draw):
        names, sign, order = draw(_hypothesis_window(hypothesis))
        g = draw(_hypothesis_series(hypothesis, names, sign))
        factor = _hypothesis_series(hypothesis, names, sign, constant=True)
        return g, draw(st.lists(factor, max_size=3)), names, order, sign

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(inputs())
    def check(args):
        g, factors, names, order, sign = args
        got = exp_times(g, factors, names, order, sign)
        full = _exp_oracle(g, names, order, sign)
        for factor in factors:
            full = full * factor
        want = full.truncate(names, order, sign)
        _assert_canonical(got)
        assert str(got) == str(want)

    check()


@pytest.mark.parametrize("sign", [1, -1])
def test_truncated_power_matches_filtered_full_power(sign: int) -> None:
    # A series of one-signed degree loses nothing to truncating each product.
    rng = random.Random(29 + sign)
    for _ in range(6):
        base = L.zero()
        for _ in range(4):
            exps = {"z": Fraction(sign * rng.randint(0, 4), 2)}
            exps["k"] = Fraction(rng.randint(-2, 2), 2)
            base = base + L.monomial(Fraction(rng.randint(-3, 3), 2), exps)
        series = base.truncate(["z"], 3, sign)
        power = one
        for k in range(5):
            _assert_canonical(power)
            assert power == (base**k).truncate(["z"], 3, sign)
            power = (power * series).truncate(["z"], 3, sign)


# -- expansion -----------------------------------------------------------------


def test_expand_geometric_series_at_zero() -> None:
    f = 1 / (one - z)
    assert expand(f, "zero", 3) == one + z + z**2 + z**3


def test_expand_geometric_series_at_infinity() -> None:
    f = 1 / (one - z)
    zi = L.monomial(1, {"z": -1})
    assert expand(f, "infinity", 3) == -zi - zi**2 - zi**3


def test_expand_laurent_polynomial_is_itself() -> None:
    f = z**2 + one + 3 * L.monomial(1, {"z": -1})
    assert expand(f, "zero", 5).terms == f.terms


def test_expand_is_multiplicative() -> None:
    # Multiplicativity to a common order requires both factors to be regular
    # at the expansion point: a pole in one factor would pull contributions
    # from beyond the other factor's truncation.  Keep z-exponents >= 0.
    rng = random.Random(21)
    for _ in range(10):
        n1 = _random_regular(rng, "z", ["t"], 3)
        n2 = _random_regular(rng, "z", ["t"], 3)
        f = as_rational(n1) / (1 - t * z)
        g = as_rational(n2) / (1 - z * t * t)
        lhs = (expand(f, "zero", 4) * expand(g, "zero", 4)).truncate(["z"], 4)
        rhs = expand(f * g, "zero", 4)
        assert lhs == rhs


def test_expand_handles_pole_at_origin() -> None:
    f = as_rational(one) / (z * (one - z))
    zi = L.monomial(1, {"z": -1})
    assert expand(f, "zero", 1) == zi + one + z


def test_expand_rejects_non_unit_denominator() -> None:
    f = as_rational(one) / (one - w - z)
    with pytest.raises(NonExpandable):
        expand(f, "zero", 3)


def test_expand_general_matches_strict_expand() -> None:
    f = as_rational(one + t) / (1 - t * z)
    got = expand_general(f, "zero", 3)
    strict = expand(f, "zero", 3)
    for e, coeff in got.items():
        assert coeff == as_rational(strict.coeff_of("z", e))


# -- series division against geometric powers ------------------------------------


def _powers(first: L, step: L, cut):
    """first, first·step, first·step², …, each product passed through
    ``cut``, through the first zero product."""
    term = first
    yield term
    while term:
        term = cut(term * step)
        yield term


def _valuation(el: L, var: str):
    """Least natural exponent of ``var`` over the terms of a nonzero element."""
    return min(exps.get(var, 0) for exps, _ in el.monomials())


def _negate(el: L, var: str) -> L:
    """``el`` with ``var -> var**-1``: its exponents of ``var`` negated."""
    terms = {
        tuple((v, -e) if v == var else (v, e) for v, e in m): c for m, c in el.terms.items()
    }
    return L(terms)


def _expand_by_powers(f: RationalElement, point: str, order: int, var: str) -> L:
    """``expand`` by summing geometric powers of the denominator's tail, then
    multiplying by the prefactor, each product truncated: the route that
    power-series division replaced."""
    num, den = f.num, f.den
    if point == "infinity":
        num, den = _negate(num, var), _negate(den, var)
    if not num.terms:
        return L.zero()
    shift = L.monomial(1, {var: -_valuation(den, var)})
    dshift = den * shift
    d0 = dshift.coeff_of(var, 0)
    assert d0.is_monomial()
    h = (dshift - d0) * d0.monomial_inverse()
    pref = num * d0.monomial_inverse() * shift
    inner = order - _valuation(pref, var)
    if inner < 0:
        out = L.zero()
    else:
        powers = _powers(one, -h, lambda el: el.truncate([var], inner))
        out = (pref * laurent_sum(powers)).truncate([var], order)
    return _negate(out, var) if point == "infinity" else out


def _random_term(rng: random.Random, others: list[str], var: str, e2: int) -> L:
    exps = {v: Fraction(rng.randint(-2, 2), 2) for v in others}
    exps[var] = Fraction(e2, 2)
    return L.monomial(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)), exps)


def _random_quotient(rng: random.Random, others: list[str]) -> RationalElement:
    """num/den in z with half-integer exponents, whose denominator has a
    single-monomial lowest and highest piece in z, so both points expand."""
    num = laurent_sum(
        _random_term(rng, others, "z", rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))
    )
    lo = rng.randint(-3, 2)
    hi = lo + rng.randint(1, 4)
    den = _random_term(rng, others, "z", lo) + _random_term(rng, others, "z", hi)
    for _ in range(rng.randint(0, 3)):
        if hi - lo > 1:
            den = den + _random_term(rng, others, "z", rng.randint(lo + 1, hi - 1))
    return RationalElement(num, den)


@pytest.mark.parametrize("others", [["t"], ["t", "k"]])
def test_expand_matches_geometric_powers(others: list[str]) -> None:
    rng = random.Random(61 + len(others))
    for _ in range(25):
        f = _random_quotient(rng, others)
        for point in ("zero", "infinity"):
            for order in range(5):
                got = expand(f, point, order)
                _assert_canonical(got)
                assert got == _expand_by_powers(f, point, order, "z")


def test_series_division_property() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    half = st.integers(-2, 2)

    def term(var_e2):
        return st.builds(
            lambda c, e2, et, ek: L({(("k", ek), ("t", et), ("z", e2)): c}),
            coeff, var_e2, half, half,
        )

    @st.composite
    def quotients(draw):
        lo = draw(st.integers(-3, 2))
        hi = draw(st.integers(lo + 1, lo + 4))
        num = laurent_sum(draw(st.lists(term(st.integers(-3, 3)), min_size=1, max_size=4)))
        den = draw(term(st.just(lo))) + draw(term(st.just(hi)))
        if hi - lo > 1:
            middle = st.lists(term(st.integers(lo + 1, hi - 1)), max_size=3)
            den = den + laurent_sum(draw(middle))
        return RationalElement(num, den)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(quotients(), st.sampled_from(["zero", "infinity"]), st.integers(0, 4))
    def check(f, point, order):
        got = expand(f, point, order)
        _assert_canonical(got)
        assert got == _expand_by_powers(f, point, order, "z")

    check()


# -- the LaurentElement series division, kept as an oracle ----------------------


def _graded_oracle(el: L, names: set, sign: int) -> dict[int, L]:
    """``el`` split by ``sign`` times its total doubled degree in ``names``."""
    pieces: dict[int, list] = {}
    for exps, c in el.monomials():
        d = sign * int(2 * sum(e for v, e in exps.items() if v in names))
        pieces.setdefault(d, []).append(L.monomial(c, exps))
    return {d: laurent_sum(p) for d, p in pieces.items()}


def _series_div_oracle(num: L, den: L, names: set, sign: int, top: int) -> L:
    """num/den up to graded degree ``top`` by the recurrence
    q_n = p_n - Σ_e h_e·q_{n-e} with every piece, step product and partial
    sum a ``LaurentElement``: the route ``ring`` took before its series
    division ran on raw dicts."""
    den_pieces = _graded_oracle(den, names, sign)
    low = min(den_pieces)
    lead = den_pieces.pop(low)
    if not lead.is_monomial():
        raise NonExpandable("lowest piece is not a single monomial")
    lead_inv = lead.monomial_inverse()
    steps = [(e - low, -(p * lead_inv)) for e, p in sorted(den_pieces.items())]
    pref = _graded_oracle(num * lead_inv, names, sign)
    quot: dict[int, L] = {}
    for n in range(min(pref), top + 1):
        items = [pref[n]] if n in pref else []
        for e, step in steps:
            prev = quot.get(n - e)
            if prev is not None:
                items.append(step * prev)
        piece = laurent_sum(items)
        if piece:
            quot[n] = piece
    return laurent_sum(quot.values())


def _expand_oracle(f: RationalElement, point: str, order: int, var: str) -> L:
    if not f.num:
        return L.zero()
    sign = 1 if point == "zero" else -1
    return _series_div_oracle(f.num, f.den, {var}, sign, 2 * order)


def _residue_K_oracle(f: RationalElement, var: str) -> L:
    at_zero = _expand_oracle(f, "zero", 0, var).coeff_of(var, 0)
    return _expand_oracle(f, "infinity", 0, var).coeff_of(var, 0) - at_zero


def _residue_coh_oracle(f: RationalElement, var: str) -> L:
    return _expand_oracle(f, "infinity", 1, var).coeff_of(var, -1)


def _hypothesis_binomial_quotients(hypothesis):
    """z**k / (a product of 1-4 binomials in z), k in -6..6, with
    half-integer exponents and monomial coefficients in k, t and x; each
    binomial has two distinct degrees in z, so the product's lowest
    and highest pieces are single monomials and both points expand."""
    st = hypothesis.strategies
    half = st.integers(-3, 3).map(lambda n: Fraction(n, 2))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    others = st.dictionaries(st.sampled_from("ktx"), half, max_size=3)

    @st.composite
    def binomial(draw):
        lo = draw(half)
        hi = lo + draw(st.integers(1, 4).map(lambda n: Fraction(n, 2)))
        low = L.monomial(draw(coeffs), {**draw(others), "z": lo})
        return low + L.monomial(draw(coeffs), {**draw(others), "z": hi})

    @st.composite
    def quotient(draw):
        den = one
        for factor in draw(st.lists(binomial(), min_size=1, max_size=4)):
            den = den * factor
        return RationalElement(L.monomial(1, {"z": draw(st.integers(-6, 6))}), den)

    return quotient()


def test_series_division_matches_the_element_oracle_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(_hypothesis_binomial_quotients(hypothesis), st.integers(0, 3))
    def check(f, order):
        for point in ("zero", "infinity"):
            got = expand(f, point, order)
            _assert_canonical(got)
            assert got == _expand_oracle(f, point, order, "z")
        for got, want in (
            (residue_K(f), _residue_K_oracle(f, "z")),
            (residue_coh(f, var="z"), _residue_coh_oracle(f, "z")),
        ):
            _assert_canonical(got)
            assert got == want

    check()


# -- factored quotients against one division by the expanded denominator -------


def _single_division_oracle(f: RationalElement, point: str, order: int, var: str) -> L:
    """``expand`` by one division by the expanded denominator ``f.den``, the
    route ``ring`` took before a quotient kept its factors; it raises what
    ``expand`` raises when the lowest piece of ``f.den`` is not a monomial."""
    pieces = _graded_oracle(f.den, {var}, 1 if point == "zero" else -1)
    if not pieces[min(pieces)].is_monomial():
        raise NonExpandable(f"denominator constant term in {var!r} is not a single monomial")
    return _expand_oracle(f, point, order, var)


def _hypothesis_factored_quotients(hypothesis):
    """num / (1-4 factors) in z, built with ``/`` one factor at a time: the
    factors are binomials 1 - m with m of nonzero degree in z, linear forms
    z + w and ê-factors M^-1 - M, with half-integer exponents and monomial
    coefficients in k, t and x, so both points expand."""
    st = hypothesis.strategies
    half = st.integers(-3, 3).map(lambda n: Fraction(n, 2))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    others = st.dictionaries(st.sampled_from("ktx"), half, max_size=3)
    in_z = half.filter(bool)
    factor = st.one_of(
        st.builds(lambda c, e, z2: one - L.monomial(c, {**e, "z": z2}), coeffs, others, in_z),
        st.builds(lambda c, e: z + L.monomial(c, e), coeffs, others),
        st.builds(
            lambda e, z2: L.monomial(1, {**e, "z": -z2}) - L.monomial(1, {**e, "z": z2}),
            others,
            in_z,
        ),
    )
    term = st.builds(lambda c, e, z2: L.monomial(c, {**e, "z": z2}), coeffs, others, half)

    @st.composite
    def quotient(draw):
        f = as_rational(laurent_sum(draw(st.lists(term, min_size=1, max_size=3))))
        for den in draw(st.lists(factor, min_size=1, max_size=4)):
            f = f / den
        return f

    return quotient()


def test_factored_quotients_match_one_division_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(_hypothesis_factored_quotients(hypothesis), st.integers(0, 3))
    def check(f, order):
        for point in ("zero", "infinity"):
            got = expand(f, point, order)
            _assert_canonical(got)
            assert got == _single_division_oracle(f, point, order, "z")
        for got, want in (
            (residue_K(f), _residue_K_oracle(f, "z")),
            (residue_coh(f, var="z"), _residue_coh_oracle(f, "z")),
        ):
            _assert_canonical(got)
            assert got == want

    check()


def test_factored_quotient_refuses_as_one_division_does(monkeypatch) -> None:
    """The last factor's lowest piece at zero is 1 + a: ``expand`` at zero
    raises what one division raises, also where the numerator lies above
    the order, and ``residue_K`` takes the ``expand_general`` fallback."""
    a = L.gen("a")
    f = as_rational(z**3) / (one - t * z) / (one + a + z)
    for order in (0, 2, 4):
        with pytest.raises(NonExpandable) as got:
            expand(f, "zero", order)
        with pytest.raises(NonExpandable) as want:
            _single_division_oracle(f, "zero", order, "z")
        assert str(got.value) == str(want.value)
    assert expand(f, "infinity", 2) == _expand_oracle(f, "infinity", 2, "z")
    assert residue_coh(f, var="z") == _residue_coh_oracle(f, "z")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return expand_general(*args, **kwargs)

    monkeypatch.setattr(ring, "expand_general", counted)
    t_inv = t.monomial_inverse()
    assert residue_K(f) == a * t_inv + t_inv - t_inv * t_inv
    assert calls


def test_factored_quotient_with_the_numerator_above_the_order() -> None:
    """z^4 over factors whose lowest degrees at zero are 0, 0 and -1/2: the
    expansion at zero starts at z^(9/2)."""
    ehat = L.monomial(1, {"z": Fraction(-1, 2), "t": Fraction(1, 2)}) - L.monomial(
        1, {"z": Fraction(1, 2), "t": Fraction(-1, 2)}
    )
    f = as_rational(z**4) / (one - t * z) / (z + x) / ehat
    for order in range(7):
        got = expand(f, "zero", order)
        assert got == _single_division_oracle(f, "zero", order, "z")
        assert bool(got) == (order >= 5)
    assert residue_K(f) == _residue_K_oracle(f, "z")
    assert residue_coh(f, var="z") == _residue_coh_oracle(f, "z")


def test_factored_quotient_with_a_zero_numerator() -> None:
    f = as_rational(0) / (one - t * z) / (z + x)
    assert not f and not f.is_laurent()
    for point in ("zero", "infinity"):
        assert expand(f, point, 2) == L.zero()
    assert residue_K(f) == L.zero() and residue_coh(f, var="z") == L.zero()


def test_rational_element_keeps_its_printed_form() -> None:
    """``den`` is the expanded product of the factors, each with its
    monomial content moved into ``num``; strings from the single-division
    implementation."""
    f = as_rational(one) / (z * t - z * z) / (one - x * z.monomial_inverse())
    assert f.num == one and f.den == (t - z) * (z - x)
    assert all(e == 0 for e in _content(f.den).values())
    assert str(f) == "(1) / (-t*x + t*z + x*z - z^2)"
    assert str(RationalElement(one - t, t - one)) == "(1 - t) / (-1 + t)"
    a = RationalElement(one + z, one - t * z)
    b = RationalElement(x, z + t)
    c = RationalElement(one - x * z, one + x)
    assert (a / b) / c == a / (b * c)
    assert str((a / b) / c) == str(a / (b * c)) == (
        "(t + t*x^-1 + t*x^-1*z + t*z + x^-1*z + x^-1*z^2 + z + z^2)"
        " / (1 + t*x*z^2 - t*z - x*z)"
    )


# -- residues ------------------------------------------------------------------


def test_residue_K_of_z_free_element_is_zero() -> None:
    assert residue_K(t + one) == L.zero()


def test_residue_K_of_laurent_monomials_vanishes() -> None:
    for k in range(-3, 4):
        assert residue_K(L.monomial(5, {"z": k})) == L.zero()


def test_residue_K_geometric() -> None:
    assert residue_K(1 / (one - z)) == L.const(-1)


def test_residue_K_geometric_with_weight() -> None:
    assert residue_K(1 / (one - t * z)) == L.const(-1)


def test_residue_K_matches_sum_of_finite_pole_residues() -> None:
    # For f = P(z) / prod_i (1 - t_i z) with distinct symbolic weights, the
    # residue map equals sum_i -P(1/t_i) / prod_{j != i} (1 - t_j/t_i).
    rng = random.Random(5)
    names = ["t1", "t2", "t3"]
    for _ in range(6):
        p = L.zero()
        for k in range(-2, 3):
            p = p + L.monomial(Fraction(rng.randint(-4, 4)), {"z": k})
        den = one
        for v in names:
            den = den * (one - L.gen(v) * z)
        f = as_rational(p) / den
        total = as_rational(0)
        for i, v in enumerate(names):
            ti = L.gen(v)
            pz = p.subs("z", ti.monomial_inverse())
            rest = one
            for j, vj in enumerate(names):
                if j != i:
                    rest = rest * (one - L.gen(vj) / ti)
            total = total - as_rational(pz) / rest
        assert total == as_rational(residue_K(f))


def test_residue_coh_examples() -> None:
    zeta = L.gen("c")
    assert residue_coh(u**2, var="u") == L.zero()
    assert residue_coh(L.monomial(1, {"u": -1}), var="u") == one
    assert residue_coh(1 / (u + zeta), var="u") == one
    assert residue_coh(as_rational(one) / ((u + zeta) * (u + zeta)), var="u") == L.zero()


# Denominators whose leading or constant coefficient is 1 + a, not a
# monomial, so ``expand`` refuses them and the residues fall back to
# ``expand_general``.  The values are taken by hand from the two expansions.
one_plus_a = one + L.gen("a")
GENERAL_RESIDUES = [
    (residue_K, as_rational(one) / (one_plus_a * z - one), "z", one),
    (
        residue_K,
        as_rational(one) / (z * (z + one_plus_a)),
        "z",
        as_rational(one) / (one_plus_a * one_plus_a),
    ),
    (residue_coh, as_rational(one) / (one_plus_a * u * u + u), "u", L.zero()),
    (
        residue_K,
        as_rational(z * z) / ((one_plus_a * z - one) * (one_plus_a * z - one)),
        "z",
        as_rational(one) / (one_plus_a * one_plus_a),
    ),
]


@pytest.mark.parametrize(
    "residue, f, var, expected",
    GENERAL_RESIDUES,
    ids=["K-simple-pole", "K-pole-at-zero", "coh-double-zero", "K-double-pole"],
)
def test_residues_through_expand_general(
    monkeypatch, residue, f, var, expected
) -> None:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return expand_general(*args, **kwargs)

    monkeypatch.setattr(ring, "expand_general", counted)
    got = residue(f, var=var)
    assert calls
    assert type(got) is type(expected) and got == expected


def _recurrence_oracle(f: RationalElement, point: str, order: int, var: str) -> dict:
    """``expand_general`` by the recurrence s_j = (n_j - Σ_i d_i·s_{j-i}) / d_0
    on ``RationalElement`` coefficients, which never takes a gcd: the route
    ``expand_general`` took before it ran the series division."""
    num, den = f.num, f.den
    if point == "infinity":
        num, den = _negate(num, var), _negate(den, var)
    if not num:
        return {}
    cn, cd = _coeffs_by(num, var), _coeffs_by(den, var)
    vn, vd = min(cn), min(cd)
    ncoeffs = {int(2 * (e - vn)): c for e, c in cn.items()}
    dcoeffs = {int(2 * (e - vd)): as_rational(c) for e, c in cd.items()}
    lead = int(2 * (vn - vd))
    out: dict = {}
    series: dict = {}
    for j in range(max(2 * order - lead, -1) + 1):
        s = as_rational(ncoeffs.get(j, L.zero()))
        for i in range(1, j + 1):
            if i in dcoeffs and j - i in series:
                s = s - dcoeffs[i] * series[j - i]
        series[j] = s / dcoeffs[0]
        if series[j]:
            e = Fraction(lead + j, 2)
            out[-e if point == "infinity" else e] = series[j]
    return out


def test_expand_general_matches_the_recurrence_hypothesis() -> None:
    """num/den in z whose lowest and highest pieces in z both have two
    terms, so neither point has a monomial lead; half-integer exponents
    and coefficients in a and t included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    half = st.integers(-2, 2).map(lambda n: Fraction(n, 2))
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))
    others = st.dictionaries(st.sampled_from("at"), half, min_size=1, max_size=2)

    def term(e):
        return st.builds(lambda c, exps: L.monomial(c, {**exps, "z": e}), coeffs, others)

    @st.composite
    def quotient(draw):
        lo = draw(half)
        hi = lo + Fraction(draw(st.integers(1, 3)), 2)
        num = laurent_sum(draw(st.lists(term(draw(half)), min_size=1, max_size=3)))
        den = laurent_sum(draw(term(e)) for e in (lo, lo, hi, hi))
        if hi - lo > Fraction(1, 2):
            den = den + draw(term(lo + Fraction(1, 2)))
        pieces = _coeffs_by(den, "z")
        leads = (pieces[min(pieces)], pieces[max(pieces)])
        hypothesis.assume(num and len(pieces) > 1 and not any(p.is_monomial() for p in leads))
        return RationalElement(num, den)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(quotient(), st.sampled_from(["zero", "infinity"]), st.integers(0, 3))
    def check(f, point, order):
        got = expand_general(f, point, order)
        want = _recurrence_oracle(f, point, order, "z")
        assert got.keys() == want.keys()
        for e, value in got.items():
            assert value == want[e]

    check()


def test_residues_through_expand_general_match_sympy() -> None:
    sympy = pytest.importorskip("sympy")
    s_a, s_var, s_w = sympy.symbols("a var w")

    def series_coeff(expr, power):
        series = sympy.series(expr, s_w, 0, power + 1).removeO()
        return sympy.expand(series).coeff(s_w, power)

    for residue, f, var, _ in GENERAL_RESIDUES:
        text = f"({f.num}) / ({f.den})".replace("^", "**")
        expr = sympy.sympify(text, locals={"a": s_a, var: s_var})
        at_inf = expr.subs(s_var, 1 / s_w)
        if residue is residue_K:
            expected = series_coeff(at_inf, 0) - series_coeff(expr.subs(s_var, s_w), 0)
        else:
            expected = series_coeff(at_inf, 1)
        value = sympy.sympify(str(residue(f, var=var)).replace("^", "**"), {"a": s_a})
        assert sympy.simplify(value - expected) == 0


# -- a sympy oracle for expansions and residues --------------------------------
#
# Every variable but the residue variable takes a seeded exact value that is a
# rational square, p**2, so that its half powers are the rationals p**n; the
# residue variable is w**2, so that its half powers are powers of w.  Both
# sides are read at that point: wallx's answer after it is computed, sympy's
# function before it expands it.


def _sympy_point(sympy, rng: random.Random, names) -> dict:
    return {v: sympy.Rational(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 7])) for v in names}


def _sympy_value(sympy, el, point: dict, w=None, var=None):
    """``el`` (a Laurent or rational element) as a sympy expression: ``var``
    = w**2 and every other variable v = point[v]**2."""
    if isinstance(el, RationalElement):
        num = _sympy_value(sympy, el.num, point, w, var)
        return num / _sympy_value(sympy, el.den, point, w, var)
    total = sympy.Integer(0)
    for exps, c in el.monomials():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in exps.items():
            term *= (w if v == var else point[v]) ** int(2 * e)
        total += term
    return total


def _sympy_terms(sympy, expr, w) -> dict:
    """{degree: coefficient} of a Laurent polynomial in ``w``, nonzero only."""
    poly = sympy.Poly(sympy.expand(expr * w**64), w)
    return {e - 64: c for (e,), c in poly.terms() if c}


def _sympy_series(sympy, expr, w, top: int) -> dict:
    """{degree: coefficient} of the Laurent series of ``expr``, a quotient
    of Laurent polynomials in ``w``, around w = 0 up to w**top: numerator
    times the inverse of the denominator modulo a power of w, which sympy
    takes by the extended Euclidean algorithm."""

    def shifted(part):
        terms = _sympy_terms(sympy, part, w)
        low = min(terms)
        return low, sympy.Poly(sum(c * w ** (e - low) for e, c in terms.items()), w)

    num, den = sympy.fraction(sympy.together(expr))
    (vn, pn), (vd, pd) = shifted(num), shifted(den)
    n = top - (vn - vd) + 1
    if n <= 0:
        return {}
    mod = sympy.Poly(w**n, w)
    series = (pn * pd.invert(mod)).rem(mod)
    return {e + vn - vd: c for (e,), c in series.terms() if c}


def _sympy_expansions(sympy, expr, w, order2: int) -> tuple:
    """``expr`` in ``w`` expanded around 0 and around infinity, up to degree
    ``order2`` in w and in 1/w, each as {degree in w: coefficient}."""
    at_inf = _sympy_series(sympy, expr.subs(w, 1 / w), w, order2)
    return _sympy_series(sympy, expr, w, order2), {-e: c for e, c in at_inf.items()}


def _sympy_residues(sympy, expr, w) -> tuple:
    """(residue_K, residue_coh) of ``expr`` with its variable at w**2: the
    w**0 coefficients at infinity minus at 0, and the w**-2 coefficient at
    infinity."""
    at_zero, at_inf = _sympy_expansions(sympy, expr, w, 2)
    return at_inf.get(0, 0) - at_zero.get(0, 0), at_inf.get(-2, 0)


def _random_rational(rng: random.Random, others: list[str]) -> RationalElement:
    """num/den in z with half-integer exponents; one time in four the lowest
    piece of the denominator has two terms, so the residues go through
    ``expand_general``."""
    f = _random_quotient(rng, others)
    if rng.random() < 0.25:
        lowest = min(e for exps, _ in f.den.monomials() for v, e in exps.items() if v == "z")
        extra = _random_term(rng, others, "z", int(2 * lowest))
        f = RationalElement(f.num, f.den + extra)
    return f


def test_expand_and_residues_match_sympy() -> None:
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    rng = random.Random(29)
    others = ["k", "t"]
    for _ in range(40):
        f = _random_rational(rng, others)
        point = _sympy_point(sympy, rng, others)
        expr = _sympy_value(sympy, f, point, w, "z")
        want_K, want_coh = _sympy_residues(sympy, expr, w)
        assert _sympy_value(sympy, residue_K(f), point) == want_K
        assert _sympy_value(sympy, residue_coh(f, var="z"), point) == want_coh
        order = rng.randint(0, 2)
        try:
            got = [expand(f, p, order) for p in ("zero", "infinity")]
        except NonExpandable:
            continue
        want = _sympy_expansions(sympy, expr, w, 2 * order)
        for g, e in zip(got, want):
            assert _sympy_terms(sympy, _sympy_value(sympy, g, point, w, "z"), w) == e


def test_specialize_kappa_matches_sympy() -> None:
    """P·(k^(1/2) - 1)^a / (Q·(k^(1/2) - 1)^b) with a >= b: the value at
    κ = 1 is the limit at w = 1 of the same function with κ = w**2."""
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    rng = random.Random(31)
    root = L.monomial(1, {"k": Fraction(1, 2)}) - one
    checked = 0
    while checked < 20:
        p = _random_element(rng, ["k", "t"], 3)
        q = _random_element(rng, ["k", "t"], 3)
        b = rng.randint(0, 2)
        a = b + rng.randint(0, 1)
        if not p or not q:
            continue
        point = _sympy_point(sympy, rng, ["t"])
        num, den = _sympy_value(sympy, p, point, w, "k"), _sympy_value(sympy, q, point, w, "k")
        if num.subs(w, 1) == 0 or den.subs(w, 1) == 0:
            continue
        f = RationalElement(p * root**a, q * root**b)
        want = sympy.cancel(_sympy_value(sympy, f, point, w, "k")).subs(w, 1)
        assert _sympy_value(sympy, specialize_kappa(f), point) == want
        checked += 1


def test_pushforwards_with_roots_named_z_or_u_match_sympy() -> None:
    """Roots that name the default residue variables: the pushforwards pick
    a fresh one, and sympy takes the residue with its own symbol."""
    sympy = pytest.importorskip("sympy")
    from wallx.kclasses import (
        VirtualClass,
        projective_pushforward_coh,
        projective_pushforward_K,
    )

    w = sympy.Symbol("w")
    rng = random.Random(37)
    point = _sympy_point(sympy, rng, ["z", "u", "t", "q"])
    roots_K = [z, z * t, L.gen("q").monomial_inverse()]
    V = VirtualClass(roots_K)
    den = 1
    for root in roots_K:
        den *= 1 - 1 / (w * w * _sympy_value(sympy, root, point))
    for k in range(-4, 5):
        got = projective_pushforward_K(L.monomial(1, {"s": k}), V)
        want, _ = _sympy_residues(sympy, w ** (2 * k) / den, w)
        assert _sympy_value(sympy, got, point) == want
    roots_coh = [u, 2 * u - t, t + L.gen("q")]
    V = VirtualClass(roots_coh, mode="coh")
    den = 1
    for root in roots_coh:
        den *= w * w + _sympy_value(sympy, root, point)
    for k in range(0, 6):
        got = projective_pushforward_coh(L.monomial(1, {"h": k}), V)
        _, want = _sympy_residues(sympy, w ** (2 * k) / den, w)
        assert _sympy_value(sympy, got, point) == want


# -- series exponential --------------------------------------------------------
#
# exp(g) alone is ``exp_times(g, [], names, order, sign)``; the
# ``plethystic_exp`` tests keep the name of the wrapper that computed it before.


def _exp_oracle(g: L, names, order: int, sign: int = 1) -> L:
    """exp g = Σ_m g^m/m! in the window of ``truncate(names, order, sign)``
    for a g with no constant term, each power truncated explicitly, summed
    until a power is truncated away."""

    def cut(el: L) -> L:
        return el.truncate(names, order, sign)

    g = cut(g)
    term, out, m = cut(one), cut(one), 0
    while True:
        m += 1
        term = cut(term * g) / m
        if not term:
            return out
        out = out + term


def _hypothesis_window(hypothesis):
    """A window of ``truncate``: 1-3 names, a sign and an order 0-4."""
    st = hypothesis.strategies
    names = st.lists(st.sampled_from("abx"), min_size=1, max_size=3, unique=True)
    return st.tuples(names, st.sampled_from((1, -1)), st.integers(0, 4))


def _hypothesis_series(hypothesis, names, sign: int, constant: bool = False):
    """Elements whose terms have half-integer exponents of ``sign`` in
    ``names``, not all zero unless ``constant``, and of any sign in a
    passenger ``c``, with int and Fraction coefficients; total degrees run
    past any order of ``_hypothesis_window``."""
    st = hypothesis.strategies
    exps = st.fixed_dictionaries(
        {v: st.integers(0, 4).map(lambda n: Fraction(sign * n, 2)) for v in names},
        optional={"c": st.integers(-3, 3).map(lambda n: Fraction(n, 2))},
    ).filter(lambda e: constant or any(e[v] for v in names))
    coeffs = st.one_of(
        st.integers(-4, 4).filter(bool),
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    return st.lists(st.tuples(exps, coeffs), max_size=5).map(
        lambda terms: laurent_sum(L.monomial(c, e) for e, c in terms)
    )


def _hypothesis_exp_inputs(hypothesis):
    """A window and two series for it, as ``exp_times`` takes them."""
    st = hypothesis.strategies

    @st.composite
    def inputs(draw):
        names, sign, order = draw(_hypothesis_window(hypothesis))
        series = _hypothesis_series(hypothesis, names, sign)
        return draw(series), draw(series), names, order, sign

    return inputs()


def test_plethystic_exp_matches_the_power_sum_oracle_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(_hypothesis_exp_inputs(hypothesis))
    def check(args):
        a, b, *window = args
        got = exp_times(a, [], *window)
        want = _exp_oracle(a, *window)
        assert got == want and str(got) == str(want)
        product = exp_times(a, [], *window) * exp_times(b, [], *window)
        assert exp_times(a + b, [], *window) == product.truncate(*window)

    check()


def test_exp_times_is_the_factor_times_the_exponential_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(_hypothesis_exp_inputs(hypothesis))
    def check(args):
        a, b, *window = args
        factor = b + 2
        want = (factor * exp_times(a, [], *window)).truncate(*window)
        for f in (factor, factor.truncate(*window)):
            assert str(exp_times(a, [f], *window)) == str(want)

    check()


def test_exp_times_refuses_a_factor_it_cannot_truncate() -> None:
    with pytest.raises(ValueError, match="factor"):
        exp_times(x, [1 + x, 1 + x.monomial_inverse()], ["x"], 3)
    assert exp_times(L.zero(), [1 + x], ["x"], 3) == 1 + x
    assert exp_times(L.zero(), [1 + x, 1 + x], ["x"], 1) == 1 + 2 * x


def test_plethystic_exp_of_half_integer_degrees() -> None:
    g = L.monomial(1, {"x": Fraction(1, 2)}) + 2 * x
    assert exp_times(g, [], ["x"], 2) == _exp_oracle(g, ["x"], 2)
    got = exp_times(g, [], ["x"], 2).coeff_of("x", Fraction(3, 2))
    assert got == L.const(Fraction(13, 6))


def test_plethystic_exp_of_zero() -> None:
    assert exp_times(L.zero(), [], ["x"], 4) == one


def test_plethystic_exp_of_minus_log_series() -> None:
    g = -x - x * x / 2 - x * x * x / 3
    assert exp_times(g, [], ["x"], 3) == one - x


def _log_oracle(f: L, names, order: int) -> L:
    """log f = Σ_{m≥1} (-1)^(m+1)·(f - 1)^m / m in the window of
    ``truncate(names, order)`` for a series with constant term 1, each power
    truncated explicitly, summed until a power is truncated away."""
    h = f - L.const(1)
    power, out, m = one, L.zero(), 0
    while True:
        m += 1
        power = (power * h).truncate(names, order)
        if not power:
            return out
        out = out + Fraction((-1) ** (m + 1), m) * power


def test_plethystic_log_roundtrip() -> None:
    g = x + 5 * x * x
    assert _log_oracle(exp_times(g, [], ["x"], 2), ["x"], 2) == g
    g = x - 3 * x * t + Fraction(1, 2) * t * t
    assert _log_oracle(exp_times(g, [], ["x", "t"], 3), ["x", "t"], 3) == g


def test_plethystic_exp_rejects_constant_term() -> None:
    with pytest.raises(NonzeroConstantTerm):
        exp_times(one + x, [], ["x"], 3)


def test_plethystic_exp_refuses_a_term_below_degree_zero() -> None:
    # Powers of x**-1 never pass the truncation: this used to loop forever.
    with pytest.raises(NonExpandable):
        exp_times(x.monomial_inverse(), [], ["x"], 3)
    with pytest.raises(NonExpandable):
        exp_times(x * x, [], ["x"], 3, -1)


# -- specialization at kappa = 1 -----------------------------------------------


def _quantum_integer_by_hand(n: int) -> L:
    # [n] = (-1)^(n-1) * sum_{j=0}^{n-1} k^((n-1-2j)/2) for n > 0.
    acc = L.zero()
    for j in range(n):
        acc = acc + L.monomial(1, {"k": Fraction(n - 1 - 2 * j, 2)})
    return Fraction((-1) ** (n - 1)) * acc


def test_fresh_name_primes_until_unused() -> None:
    z = L.gen("z")
    assert fresh_name("z", [L.gen("t1")]) == "z"
    assert fresh_name("z", [z * L.gen("z'"), L.gen("u")]) == "z''"


def test_specialize_kappa_symmetric_pair() -> None:
    f = L.monomial(1, {"k": Fraction(1, 2)}) + L.monomial(1, {"k": Fraction(-1, 2)})
    assert specialize_kappa(f) == L.const(2)


def test_specialize_kappa_of_quantum_integers() -> None:
    for n in range(1, 7):
        assert specialize_kappa(_quantum_integer_by_hand(n)) == L.const((-1) ** (n - 1) * n)


def test_specialize_kappa_pole() -> None:
    k = L.gen("k")
    with pytest.raises(PoleAtOne):
        specialize_kappa(1 / (one - k))


def test_specialize_kappa_removable_singularities() -> None:
    k = L.gen("k")
    khalf = L.monomial(1, {"k": Fraction(1, 2)})
    assert specialize_kappa((one - k) / (one - khalf)) == L.const(2)
    assert specialize_kappa(((one - k) * (one - k)) / (one - k)) == L.zero()
    # ratio of quantum integers
    q3 = _quantum_integer_by_hand(3)
    q2 = _quantum_integer_by_hand(2)
    assert specialize_kappa(as_rational(q3) / q2) == L.const(Fraction(-3, 2))


# -- substitution --------------------------------------------------------------


def test_subs_single_term_scales_half_powers() -> None:
    zhalf = L.monomial(1, {"z": Fraction(1, 2), "t": 1})
    shifted = zhalf.subs("z", w * z)
    assert shifted == L.monomial(1, {"z": Fraction(1, 2), "w": Fraction(1, 2), "t": 1})


def test_subs_refuses_a_half_power_of_a_coefficient() -> None:
    zhalf = L.monomial(1, {"z": Fraction(1, 2)})
    with pytest.raises(ValueError, match="half-integer power of a value with coefficient != 1"):
        zhalf.subs("z", 2 * w)
    with pytest.raises(ValueError, match="coefficient != 1"):
        zhalf.subs("z", -1)
    assert (z * z).subs("z", 2 * w) == 4 * w * w


def test_subs_refuses_a_quarter_integer_power() -> None:
    whalf = L.monomial(1, {"w": Fraction(1, 2)})
    with pytest.raises(ValueError, match="substitution produces a quarter-integer power"):
        L.monomial(1, {"z": Fraction(1, 2)}).subs("z", whalf)
    assert L.monomial(1, {"z": Fraction(1, 2)}).subs("z", w) == whalf


def test_subs_refuses_a_negative_power_at_zero() -> None:
    with pytest.raises(ZeroDivisionError, match="negative power of 'z' at 0"):
        (t + z**-1).subs("z", 0)
    # A half-integer power of z is 0 at z = 0.
    assert (t + L.monomial(3, {"z": Fraction(1, 2)})).subs("z", L.zero()) == t


def test_subs_refuses_a_negative_or_half_power_under_a_sum() -> None:
    for power in (z**-1, L.monomial(1, {"z": Fraction(1, 2)})):
        with pytest.raises(ValueError, match="a sum meets only nonnegative integer powers of 'z'"):
            (t + power).subs("z", w + 1)
    # A single-term value had to be one term; a sum is now substituted.
    assert (t * z**2 + z).subs("z", w + 1) == t * (w + 1) ** 2 + w + 1


def test_rational_subs_substitutes_numerator_and_denominator() -> None:
    f = RationalElement(z, one + z)
    assert f.subs("z", w + 1) == RationalElement(w + 1, w + 2)
    assert f.subs("z", 2 * t) == RationalElement(2 * t, 1 + 2 * t)
    assert RationalElement(one + z, t - z).subs("z", 0) == RationalElement(one, t)


def _subs_by_monomials(el: L, var: str, value: L) -> L:
    """``el.subs(var, value)`` by another route: each term rebuilt by
    ``LaurentElement.monomial`` times the value's power, a monomial read
    from the value's own terms or an integer ``**`` of a sum.  Raises
    what ``subs`` raises, at the same term."""
    value_terms = list(value.monomials())
    out = L.zero()
    for exps, c in el.monomials():
        e = Fraction(exps.pop(var, 0))
        rest = L.monomial(c, exps)
        if not e:
            out = out + rest
        elif not value_terms:
            if e < 0:
                raise ZeroDivisionError
        elif len(value_terms) == 1:
            ((vexps, vc),) = value_terms
            if e.denominator != 1 and vc != 1:
                raise ValueError
            powered = {v: f * e for v, f in vexps.items()}
            if any((2 * f).denominator != 1 for f in powered.values()):
                raise ValueError
            scale = Fraction(vc) ** int(e) if e.denominator == 1 else 1
            out = out + rest * L.monomial(scale, powered)
        else:
            if e < 0 or e.denominator != 1:
                raise ValueError
            out = out + rest * value ** int(e)
    return out


def test_subs_matches_the_monomial_route_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    half = st.integers(-4, 4).map(lambda n: Fraction(n, 2))
    # Mostly nonnegative integer powers of z, so a sum is often accepted.
    exps = st.fixed_dictionaries(
        {"z": st.one_of(st.integers(0, 3), half)},
        optional={"k": half, "t": half},
    )
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    elements = st.lists(st.tuples(exps, coeffs), max_size=5).map(
        lambda terms: laurent_sum(L.monomial(c, e) for e, c in terms)
    )
    value_term = st.builds(
        L.monomial,
        st.one_of(st.just(1), st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))),
        st.dictionaries(st.sampled_from("tw"), half, max_size=2),
    )
    values = st.one_of(
        st.just(L.zero()),
        value_term,
        st.tuples(value_term, value_term).map(lambda pair: pair[0] + pair[1]),
    )

    def outcome(route):
        try:
            return route()
        except (ValueError, ZeroDivisionError) as error:
            return type(error)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(elements, values)
    def check(el, value):
        got = outcome(lambda: el.subs("z", value))
        assert got == outcome(lambda: _subs_by_monomials(el, "z", value)), (el, value)
        if value.is_monomial() and value.as_fraction() is not None:
            assert got == outcome(lambda: el.subs("z", value.as_fraction()))

    check()


# -- exact division --------------------------------------------------------------


def test_exact_laurent_div_roundtrip_randomized() -> None:
    rng = random.Random(11)
    for _ in range(8):
        q = _random_element(rng, ["z", "t"], 3)
        if not q.terms:
            continue
        d = L.monomial(1, {"z": 2}) + _random_element(rng, ["t"], 2) * z
        assert exact_laurent_div(q * d, d, "z") == q


def test_exact_laurent_div_half_power_divisor() -> None:
    k = L.gen("k")
    khalf = L.monomial(1, {"k": Fraction(1, 2)})
    divisor = khalf.monomial_inverse() - khalf
    assert exact_laurent_div(k.monomial_inverse() - k, divisor, "k") == (
        khalf + khalf.monomial_inverse()
    )


def test_exact_laurent_div_by_powers_of_a_symmetric_difference() -> None:
    # Constant lower coefficients (powers of k^(1/2) - k^(-1/2)) and a
    # non-constant leading one (2t·z^2 + t·z - 3).
    rng = random.Random(23)
    khalf = L.monomial(1, {"k": Fraction(1, 2)})
    d = khalf - khalf.monomial_inverse()
    power = one
    for _ in range(5):
        power = power * d
        q = _random_element(rng, ["k", "a", "b"], 5)
        assert exact_laurent_div(q * power, power, "k") == q
    lead = 2 * t * z * z + t * z - 3
    for _ in range(4):
        q = _random_element(rng, ["z", "t", "k"], 4)
        assert exact_laurent_div(q * lead, lead, "z") == q
    with pytest.raises(NonExpandable):
        exact_laurent_div(power * d + one, power, "k")


def test_exact_laurent_div_rejects_inexact() -> None:
    with pytest.raises(NonExpandable):
        exact_laurent_div(z * z + one, z + one, "z")


def _coeffs_by(el: L, var: str) -> dict:
    """{natural exponent of ``var``: coefficient element without ``var``}."""
    pieces: dict = {}
    for exps, c in el.monomials():
        e = exps.pop(var, 0)
        pieces.setdefault(e, []).append(L.monomial(c, exps))
    return {e: laurent_sum(p) for e, p in pieces.items()}


def _long_division_oracle(num: L, den: L, var: str) -> L:
    """num/den by top-down long division in ``var`` on ``LaurentElement``
    coefficients, refusing a remainder: the route ``exact_laurent_div``
    took before it read the series division."""
    if not num:
        return L.zero()
    cn, cd = _coeffs_by(num, var), _coeffs_by(den, var)
    top = max(cd)
    if not cd[top].is_monomial():
        raise NonExpandable("divisor leading coefficient is not a single monomial")
    lead_inv = cd[top].monomial_inverse()
    floor = min(cn) - min(cd)
    rem = dict(cn)
    out = []
    while rem:
        e = max(rem)
        if e - top < floor:
            raise NonExpandable("division is not exact")
        qc = rem.pop(e) * lead_inv
        out.append(qc * L.monomial(1, {var: e - top}))
        for eb, cb in cd.items():
            if eb != top:
                left = rem.get(e + eb - top, L.zero()) - qc * cb
                if left:
                    rem[e + eb - top] = left
                else:
                    rem.pop(e + eb - top, None)
    return laurent_sum(out)


def _hypothesis_divisors(hypothesis):
    """Divisors in z with half-integer exponents and coefficients in k and
    t: a monomial leading coefficient, one term one to four half steps
    below the top, and up to two terms strictly between them."""
    st = hypothesis.strategies
    half = st.integers(-3, 3).map(lambda n: Fraction(n, 2))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    others = st.dictionaries(st.sampled_from("kt"), half, max_size=2)

    @st.composite
    def divisor(draw):
        top = draw(half)
        steps = draw(st.integers(1, 4))
        exps = [top, top - Fraction(steps, 2)]
        if steps > 1:
            inside = st.lists(st.integers(1, steps - 1), max_size=2)
            exps += [top - Fraction(i, 2) for i in draw(inside)]
        return laurent_sum(L.monomial(draw(coeffs), {**draw(others), "z": e}) for e in exps)

    return divisor()


def test_exact_laurent_div_matches_long_division_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        _hypothesis_elements(hypothesis).filter(bool), _hypothesis_divisors(hypothesis)
    )
    def check(q, d):
        got = exact_laurent_div(q * d, d, "z")
        _assert_canonical(got)
        assert got == q == _long_division_oracle(q * d, d, "z")

    check()


def test_exact_laurent_div_refuses_a_remainder_in_the_last_span_hypothesis() -> None:
    """q·d + r with r nonzero and every exponent of z in r within
    [val(q·d), val(q) + top(d)): r/d starts within one divisor span below
    the quotient's floor val(q), and r, narrower than d, is no multiple of d."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    half = st.integers(-3, 3).map(lambda n: Fraction(n, 2))
    others = st.dictionaries(st.sampled_from("kt"), half, max_size=2)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        _hypothesis_elements(hypothesis).filter(bool),
        _hypothesis_divisors(hypothesis),
        st.lists(st.tuples(coeffs, others, st.integers(0, 7)), min_size=1, max_size=3),
    )
    def check(q, d, picks):
        val_q = min(_coeffs_by(q, "z"))
        dz = _coeffs_by(d, "z")
        width = int(2 * (max(dz) - min(dz)))
        base = val_q + min(dz)
        r = laurent_sum(
            L.monomial(c, {**exps, "z": base + Fraction(j % width, 2)}) for c, exps, j in picks
        )
        hypothesis.assume(r)
        for divide in (exact_laurent_div, _long_division_oracle):
            with pytest.raises(NonExpandable, match="division is not exact"):
                divide(q * d + r, d, "z")

    check()


# -- packed exponents ------------------------------------------------------------

# Names on both sides of "k" in name order, so the slot of κ sits inside.
_PACKED_NAMES = ["a", "b_1", "k", "n0_2", "o", "z"]


def _packed_element(rng: random.Random, names: list[str], nterms: int, size: int = 3) -> L:
    """A sum of ``nterms`` monomials with half-integer exponents of either
    sign up to ``size`` and Fraction or int coefficients."""
    return laurent_sum(
        L.monomial(
            Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2])),
            {v: Fraction(rng.randint(-2 * size, 2 * size), 2) for v in rng.sample(names, 2)},
        )
        for _ in range(nterms)
    )


def _symmetric_difference(var: str) -> L:
    half = L.monomial(1, {var: Fraction(1, 2)})
    return half - half.monomial_inverse()


def test_packed_round_trip_keeps_name_order() -> None:
    rng = random.Random(31)
    for _ in range(20):
        el = _packed_element(rng, _PACKED_NAMES, 5)
        algebra = packed_algebra([el], depth=1)
        back = algebra.unpack(algebra.pack(el))
        assert back == el
        assert str(back) == str(el)
        assert _term_set(back) == _term_set(el)
        assert [list(e) for e, _ in back.monomials()] == [sorted(e) for e, _ in back.monomials()]


def test_packed_arithmetic_matches_laurent_arithmetic() -> None:
    rng = random.Random(32)
    for _ in range(20):
        a, b, c = (_packed_element(rng, _PACKED_NAMES, rng.randint(1, 5)) for _ in range(3))
        shift = rng.randint(-7, 7)
        coeff = rng.choice([-3, 1, 2])
        algebra = packed_algebra([a, b, c], ["k"], depth=3, step=abs(shift))
        pa, pb, pc = map(algebra.pack, (a, b, c))
        weight = L.monomial(coeff, {"k": Fraction(shift, 2)})
        factor = algebra.term(coeff, {"k": Fraction(shift, 2)})
        product = mul_terms(mul_terms(pa, mul_terms(pb, factor)), pc)
        assert algebra.unpack(product) == a * b * weight * c
        assert algebra.unpack(mul_terms(factor, pa)) == weight * a
        assert algebra.unpack(sum_terms((pa, pb, scaled_terms(pc, -1)))) == a + b - c
        assert algebra.unpack(sum_terms((pa, scaled_terms(pa, -1)))) == L.zero()
        assert algebra.unpack(scaled_terms(pa, Fraction(1, 6))) == a * Fraction(1, 6)
        assert algebra.unpack(sum_terms(())) == L.zero()
        for e in (-1, Fraction(1, 2), 0, 2):
            assert algebra.unpack(algebra.coeff_of(pa, "o", e)) == a.coeff_of("o", e)


def test_packed_digits_hold_at_the_bound() -> None:
    # Two factors at the extreme exponents and a weight at the step bound
    # reach the largest digit the bound allows, on every slot at once.
    big = 10**6
    el = L.monomial(1, {"a": big, "k": -big, "z": big}) + L.monomial(-1, {"k": big})
    algebra = packed_algebra([el], ["o"], depth=2, step=2 * big)
    packed = algebra.pack(el)
    weight = algebra.term(1, {"k": -big, "o": big})
    product = mul_terms(packed, mul_terms(packed, weight))
    expected = el * el * L.monomial(1, {"k": -big, "o": big})
    assert algebra.unpack(product) == expected
    with pytest.raises(ValueError):
        algebra.term(1, {"k": big + 1})
    with pytest.raises(ValueError):
        algebra.pack(L.monomial(1, {"a": big + 1}))
    with pytest.raises(ValueError):
        algebra.pack(L.gen("c"))
    with pytest.raises(ValueError):
        algebra.div_d(packed, "c", 1)


def test_packed_algebra_of_depth_zero_holds_its_elements() -> None:
    x, y = L.gen("x"), L.gen("y")
    algebra = packed_algebra([x * y], depth=0)
    assert algebra.unpack(algebra.pack(x * y)) == x * y
    rng = random.Random(35)
    for _ in range(10):
        el = _packed_element(rng, _PACKED_NAMES, 4)
        algebra = packed_algebra([el], depth=0)
        assert algebra.unpack(algebra.pack(el)) == el


def test_unpack_renames_and_sorts_each_monomial() -> None:
    # The renaming reverses name order, so every monomial of two or more
    # variables comes out of its slots in the wrong order.
    rename = {v: f"r{9 - i}" for i, v in enumerate(_PACKED_NAMES)}
    rng = random.Random(36)
    for _ in range(20):
        a, b = (_packed_element(rng, _PACKED_NAMES, rng.randint(1, 4)) for _ in range(2))
        a, b = a * Fraction(1, 2), 2 * b
        algebra = packed_algebra([a, b], depth=2)
        product = mul_terms(algebra.pack(a), algebra.pack(b))
        got = algebra.unpack(product).rename(rename)
        want = laurent_sum(
            L.monomial(c, {rename[v]: e for v, e in exps.items()})
            for exps, c in (a * b).monomials()
        )
        assert got == want
        assert str(got) == str(want)
        _assert_canonical(got)
    # The halves and doubles above leave integral Fractions for unpack to
    # make canonical.
    assert any(type(c) is Fraction and c.denominator == 1 for c in product.values())


def test_mul_terms_on_words_is_the_uea_product() -> None:
    # Two letters and words up to length 3, so distinct pairs of words
    # often concatenate to the same word and must merge (or cancel).
    words = [()] + [(x,) for x in "ab"] + [(x, y) for x in "ab" for y in "ab"]
    words += [w + (x,) for w in words[3:] for x in "ab"]
    rng = random.Random(37)
    coeffs = [-2, -1, Fraction(1, 2), 3]
    for _ in range(40):
        left, right = (
            {w: rng.choice(coeffs) for w in rng.sample(words, rng.randint(1, 4))} for _ in range(2)
        )
        got = mul_terms(left, right)
        assert all(got.values())
        # The tensor-algebra product by its definition, one pair of words at a time.
        naive: dict = {}
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                naive[w1 + w2] = naive.get(w1 + w2, 0) + c1 * c2
        assert got == {w: c for w, c in naive.items() if c}
    # The left word comes first, on both one-term paths and the general one.
    once = mul_terms({("b",): 2}, {("a",): 1, ("a", "b"): -1})
    assert once == {("b", "a"): 2, ("b", "a", "b"): -2}
    assert mul_terms({("a",): 1, ("b",): 3}, {("a",): 2}) == {("a", "a"): 2, ("b", "a"): 6}
    left = {("a",): 1, ("a", "b"): 1}
    merged = mul_terms(left, {("b", "a"): 1, ("a",): 2})
    assert merged == {("a", "b", "a"): 3, ("a", "a"): 2, ("a", "b", "b", "a"): 1}
    cancelled = mul_terms(left, {("b", "a"): 1, ("a",): -1})
    assert cancelled == {("a", "a"): -1, ("a", "b", "b", "a"): 1}


def test_sum_terms_keeps_a_lone_item_and_skips_empty_ones() -> None:
    item = {("a", "b"): 2, ("b",): Fraction(1, 2)}
    assert sum_terms([{}, item, {}]) is item
    assert sum_terms(x for x in (item,)) is item
    assert sum_terms([{}, {}]) == {} and sum_terms(()) == {}
    total = sum_terms([item, {("b",): Fraction(-1, 2)}, {("a",): Fraction(2, 2)}])
    assert total == {("a", "b"): 2, ("a",): 1}
    assert type(total[("a",)]) is int
    assert item == {("a", "b"): 2, ("b",): Fraction(1, 2)}


def test_packed_division_by_powers_of_d_matches_exact_division() -> None:
    rng = random.Random(33)
    d = _symmetric_difference("k")
    power = one
    for j in range(6):
        for _ in range(4):
            q = _packed_element(rng, _PACKED_NAMES, rng.randint(1, 6))
            num = q * power
            algebra = packed_algebra([num], ["k"], depth=1)
            quotient = algebra.div_d(algebra.pack(num), "k", j)
            assert algebra.unpack(quotient) == exact_laurent_div(num, power, "k") == q
        power = power * d
    # Chains with gaps of 10^6 between their terms: the running sum is zero
    # across each gap, so the quotient is as sparse as q.
    q = L.monomial(2, {"k": 10**6, "a": 1}) - L.monomial(1, {"k": -(10**6)}) + one
    num = q * power
    algebra = packed_algebra([num], depth=1)
    assert algebra.unpack(algebra.div_d(algebra.pack(num), "k", 6)) == q


def test_packed_division_refuses_a_remainder() -> None:
    d = _symmetric_difference("k")
    kk = L.gen("k")
    for num, j in [
        (d * d + one, 2),
        (kk, 1),
        (d * L.gen("a") + kk, 1),
        (d * d * d * (one + kk), 4),
    ]:
        algebra = packed_algebra([num], ["k"], depth=1)
        with pytest.raises(NonExpandable):
            algebra.div_d(algebra.pack(num), "k", j)
        with pytest.raises(NonExpandable):
            exact_laurent_div(num, d**j, "k")


def test_packed_division_property() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    elements = _hypothesis_elements(hypothesis).filter(bool)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(elements, elements, st.integers(0, 4))
    def check(q, extra, j):
        power = _symmetric_difference("k") ** j
        num = q * power
        algebra = packed_algebra([num, num + extra], ["k"], depth=1)
        assert algebra.unpack(algebra.div_d(algebra.pack(num), "k", j)) == q
        try:
            expected = exact_laurent_div(num + extra, power, "k")
        except NonExpandable:
            with pytest.raises(NonExpandable):
                algebra.div_d(algebra.pack(num + extra), "k", j)
        else:
            got = algebra.div_d(algebra.pack(num + extra), "k", j)
            assert algebra.unpack(got) == expected

    check()


# -- coefficient representation --------------------------------------------------


def _from_fractions(pairs: list[tuple[Fraction, dict]]) -> L:
    """An element built only from Fraction coefficients and exponents."""
    return laurent_sum(
        L.monomial(c, {v: Fraction(e) for v, e in exps.items()}) for c, exps in pairs
    )


def test_coefficients_are_ints_or_proper_fractions() -> None:
    k = L.gen("k")
    cases = [
        (
            L.monomial(1, {"z": -1}).subs("z", 2 * t),
            [(Fraction(1, 2), {"t": -1})],
        ),
        ((3 * x).monomial_inverse(), [(Fraction(1, 3), {"x": -1})]),
        ((2 * x + 4) / 4, [(Fraction(1, 2), {"x": 1}), (Fraction(1), {})]),
        ((2 * x) ** -2, [(Fraction(1, 4), {"x": -2})]),
        (
            exact_laurent_div(z * z - one, 2 * z + 2, "z"),
            [(Fraction(1, 2), {"z": 1}), (Fraction(-1, 2), {})],
        ),
        (
            exact_laurent_div(2 * z * z - 2, 2 * z + 2, "z"),
            [(Fraction(1), {"z": 1}), (Fraction(-1), {})],
        ),
        (specialize_kappa((k * k - one) / (3 * k - 3)), [(Fraction(2, 3), {})]),
        (specialize_kappa((k * k - one) / (k - one)), [(Fraction(2), {})]),
        (L.const(Fraction(6, 3)) * Fraction(1, 2) + Fraction(1, 2), [(Fraction(3, 2), {})]),
        (
            L.const(True) + L.monomial(Fraction(4, 2), {"x": 1}),
            [(Fraction(1), {}), (Fraction(2), {"x": 1})],
        ),
    ]
    for got, expected in cases:
        assert got == _from_fractions(expected)
        assert got.terms and all(_canonical_coeff(c) for c in got.terms.values())
    assert type(L.const(2).as_fraction()) is Fraction
    assert type(L.zero().as_fraction()) is Fraction


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "2", None])
def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused(bad) -> None:
    """A float would silently become its binary fraction, and a string its
    parse: both raise TypeError at every entry point a coefficient has."""
    entries = [
        ring.canonical_coefficient,
        L.const,
        lambda c: L.monomial(c, {"z": 1}),
        lambda c: z * c,
        lambda c: c * z,
        lambda c: ring.add_terms({}, [((), c)]),
        lambda c: ring.add_terms({(): 1}, [((), c)]),
        lambda c: ring.scaled_terms({(): 1}, c),
    ]
    for entry in entries:
        with pytest.raises(TypeError):
            entry(bad)


def _canonical_fold(out: dict, pairs) -> dict:
    """The add-into loop as a fold, kept as the oracle of ``ring.add_terms``:
    each sum is put in canonical form on its own, and a zero is dropped."""
    for key, coeff in pairs:
        acc = out.get(key)
        if acc is not None:
            coeff = acc + coeff
        coeff = Fraction(coeff)
        coeff = coeff.numerator if coeff.denominator == 1 else coeff
        if coeff:
            out[key] = coeff
        elif acc is not None:
            del out[key]
    return out


def test_add_terms_equals_the_fold_hypothesis() -> None:
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Few keys and small coefficients, so sums collide and cancel often.
    keys = st.one_of(
        st.integers(0, 3),
        st.tuples(st.sampled_from("kz"), st.integers(-1, 1)).map(lambda p: (p,)),
        st.lists(st.sampled_from("ab"), max_size=2).map(tuple),
    )
    nonzero = st.integers(-3, 3).filter(bool)
    coeffs = st.one_of(nonzero, st.builds(Fraction, nonzero, st.sampled_from([1, 2, 3])))
    pairs = st.lists(st.tuples(keys, coeffs), max_size=12)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(pairs, pairs)
    def check(start, added):
        out = _canonical_fold({}, start)
        want = _canonical_fold(dict(out), added)
        got = ring.add_terms(out, added)
        assert got is out
        assert list(got.items()) == list(want.items())
        for c in got.values():
            assert _canonical_coeff(c) and c != 0

    check()


def test_scalar_products_equal_the_per_term_route_hypothesis() -> None:
    """A product by a scalar, each coefficient times the scalar read back
    through the constructor, for the Laurent ring and the word combinations
    alike: equal, canonical, and shown the same."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ctx = LieContext("abc")
    lyndon = st.sampled_from(lyndon_words(ctx.letters, 3))
    words = st.lists(st.sampled_from(ctx.letters), max_size=3).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))
    factors = st.one_of(
        st.sampled_from([0, 1, -1, Fraction(-6, 3), Fraction(4, 1), True]),
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 4)),
    )

    def same(got, want) -> None:
        assert got == want and str(got) == str(want) and repr(got) == repr(want)
        for c in got.terms.values():
            assert _canonical_coeff(c) and c != 0

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        _hypothesis_elements(hypothesis),
        st.dictionaries(lyndon, coeffs, max_size=4),
        st.dictionaries(words, coeffs, max_size=4),
        factors,
    )
    def check(el, lie_terms, uea_terms, k):
        for a in (el, el.truncate(["z"], 1)):
            want = laurent_sum(L.monomial(c * k, e) for e, c in a.monomials())
            same(a * k, want)
            same(k * a, want)
            same(-a, laurent_sum(L.monomial(-c, e) for e, c in a.monomials()))
        for kind, terms in ((LieElement, lie_terms), (UEAElement, uea_terms)):
            x = kind(ctx, terms)
            want = kind(ctx, {w: c * k for w, c in x.terms.items()})
            same(x * k, want)
            same(k * x, want)
            same(-x, kind(ctx, {w: -c for w, c in x.terms.items()}))

    check()


# -- slope values and symbols ----------------------------------------------------


def test_slope_value_total_order() -> None:
    lo = SlopeValue.of("-inf")
    a = SlopeValue.of("1/3")
    b = SlopeValue.of(1)
    hi = SlopeValue.of("inf")
    assert lo < a < b < hi
    assert SlopeValue.of("2/6", 5) == SlopeValue.of(Fraction(1, 3), "5")


def test_slope_value_lexicographic_tuples() -> None:
    assert SlopeValue.of(0, "inf") < SlopeValue.of("1/2", "-inf")
    assert SlopeValue.of(1, 2) < SlopeValue.of(1, 3)


@pytest.mark.parametrize(
    "entry, message",
    [
        (True, "slope entries must be integers or strings, got True"),
        (1.5, "slope entries must be integers or strings, got 1.5"),
        ("1.5", "cannot parse slope entry '1.5'"),
        ("1e2", "cannot parse slope entry '1e2'"),
        ("1_0", "cannot parse slope entry '1_0'"),
        ("", "cannot parse slope entry ''"),
        ("1/0", "slope entry '1/0' has a zero denominator"),
    ],
)
def test_slope_entries_outside_the_grammar_are_refused(entry, message) -> None:
    with pytest.raises(ValueError) as err:
        SlopeValue.of(1, entry)
    assert str(err.value) == message


def test_slope_entry_grammar() -> None:
    assert slope_entry(" +inf ") == (1, 0) and slope_entry("-inf") == (-1, 0)
    assert slope_entry(" -6/4 ") == (0, Fraction(-3, 2)) == slope_entry(Fraction(-3, 2))
    assert slope_entry(7) == slope_entry("+7") == (0, 7)
    assert str(SlopeValue.of("-inf", "2/4", 3, "inf")) == "(-inf, 1/2, 3, inf)"


def test_integer_entry_rule() -> None:
    assert integer_entry(-3) == -3 and type(integer_entry(-3)) is int
    assert integer_entry(Fraction(6, 3)) == 2 and type(integer_entry(Fraction(6, 3))) is int
    for bad in (True, False, 2.0, 0.9, Fraction(1, 2), "2", None):
        with pytest.raises(ValueError, match="expected an integer"):
            integer_entry(bad)
