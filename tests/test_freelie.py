import itertools
import math
import random
from fractions import Fraction

import pytest

from wallx.errors import NotPrimitive
from wallx.freelie import (
    LieContext,
    LieElement,
    UEAElement,
    dynkin_project,
    evaluate_lie,
    expand_to_uea,
    lyndon_words,
    standard_split,
)
from wallx.ring import LaurentElement
from wallx.selftest import exp_ad_check, left_nested
from wallx.ucoeff import (
    EffectiveMonoid,
    linear_stability,
    utilde_lie_element,
    utilde_word_sum,
)
from wallx.wallcross import QuantumTorusBackend

F = Fraction


def _brute_lyndon(alphabet, max_length):
    """Independent route: a word is Lyndon iff it is strictly smaller than
    every one of its nontrivial rotations (comparing by declaration order)."""
    index = {letter: i for i, letter in enumerate(alphabet)}
    out = []
    for n in range(1, max_length + 1):
        for word in itertools.product(alphabet, repeat=n):
            key = tuple(index[l] for l in word)
            if all(key < key[i:] + key[:i] for i in range(1, n)):
                out.append(word)
    out.sort(key=lambda w: (len(w), tuple(index[l] for l in w)))
    return out


def _random_lie(rng, ctx, words, nterms):
    terms = {}
    for word in rng.sample(words, min(nterms, len(words))):
        terms[word] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return LieElement(ctx, terms)


def _dynkin_specht_wever(p, n):
    """Independent route to the Lie element with expansion ``p``: the sum
    (1/n)·Σ_w p[w]·[w] over left-nested bracketings, kept only if its
    expansion gives ``p`` back."""
    ctx = p.context
    acc = LieElement.zero(ctx)
    for word, coeff in p.terms.items():
        acc = acc + left_nested(word, ctx) * (coeff * F(1, n))
    if expand_to_uea(acc) != p:
        raise NotPrimitive(f"round trip failed on a length-{n} element")
    return acc


def _left_nested_uea(word, ctx):
    """[[..[w1, w2], ..], wn] bracketed in the tensor algebra itself."""
    acc = UEAElement.letter(ctx, word[0])
    for letter in word[1:]:
        acc = acc.bracket(UEAElement.letter(ctx, letter))
    return acc


def _check_against_oracles(p, n):
    try:
        expected = _dynkin_specht_wever(p, n)
    except NotPrimitive:
        with pytest.raises(NotPrimitive):
            dynkin_project(p)
        return
    got = dynkin_project(p)
    assert got == expected
    # Dynkin–Specht–Wever read in the tensor algebra: no Lyndon rewrite.
    dsw = UEAElement.zero(p.context)
    for word, coeff in p.terms.items():
        dsw = dsw + _left_nested_uea(word, p.context) * (coeff * F(1, n))
    assert expand_to_uea(got) == dsw == p


class TestLyndonWords:
    def test_binary_up_to_two(self):
        assert lyndon_words(["a", "b"], 2) == [("a",), ("b",), ("a", "b")]

    def test_binary_length_three(self):
        words = lyndon_words(["a", "b"], 3)
        assert words[:3] == [("a",), ("b",), ("a", "b")]
        assert words[3:] == [("a", "a", "b"), ("a", "b", "b")]

    def test_single_letter(self):
        assert lyndon_words(["a"], 5) == [("a",)]

    def test_matches_rotation_characterization(self):
        for alphabet in (["a", "b"], ["x", "y", "z"], [0, 1, 2, 3]):
            assert lyndon_words(alphabet, 4) == _brute_lyndon(alphabet, 4)

    def test_declaration_order_not_python_order(self):
        # letters ordered by declaration: "b" before "a"
        assert lyndon_words(["b", "a"], 2) == [("b",), ("a",), ("b", "a")]

    def test_duplicate_letters_rejected(self):
        with pytest.raises(ValueError):
            lyndon_words(["a", "a"], 2)


@pytest.mark.parametrize(
    "cls, shown",
    [
        (UEAElement, "UEAElement(2*x + -1/3*x.y)"),
        (LieElement, "LieElement(2*b(x) + -1/3*b(x.y))"),
    ],
    ids=["UEAElement", "LieElement"],
)
def test_shared_element_contract(cls, shown):
    ctx = LieContext(["x", "y"])
    el = cls(ctx, {("x", "y"): F(-1, 3), ("x",): F(2)})
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        el.terms = {}
    with pytest.raises(ValueError, match="unknown letter 'z'"):
        cls.letter(ctx, "z")
    with pytest.raises(ValueError, match="different contexts"):
        el + cls.letter(LieContext(["x", "y"]), "x")
    with pytest.raises(TypeError):
        UEAElement.letter(ctx, "x") + LieElement.letter(ctx, "x")
    with pytest.raises(TypeError):
        LieElement.letter(ctx, "x") + UEAElement.letter(ctx, "x")
    assert F(2) * el == el * F(2) == el + el
    assert (el - el).is_zero()
    assert repr(el - el) == f"{cls.__name__}(0)"
    assert repr(el) == shown


@pytest.mark.parametrize("cls", [UEAElement, LieElement])
@pytest.mark.parametrize("bad", [0.5, 0.0, "2"])
def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused(cls, bad):
    ctx = LieContext(["x", "y"])
    el = cls.letter(ctx, "x")
    for entry in (lambda c: cls(ctx, {("x",): c}), lambda c: el * c, lambda c: c * el):
        with pytest.raises(TypeError):
            entry(bad)
    assert cls(ctx, {("x",): True, ("y",): F(0)}) == el


class TestExpand:
    def test_single_bracket(self):
        ctx = LieContext(["e1", "e2"])
        x = LieElement.letter(ctx, "e1").bracket(LieElement.letter(ctx, "e2"))
        assert expand_to_uea(x) == UEAElement(
            ctx, {("e1", "e2"): F(1), ("e2", "e1"): F(-1)}
        )

    def test_nested_bracket(self):
        ctx = LieContext(["e1", "e2", "e3"])
        e1, e2, e3 = (LieElement.letter(ctx, l) for l in ctx.letters)
        x = e1.bracket(e2).bracket(e3)
        assert expand_to_uea(x) == UEAElement(
            ctx,
            {
                ("e1", "e2", "e3"): F(1),
                ("e2", "e1", "e3"): F(-1),
                ("e3", "e1", "e2"): F(-1),
                ("e3", "e2", "e1"): F(1),
            },
        )

    def test_zero(self):
        ctx = LieContext(["e1"])
        assert expand_to_uea(LieElement.zero(ctx)).is_zero()

    def test_linear(self):
        rng = random.Random(21)
        ctx = LieContext(["a", "b", "c"])
        words = lyndon_words(ctx.letters, 4)
        for _ in range(10):
            x = _random_lie(rng, ctx, words, 4)
            y = _random_lie(rng, ctx, words, 4)
            assert expand_to_uea(x + y) == expand_to_uea(x) + expand_to_uea(y)

    def test_expansion_leading_word_is_the_lyndon_word(self):
        # triangularity: expansion = the word itself + lex-larger words
        ctx = LieContext(["a", "b", "c"])
        for word in lyndon_words(ctx.letters, 5):
            x = LieElement(ctx, {word: F(1)})
            terms = expand_to_uea(x).terms
            assert terms[word] == 1
            assert all(ctx.key(w) >= ctx.key(word) for w in terms)


class TestRoundTrips:
    def test_dynkin_inverts_expand_all_lengths(self):
        rng = random.Random(7)
        ctx = LieContext(["a", "b", "c"])
        words = lyndon_words(ctx.letters, 5)
        for _ in range(12):
            x = _random_lie(rng, ctx, words, 5)
            assert dynkin_project(expand_to_uea(x)) == x

    def test_uea_to_lie_rejects_non_lie(self):
        ctx = LieContext(["e1", "e2"])
        # e1 + (e1.e2 + e2.e1): the length-1 part is Lie, the symmetric
        # product is not; its rewrite leaves 2 e2.e1, not a Lyndon word
        p = UEAElement(ctx, {("e1",): F(1), ("e1", "e2"): F(1), ("e2", "e1"): F(1)})
        with pytest.raises(NotPrimitive):
            dynkin_project(p)

    def test_dynkin_inverts_expand_small(self):
        ctx = LieContext(["e1", "e2"])
        x = LieElement.letter(ctx, "e1").bracket(LieElement.letter(ctx, "e2"))
        assert dynkin_project(expand_to_uea(x)) == x

    def test_dynkin_inverts_expand_randomized(self):
        rng = random.Random(13)
        ctx = LieContext(["a", "b", "c", "d"])
        for n in range(1, 6):
            words = [w for w in lyndon_words(ctx.letters, n) if len(w) == n]
            for _ in range(4):
                x = _random_lie(rng, ctx, words, 3)
                assert dynkin_project(expand_to_uea(x)) == x

    def test_dynkin_length_six(self):
        rng = random.Random(15)
        ctx = LieContext(["a", "b", "c", "d"])
        words = [w for w in lyndon_words(ctx.letters, 6) if len(w) == 6]
        x = _random_lie(rng, ctx, words, 2)
        assert dynkin_project(expand_to_uea(x)) == x

    def test_dynkin_rejects_single_word(self):
        ctx = LieContext(["e1", "e2"])
        p = UEAElement(ctx, {("e1", "e2"): F(1)})
        # removing e1.e2 - e2.e1 leaves e2.e1, whose leading word is not Lyndon
        with pytest.raises(NotPrimitive):
            dynkin_project(p)

    def test_dynkin_equals_specht_wever_oracle(self):
        rng = random.Random(41)
        ctx = LieContext(["a", "b", "c"])
        for n in range(1, 7):
            lyndon = [w for w in lyndon_words(ctx.letters, n) if len(w) == n]
            for _ in range(3):
                _check_against_oracles(expand_to_uea(_random_lie(rng, ctx, lyndon, 4)), n)
            # perturbing one word makes the element non-Lie for n >= 2
            p = expand_to_uea(_random_lie(rng, ctx, lyndon, 3))
            word = tuple(rng.choice(ctx.letters) for _ in range(n))
            p = p + UEAElement(ctx, {word: F(1, 3)})
            _check_against_oracles(p, n)

    def test_dynkin_equals_specht_wever_oracle_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ctx = LieContext(["a", "b", "c"])
        by_length = {
            n: [w for w in lyndon_words(ctx.letters, n) if len(w) == n]
            for n in range(1, 6)
        }
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)

        @st.composite
        def lie_elements(draw):
            n = draw(st.integers(1, 5))
            words = draw(st.lists(st.sampled_from(by_length[n]), min_size=1, max_size=4))
            return n, LieElement(ctx, {w: draw(coeff) for w in words})

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(lie_elements())
        def check(case):
            n, x = case
            _check_against_oracles(expand_to_uea(x), n)

        check()

    def test_dynkin_inverts_expand_mixed_lengths(self):
        ctx = LieContext(["e1", "e2"])
        x = LieElement(ctx, {("e1",): F(2), ("e2",): F(-1, 3), ("e1", "e2"): F(5)})
        assert dynkin_project(expand_to_uea(x)) == x

    def test_dynkin_refuses_mixed_lengths_outside_lie(self):
        ctx = LieContext(["e1", "e2"])
        # e1 + e1.e2: the length-2 part alone is not a Lie element
        p = UEAElement(ctx, {("e1",): F(1), ("e1", "e2"): F(1)})
        with pytest.raises(NotPrimitive):
            dynkin_project(p)

    def test_dynkin_zero(self):
        ctx = LieContext(["e1"])
        assert dynkin_project(UEAElement.zero(ctx)).is_zero()


# The Fraction route: each computation again on plain dicts, with every
# coefficient forced to a Fraction and nothing made canonical.


def _forced(terms):
    return {w: F(c) for w, c in terms.items()}


def _forced_sum(pairs):
    out = {}
    for w, c in pairs:
        out[w] = out.get(w, F(0)) + c
    return {w: c for w, c in out.items() if c}


def _forced_bracketing(word, ctx):
    if len(word) == 1:
        return {word: F(1)}
    left, right = standard_split(word, ctx)
    a, b = _forced_bracketing(left, ctx), _forced_bracketing(right, ctx)
    return _forced_sum(
        pair
        for w1, c1 in a.items()
        for w2, c2 in b.items()
        for pair in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2))
    )


def _forced_expand(terms, ctx):
    return _forced_sum(
        (w, c * e)
        for word, c in terms.items()
        for w, e in _forced_bracketing(word, ctx).items()
    )


def _forced_product(p, q):
    return _forced_sum((w1 + w2, c1 * c2) for w1, c1 in p.items() for w2, c2 in q.items())


def _forced_commutator(p, q):
    xy, yx = _forced_product(p, q), _forced_product(q, p)
    return _forced_sum([*xy.items(), *((w, -c) for w, c in yx.items())])


def _forced_project(p, ctx):
    """Subtract the bracketing of the least remaining word by (length, key)
    until nothing remains; None if that word is not Lyndon."""
    rem, out = dict(p), {}
    while rem:
        word = min(rem, key=lambda w: (len(w), ctx.key(w)))
        key = ctx.key(word)
        if not word or not all(key < key[i:] for i in range(1, len(word))):
            return None
        c = out[word] = rem[word]
        bracketing = _forced_bracketing(word, ctx)
        rem = _forced_sum([*rem.items(), *((w, -c * e) for w, e in bracketing.items())])
    return out


def _assert_canonical(x):
    for c in x.terms.values():
        assert type(c) is (int if F(c).denominator == 1 else F), repr(c)


def _assert_matches(got, forced, kind):
    """``got`` is canonical and equals the Fraction route, repr included."""
    _assert_canonical(got)
    assert got.terms == forced
    assert repr(got) == repr(kind(got.context, forced))


class TestCanonicalCoefficients:
    """An integral coefficient is an int, every other one a Fraction with
    denominator > 1, and every result equals the Fraction route."""

    def test_word_combinations_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ctx = LieContext(["a", "b", "c"])
        lyndon = lyndon_words(ctx.letters, 4)
        words = [w for n in range(4) for w in itertools.product(ctx.letters, repeat=n)]
        coeff = st.one_of(
            st.integers(-6, 6),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        )
        lie = st.dictionaries(st.sampled_from(lyndon), coeff, max_size=4)
        uea = st.dictionaries(st.sampled_from(words), coeff, max_size=4)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(lie, lie, uea, uea, coeff)
        def check(tx, ty, tp, tq, k):
            x, y = LieElement(ctx, tx), LieElement(ctx, ty)
            p, q = UEAElement(ctx, tp), UEAElement(ctx, tq)
            fx, fy, fp, fq = (_forced_sum(_forced(t).items()) for t in (tx, ty, tp, tq))
            _assert_matches(x, fx, LieElement)
            _assert_matches(p, fp, UEAElement)
            _assert_matches(x * k, _forced_sum((w, c * k) for w, c in fx.items()), LieElement)
            ex, ey = _forced_expand(fx, ctx), _forced_expand(fy, ctx)
            _assert_matches(expand_to_uea(x), ex, UEAElement)
            pq = _forced_product(fp, fq)
            _assert_matches(p * q, pq, UEAElement)
            short = {w: c for w, c in pq.items() if len(w) <= 2}
            _assert_matches((p * q).truncated(2), short, UEAElement)
            _assert_matches(p.bracket(q), _forced_commutator(fp, fq), UEAElement)
            _assert_matches(dynkin_project(expand_to_uea(x)), fx, LieElement)
            commutator = _forced_commutator(ex, ey)
            _assert_matches(x.bracket(y), _forced_project(commutator, ctx), LieElement)
            assert exp_ad_check(x, y, 3) is True
            # A tensor-algebra element: its Lie part, or NotPrimitive from both.
            projected = _forced_project(fp, ctx)
            if projected is None:
                with pytest.raises(NotPrimitive):
                    dynkin_project(p)
            else:
                _assert_matches(dynkin_project(p), projected, LieElement)

        check()

    def test_utilde_lie_element_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monoids = [
            EffectiveMonoid([(1, 0), (0, 1)]),
            EffectiveMonoid([(1, 0), (1, 1), (0, 2)]),
            EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ]
        cases = [(mon, cls) for mon in monoids for cls in mon.effective_upto(4)]
        entries = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
        scales = st.lists(st.integers(1, 3), min_size=3, max_size=3)

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.sampled_from(cases), entries, scales, entries, scales)
        def check(case, a, b, a2, b2):
            mon, alpha = case
            dim = len(alpha)
            tau = linear_stability(a[:dim], b[:dim])
            tau_prime = linear_stability(a2[:dim], b2[:dim])
            ctx = LieContext(mon.below(alpha))
            got = utilde_lie_element(alpha, tau, tau_prime, mon, context=ctx)
            words = utilde_word_sum(alpha, tau, tau_prime, mon, context=ctx)
            _assert_matches(got, _forced_project(_forced(words.terms), ctx), LieElement)

        check()


class TestBracket:
    def test_antisymmetry_randomized(self):
        rng = random.Random(31)
        ctx = LieContext(["a", "b", "c"])
        words = lyndon_words(ctx.letters, 3)
        for _ in range(10):
            x = _random_lie(rng, ctx, words, 3)
            y = _random_lie(rng, ctx, words, 3)
            assert x.bracket(y) == -(y.bracket(x))
            assert x.bracket(x).is_zero()

    def test_jacobi_randomized(self):
        rng = random.Random(37)
        ctx = LieContext(["a", "b", "c"])
        words = lyndon_words(ctx.letters, 2)
        for _ in range(8):
            x = _random_lie(rng, ctx, words, 2)
            y = _random_lie(rng, ctx, words, 2)
            z = _random_lie(rng, ctx, words, 2)
            total = (
                x.bracket(y.bracket(z))
                + y.bracket(z.bracket(x))
                + z.bracket(x.bracket(y))
            )
            assert total.is_zero()

    def test_bracket_equals_the_tensor_round_trip_hypothesis(self):
        # The round trip is the bracket's definition: project X·Y − Y·X,
        # X and Y the expansions of the operands, back to the Lyndon basis.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        contexts = [LieContext("abcd"[:n]) for n in (2, 3, 4)]
        words = {ctx: lyndon_words(ctx.letters, 5) for ctx in contexts}
        coeff = st.one_of(
            st.integers(-6, 6),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        )

        @st.composite
        def operands(draw):
            ctx = draw(st.sampled_from(contexts))
            terms = st.dictionaries(st.sampled_from(words[ctx]), coeff, max_size=3)
            return LieElement(ctx, draw(terms)), LieElement(ctx, draw(terms))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(operands())
        def check(pair):
            x, y = pair
            ex, ey = expand_to_uea(x), expand_to_uea(y)
            got = x.bracket(y)
            assert got == dynkin_project(ex * ey - ey * ex)
            _assert_canonical(got)

        check()

    def test_bracket_of_a_pair_that_is_not_a_standard_factorization(self):
        # abbc is Lyndon with standard factorization (a, bbc), not (ab, bc),
        # so [b(ab), b(bc)] takes the round trip: by Jacobi it is
        # [a, [b, [b, c]]] − [b, [a, [b, c]]] = b(abbc) + b(abcb).
        ctx = LieContext(["a", "b", "c"])
        assert standard_split(("a", "b", "b", "c"), ctx) == (("a",), ("b", "b", "c"))
        assert standard_split(("a", "b", "c", "b"), ctx) == (("a", "b", "c"), ("b",))
        ab = LieElement(ctx, {("a", "b"): 1})
        bc = LieElement(ctx, {("b", "c"): 1})
        want = LieElement(ctx, {("a", "b", "b", "c"): 1, ("a", "b", "c", "b"): 1})
        ex, ey = expand_to_uea(ab), expand_to_uea(bc)
        assert ab.bracket(bc) == want == dynkin_project(ex * ey - ey * ex)
        assert bc.bracket(ab) == -want
        # Mixed with a pair that factors as it stands: [b(a), b(bc)] = b(abc).
        mixed = (ab + LieElement.letter(ctx, "a") * F(1, 2)).bracket(bc)
        assert mixed == want + LieElement(ctx, {("a", "b", "c"): F(1, 2)})

    def test_left_nested_matches_iterated_bracket(self):
        ctx = LieContext(["a", "b", "c"])
        a, b, c = (LieElement.letter(ctx, l) for l in ctx.letters)
        assert left_nested(("a", "b", "c"), ctx) == a.bracket(b).bracket(c)


class _Mat2:
    """Tiny exact 2x2 matrix for the sl2 evaluation model."""

    def __init__(self, a, b, c, d):
        self.entries = (F(a), F(b), F(c), F(d))

    def __add__(self, other):
        return _Mat2(*(x + y for x, y in zip(self.entries, other.entries)))

    def __rmul__(self, coeff):
        return _Mat2(*(coeff * x for x in self.entries))

    def __matmul__(self, other):
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return _Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __eq__(self, other):
        return self.entries == other.entries


class TestEvaluate:
    def test_sl2_model(self):
        # e, f, h with [e, f] = h, [h, e] = 2e, [h, f] = -2f
        ctx = LieContext(["e", "f"])
        matrices = {"e": _Mat2(0, 1, 0, 0), "f": _Mat2(0, 0, 1, 0)}

        def ev(x):
            return evaluate_lie(
                x,
                matrices.__getitem__,
                lambda u, v: u @ v + F(-1) * (v @ u),
                _Mat2(0, 0, 0, 0),
                lambda c, v: c * v,
            )

        e = LieElement.letter(ctx, "e")
        f = LieElement.letter(ctx, "f")
        assert ev(e.bracket(f)) == _Mat2(1, 0, 0, -1)
        assert ev(e.bracket(f).bracket(e)) == _Mat2(0, 2, 0, 0)
        assert ev(e.bracket(f).bracket(f)) == _Mat2(0, 0, -2, 0)
        combo = e.bracket(f) * F(1, 2) + f.bracket(e.bracket(f)) * F(3)
        assert ev(combo) == _Mat2(F(1, 2), 0, 6, F(-1, 2))

    def test_evaluation_on_its_own_letters_is_the_identity_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ctx = LieContext(["a", "b", "c"])
        coeff = st.one_of(
            st.integers(-6, 6),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        )
        terms = st.dictionaries(st.sampled_from(lyndon_words(ctx.letters, 5)), coeff, max_size=5)

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(terms)
        def check(t):
            x = LieElement(ctx, t)
            value = evaluate_lie(
                x,
                lambda letter: LieElement.letter(ctx, letter),
                LieElement.bracket,
                LieElement.zero(ctx),
                lambda c, v: v * c,
            )
            assert value == x

        check()

    def test_each_subword_is_built_once_per_call(self):
        # Standard factorizations: abb = (ab, b), abc = (a, bc),
        # abbc = (a, bbc) with bbc = (b, bc), and abcb = (abc, b); so the
        # four words need seven brackets, one per subword of length ≥ 2.
        # Nothing is kept from one call to the next.
        ctx = LieContext(["a", "b", "c"])
        words = ["abb", "abc", "abbc", "abcb"]
        x = LieElement(ctx, {tuple(w): 1 for w in words})
        subwords = {"ab", "bc", "bbc", *words}
        for _ in range(2):
            calls = []

            def bracket(u, v):
                calls.append((u, v))
                return u.bracket(v)

            value = evaluate_lie(
                x,
                lambda letter: LieElement.letter(ctx, letter),
                bracket,
                LieElement.zero(ctx),
                lambda c, v: v * c,
            )
            assert value == x
            assert len(calls) == len(subwords)

    def test_quantum_torus_evaluation_equals_the_unmemoized_fold(self):
        # The fold ``evaluate_lie`` memoizes within one call, computed again
        # with every subword rebuilt each time it occurs.
        def fold(x, leaf, bracket, zero, scale):
            ctx = x.context

            def build(word):
                if len(word) == 1:
                    return leaf(word[0])
                left, right = standard_split(word, ctx)
                return bracket(build(left), build(right))

            acc = zero
            for word in sorted(x.terms, key=lambda w: (len(w), ctx.key(w))):
                acc = acc + scale(x.terms[word], build(word))
            return acc

        mon = EffectiveMonoid([(1, 0), (0, 1), (1, 1)])
        qt = QuantumTorusBackend([[0, 2], [-2, 0]])
        rng = random.Random(53)
        values = {}
        for alpha in [(2, 1), (2, 2), (3, 1), (3, 3)]:
            ctx = LieContext(mon.below(alpha))
            for cls in ctx.letters:
                symbol = LaurentElement.gen(f"v{cls[0]}{cls[1]}")
                values.setdefault(cls, symbol + rng.randint(-2, 2))
            # Every Lyndon word of class α up to length 4, with random
            # coefficients.
            words = [
                w for w in lyndon_words(ctx.letters, min(4, sum(alpha)))
                if tuple(map(sum, zip(*w))) == alpha
            ]
            x = LieElement(ctx, {w: F(rng.randint(-4, 4), rng.randint(1, 3)) for w in words})
            args = (
                x,
                lambda cls: qt.lift(cls, values[cls]),
                qt.bracket,
                qt.zero(),
                qt.scale,
            )
            got, want = evaluate_lie(*args), fold(*args)
            assert got == want
            assert repr(got) == repr(want)
            tau, taup = linear_stability([1, 0], [1, 1]), linear_stability([0, 1], [1, 1])
            element = utilde_lie_element(alpha, tau, taup, mon)
            args = (element,) + args[1:]
            assert evaluate_lie(*args) == fold(*args)

    def test_evaluation_into_enveloping_algebra_matches_expand(self):
        rng = random.Random(41)
        ctx = LieContext(["a", "b", "c"])
        words = lyndon_words(ctx.letters, 4)
        for _ in range(6):
            x = _random_lie(rng, ctx, words, 4)
            value = evaluate_lie(
                x,
                lambda letter: UEAElement.letter(ctx, letter),
                lambda u, v: u.bracket(v),
                UEAElement.zero(ctx),
                lambda c, v: c * v,
            )
            assert value == expand_to_uea(x)


class TestExpAd:
    def test_zero_x(self):
        ctx = LieContext(["e1", "e2"])
        assert exp_ad_check(
            LieElement.zero(ctx), LieElement.letter(ctx, "e2"), 4
        )

    def test_letters_order_three(self):
        ctx = LieContext(["e1", "e2"])
        x = LieElement.letter(ctx, "e1")
        y = LieElement.letter(ctx, "e2")
        assert exp_ad_check(x, y, 3)

    def test_order_three_sides_equal_manual_series(self):
        # hand oracle: both sides should equal Y + [X,Y] + (1/2)[X,[X,Y]]
        ctx = LieContext(["e1", "e2"])
        x = LieElement.letter(ctx, "e1")
        y = LieElement.letter(ctx, "e2")
        manual = y + x.bracket(y) + x.bracket(x.bracket(y)) * F(1, 2)
        xe = expand_to_uea(x)
        unit = UEAElement.unit(ctx)
        ex = unit + xe + xe * xe * F(1, 2) + xe * xe * xe * F(1, 6)
        exm = unit - xe + xe * xe * F(1, 2) - xe * xe * xe * F(1, 6)
        conjugated = (ex * expand_to_uea(y) * exm).truncated(3)
        assert conjugated == expand_to_uea(manual).truncated(3)

    def test_randomized(self):
        rng = random.Random(43)
        ctx = LieContext(["a", "b", "c"])
        words = lyndon_words(ctx.letters, 2)
        for _ in range(5):
            x = _random_lie(rng, ctx, words, 2)
            y = _random_lie(rng, ctx, words, 2)
            assert exp_ad_check(x, y, 5)


# -- the total-term vanishing sum ----------------------------------------------


def ordered_degree_decompositions(target: tuple, support, min_parts: int = 2) -> list:
    """Ordered tuples over ``support`` (repetition allowed) summing to target."""
    for part in support:
        if not all(c >= 0 for c in part) or not any(part):
            raise ValueError("support classes must be nonzero and nonnegative")
    out = []

    def rec(rem: tuple, prefix: tuple) -> None:
        if not any(rem):
            if len(prefix) >= min_parts:
                out.append(prefix)
            return
        for part in support:
            nxt = tuple(x - y for x, y in zip(rem, part))
            if all(c >= 0 for c in nxt):
                rec(nxt, prefix + (part,))

    rec(target, ())
    return out


def as_uea(ctx: LieContext, value) -> UEAElement:
    if isinstance(value, (UEAElement, LieElement)) and value.context is not ctx:
        raise ValueError("elements live in different contexts")
    if isinstance(value, UEAElement):
        return value
    if isinstance(value, LieElement):
        return expand_to_uea(value)
    return UEAElement.letter(ctx, value)


def commute_pair(word: tuple, a, b) -> tuple:
    """Canonical form of ``word`` under the confluent rewrite b·a → a·b."""
    out = list(word)
    i = 0
    while i < len(out) - 1:
        if out[i] == b and out[i + 1] == a:
            out[i], out[i + 1] = a, b
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(out)


def pair_quotient(p: UEAElement, a="d1", b="d2") -> UEAElement:
    """The image of ``p`` modulo a·b = b·a, written in canonical words.

    The quotient map is an algebra homomorphism, so a sum computed in the
    free algebra and then reduced equals the same sum taken in the quotient.
    """
    terms: dict = {}
    for word, coeff in p.terms.items():
        key = commute_pair(word, a, b)
        terms[key] = terms.get(key, 0) + coeff
    return UEAElement(p.context, terms)


def total_term_sum(
    z_table, delta1, delta2, target: tuple, quotient=lambda p: p
) -> UEAElement:
    """Σ over ordered decompositions of ``target`` (n ≥ 2) of the two-marker
    nested-bracket sum

        C(α⃗) = Σ_{m=0}^n [ (1/m!)[z_{α_m},[..[z_{α_1},δ₁]..]],
                            (1/(n-m)!)[z_{α_n},[..[z_{α_{m+1}},δ₂]..]] ],

    in its enveloping-algebra expansion, reduced by ``quotient``.  It
    vanishes because exp(ad Z) is an automorphism; the markers must commute
    after ``quotient`` (else ValueError).
    """
    ctx = None
    for candidate in itertools.chain(z_table.values(), (delta1, delta2)):
        if isinstance(candidate, (UEAElement, LieElement)):
            ctx = candidate.context
            break
    if ctx is None:
        raise ValueError("no Lie or enveloping element to take a context from")
    d1 = as_uea(ctx, delta1)
    d2 = as_uea(ctx, delta2)
    if not quotient(d1.bracket(d2)).is_zero():
        raise ValueError("the two markers do not commute")
    values = {}
    for deg, v in z_table.items():
        el = as_uea(ctx, v)
        if not el.is_zero():
            values[deg] = el
    acc = UEAElement.zero(ctx)
    for parts in ordered_degree_decompositions(target, sorted(values), 2):
        n = len(parts)
        for m in range(n + 1):
            left = d1
            for beta in parts[:m]:
                left = values[beta].bracket(left)
            right = d2
            for beta in parts[m:]:
                right = values[beta].bracket(right)
            acc = acc + left.bracket(right) * Fraction(
                1, math.factorial(m) * math.factorial(n - m)
            )
    return quotient(acc)


class TestMarkerQuotient:
    def test_normalization(self):
        ctx = LieContext(["z", "d1", "d2"])
        d1 = UEAElement.letter(ctx, "d1")
        d2 = UEAElement.letter(ctx, "d2")
        assert d2 * d1 != d1 * d2
        assert pair_quotient(d2 * d1) == pair_quotient(d1 * d2)
        assert pair_quotient(d1.bracket(d2)).is_zero()
        z = UEAElement.letter(ctx, "z")
        assert not pair_quotient(z * d1 - d1 * z).is_zero()

    def test_normalization_inside_longer_words(self):
        ctx = LieContext(["z", "d1", "d2"])
        w1 = UEAElement(ctx, {("d2", "d1", "d2", "d1"): F(1)})
        w2 = UEAElement(ctx, {("d1", "d1", "d2", "d2"): F(1)})
        assert pair_quotient(w1) == pair_quotient(w2) == w2
        assert commute_pair(("d2", "z", "d2", "d1", "z", "d2"), "d1", "d2") == (
            "d2", "z", "d1", "d2", "z", "d2"
        )


class TestTotalTermSum:
    @staticmethod
    def _marked_context(classes, composite=()):
        letters = ["z%d" % i for i in range(len(classes))]
        letters += list(composite) + ["d1", "d2"]
        ctx = LieContext(letters)
        table = {
            cls: UEAElement.letter(ctx, "z%d" % i)
            for i, cls in enumerate(classes)
        }
        d1 = UEAElement.letter(ctx, "d1")
        d2 = UEAElement.letter(ctx, "d2")
        return ctx, table, d1, d2

    def test_single_class_square(self):
        # only decomposition of 2a is (a, a); the n = 2 sum cancels by Jacobi
        ctx, table, d1, d2 = self._marked_context([(1,)])
        assert total_term_sum(table, d1, d2, (2,), pair_quotient).is_zero()

    def test_two_classes(self):
        ctx, table, d1, d2 = self._marked_context([(1, 0), (0, 1)])
        assert total_term_sum(table, d1, d2, (1, 1), pair_quotient).is_zero()

    def test_composite_table_value(self):
        ctx, table, d1, d2 = self._marked_context([(1,)], composite=["x", "y"])
        x = UEAElement.letter(ctx, "x")
        y = UEAElement.letter(ctx, "y")
        table[(2,)] = x.bracket(y)
        assert total_term_sum(table, d1, d2, (3,), pair_quotient).is_zero()

    def test_randomized_small_monoids(self):
        rng = random.Random(47)
        for _ in range(6):
            k = rng.randint(1, 3)
            classes = set()
            while len(classes) < rng.randint(1, 3):
                cls = tuple(rng.randint(0, 2) for _ in range(k))
                if any(cls):
                    classes.add(cls)
            classes = sorted(classes)
            ctx, table, d1, d2 = self._marked_context(classes)
            target = tuple(
                sum(cls[i] for cls in classes) + rng.randint(0, 1)
                for i in range(k)
            )
            if sum(target) > 4:
                target = tuple(min(c, 2) for c in target)
            assert total_term_sum(table, d1, d2, target, pair_quotient).is_zero()

    def test_noncommuting_markers_rejected(self):
        ctx = LieContext(["z", "d1", "d2"])
        table = {(1,): UEAElement.letter(ctx, "z")}
        with pytest.raises(ValueError, match="commute"):
            total_term_sum(
                table,
                UEAElement.letter(ctx, "d1"),
                UEAElement.letter(ctx, "d2"),
                (2,),
            )

    def test_equal_markers_commute_with_themselves(self):
        ctx = LieContext(["z", "d"])
        table = {(1,): UEAElement.letter(ctx, "z")}
        d = UEAElement.letter(ctx, "d")
        assert total_term_sum(table, d, d, (2,)).is_zero()

    def test_no_decompositions_means_zero(self):
        ctx, table, d1, d2 = self._marked_context([(2,)])
        # target (3,) has no decomposition into parts of size 2
        assert total_term_sum(table, d1, d2, (3,), pair_quotient).is_zero()

    def test_decomposition_enumeration(self):
        found = ordered_degree_decompositions((2, 1), [(1, 0), (0, 1), (1, 1)], 2)
        assert sorted(found) == sorted(
            [
                ((1, 0), (1, 0), (0, 1)),
                ((1, 0), (0, 1), (1, 0)),
                ((0, 1), (1, 0), (1, 0)),
                ((1, 0), (1, 1)),
                ((1, 1), (1, 0)),
            ]
        )

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            ordered_degree_decompositions((2,), [(0,)], 2)
