"""Free graded Lie algebra on class symbols.

Words are tuples of letters from a declared alphabet.  Elements of the
tensor algebra (``UEAElement``, any words) and of the free Lie algebra
(``LieElement``, Lyndon words) are immutable word-to-coefficient maps that
share one linear core: sums, scalar products, equality and ``repr``.  Lyndon
words, ordered by length, then lexicographically in declaration order, index
the Chen–Fox–Lyndon basis, and their standard bracketings expand into the
tensor algebra.  The module provides the expansion homomorphism
``expand_to_uea``, its one-sided inverse ``dynkin_project`` (one triangular
rewrite in the Lyndon basis over all word lengths at once, which rejects
anything outside the Lie subspace), and ``evaluate_lie``, which folds a Lie
element into any Lie algebra.  Brackets stay in the Lyndon basis: a pair of
basis words whose concatenation has them as its standard factorization
brackets to that word, and only the other pairs take the round trip through
the tensor algebra and ``dynkin_project``.  The module has no word product of
its own: tensor-algebra products, commutators and Lyndon expansions are
``ring.mul_terms``, summed by ``ring.sum_terms`` and signed or scaled by
``ring.scaled_terms``.  The exp(ad) conjugation check in the truncated
enveloping algebra and the left-nested bracketing are oracles of the
acceptance checks (``selftest.exp_ad_check``, ``selftest.left_nested``).
"""

from __future__ import annotations

import heapq
from typing import Hashable, Mapping, Sequence

from .errors import NotPrimitive
from .ring import add_terms, canonical_coefficient, mul_terms, scaled_terms, sum_terms

Word = tuple


class LieContext:
    """An ordered alphabet: letters are arbitrary hashables, ordered by
    declaration, and the algebra is free on them."""

    __slots__ = ("letters", "index", "_expansions")

    def __init__(self, letters: Sequence[Hashable]):
        letters = tuple(letters)
        index = {}
        for i, letter in enumerate(letters):
            if letter in index:
                raise ValueError(f"duplicate letter {letter!r}")
            index[letter] = i
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_expansions", {})

    def __setattr__(self, name, value):
        raise AttributeError("LieContext is immutable")

    def key(self, word: Word) -> tuple[int, ...]:
        return tuple(self.index[letter] for letter in word)


# -- Lyndon words ----------------------------------------------------------------


def _duval(size: int, max_length: int):
    """All Lyndon index-words of length ≤ max_length, in lexicographic order."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        pattern = len(w)
        while len(w) < max_length:
            w.append(w[len(w) - pattern])
        while w and w[-1] == size - 1:
            w.pop()


def lyndon_words(alphabet: Sequence[Hashable], max_length: int) -> list[Word]:
    """All Lyndon words up to the given length, ordered by length then lex."""
    alphabet = tuple(alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet letters must be distinct")
    index = {letter: i for i, letter in enumerate(alphabet)}
    words = [
        tuple(alphabet[i] for i in iw)
        for iw in _duval(len(alphabet), max_length)
    ]
    words.sort(key=lambda w: (len(w), tuple(index[l] for l in w)))
    return words


def _is_lyndon(word: Word, ctx: LieContext) -> bool:
    k = ctx.key(word)
    return len(word) > 0 and all(k < k[i:] for i in range(1, len(word)))


def standard_split(word: Word, ctx: LieContext) -> tuple[Word, Word]:
    """Standard factorization of a Lyndon word: split before the
    lexicographically least proper suffix."""
    k = ctx.key(word)
    cut = min(range(1, len(word)), key=lambda i: k[i:])
    return word[:cut], word[cut:]


# -- word-combination elements -----------------------------------------------------


def _same_context(a, b) -> None:
    if a.context is not b.context:
        raise ValueError("elements live in different contexts")


class _WordCombination:
    """Immutable finitely supported word-to-coefficient map over a context;
    subclasses fix which words may appear and how a word is shown.  Every
    coefficient is canonical, as in ``ring``: an ``int`` when it is
    integral, else a ``Fraction`` with denominator > 1."""

    __slots__ = ("context", "terms")

    _word_format = "{}"

    def __init__(self, context: LieContext, terms: dict):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, context: LieContext, terms: dict):
        """Wrap ``terms`` without the subclass's checks: its words must be
        tuples the subclass admits, with canonical nonzero coefficients."""
        out = object.__new__(cls)
        _WordCombination.__init__(out, context, terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, context: LieContext):
        return cls._trusted(context, {})

    @classmethod
    def letter(cls, context: LieContext, letter):
        if letter not in context.index:
            raise ValueError(f"unknown letter {letter!r}")
        return cls._trusted(context, {(letter,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_context(self, other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return self._trusted(self.context, terms)

    def __neg__(self):
        return self._trusted(self.context, scaled_terms(self.terms, -1))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product by a scalar, an ``int`` or a ``Fraction``."""
        if isinstance(other, _WordCombination):
            return NotImplemented
        return self._trusted(self.context, scaled_terms(self.terms, other))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.context is other.context and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        ctx = self.context
        bits = [
            f"{coeff}*" + self._word_format.format(".".join(map(str, word)) or "1")
            for word, coeff in sorted(
                self.terms.items(), key=lambda item: (len(item[0]), ctx.key(item[0]))
            )
        ]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class UEAElement(_WordCombination):
    """Finitely supported word-to-coefficient map in the tensor algebra."""

    __slots__ = ()

    def __init__(self, context: LieContext, terms: Mapping[Word, object] | None = None):
        # ``add_terms`` takes nonzero coefficients; ``canonical_coefficient``
        # checks each input's type before a zero one is dropped.
        items = terms.items() if terms else ()
        pairs = ((tuple(w), c) for w, c in items if canonical_coefficient(c))
        super().__init__(context, add_terms({}, pairs))

    @classmethod
    def unit(cls, context: LieContext) -> "UEAElement":
        return cls._trusted(context, {(): 1})

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            _same_context(self, other)
            return UEAElement(self.context, mul_terms(self.terms, other.terms))
        return super().__mul__(other)

    def bracket(self, other: "UEAElement") -> "UEAElement":
        _same_context(self, other)
        return UEAElement(self.context, _commutator(self.terms, other.terms))

    def truncated(self, maxlen: int) -> "UEAElement":
        return UEAElement._trusted(
            self.context,
            {w: c for w, c in self.terms.items() if len(w) <= maxlen},
        )


class LieElement(_WordCombination):
    """Finitely supported Lyndon-word-to-coefficient map."""

    __slots__ = ()

    _word_format = "b({})"

    def __init__(self, context: LieContext, terms: Mapping[Word, object] | None = None):
        clean: dict[Word, object] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if not _is_lyndon(word, context):
                    raise ValueError(f"{word!r} is not a Lyndon word")
                coeff = canonical_coefficient(coeff)
                if coeff:
                    clean[word] = coeff
        super().__init__(context, clean)

    def bracket(self, other: "LieElement") -> "LieElement":
        """The bracket, bilinear over pairs of basis words.

        For Lyndon words u < v whose concatenation has the standard
        factorization (u, v), [b(u), b(v)] is the basis element b(uv)
        (Reutenauer, *Free Lie Algebras*, §5.1).  Every other pair is
        expanded into one tensor-algebra sum, projected back once by
        ``dynkin_project``.
        """
        _same_context(self, other)
        ctx = self.context
        out: dict[Word, object] = {}
        rest: dict[Word, object] = {}
        keys = {v: ctx.key(v) for v in other.terms}
        for u, a in self.terms.items():
            ku = ctx.key(u)
            for v, b in other.terms.items():
                if u == v:
                    continue
                c = a * b
                if ku < keys[v]:
                    left, right = u, v
                else:
                    left, right, c = v, u, -c
                word = left + right
                if standard_split(word, ctx) == (left, right):
                    add_terms(out, ((word, c),))
                    continue
                x = _expand_lyndon(left, ctx)
                y = _expand_lyndon(right, ctx)
                add_terms(rest, scaled_terms(_commutator(x, y), c).items())
        if rest:
            add_terms(out, dynkin_project(UEAElement._trusted(ctx, rest)).terms.items())
        return LieElement._trusted(ctx, out)


# -- expansion and projection ------------------------------------------------------


def _commutator(a: Mapping, b: Mapping) -> Mapping:
    """ab - ba for word dicts ``a`` and ``b``: canonical when their
    coefficients are ``int``s, else left, as by ``mul_terms``, for the
    reader to make canonical."""
    return sum_terms((mul_terms(a, b), scaled_terms(mul_terms(b, a), -1)))


def _expand_lyndon(word: Word, ctx: LieContext) -> dict[Word, int]:
    """Tensor-algebra expansion of the standard bracketing of a Lyndon word:
    integer coefficients."""
    hit = ctx._expansions.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        out = {word: 1}
    else:
        left, right = standard_split(word, ctx)
        out = _commutator(_expand_lyndon(left, ctx), _expand_lyndon(right, ctx))
    ctx._expansions[word] = out
    return out


def expand_to_uea(x: LieElement) -> UEAElement:
    """Expand every basis bracketing via [f, g] = fg - gf."""
    ctx = x.context
    pairs = (
        (w, coeff * c)
        for word, coeff in x.terms.items()
        for w, c in _expand_lyndon(word, ctx).items()
    )
    return UEAElement._trusted(ctx, add_terms({}, pairs))


def dynkin_project(p: UEAElement) -> LieElement:
    """The Lie element whose expansion is ``p``, in the Lyndon basis.

    ``p`` may mix word lengths.  The rewrite is triangular: the expansion of
    a Lyndon word's bracketing is that word plus lexicographically larger
    words of the same length, so the least remaining word by (length, key)
    is the next basis word.  Raises NotPrimitive if ``p`` is not in the Lie
    subspace.
    """
    ctx = p.context
    rem = dict(p.terms)
    out: dict[Word, object] = {}
    # The leading word is the least in ``rem`` by (length, key): a word is
    # pushed when it enters ``rem``, and skipped if popped after leaving it.
    order = lambda w: (len(w), ctx.key(w), w)
    heap = [order(w) for w in rem]
    heapq.heapify(heap)
    while heap:
        word = heapq.heappop(heap)[2]
        if word not in rem:
            continue
        if not _is_lyndon(word, ctx):
            raise NotPrimitive(f"leading word {word!r} is not Lyndon")
        coeff = rem.pop(word)
        out[word] = coeff
        for w, c in _expand_lyndon(word, ctx).items():
            if w == word:
                continue
            acc = rem.get(w)
            if acc is None:
                acc = -coeff * c
                heapq.heappush(heap, order(w))
            else:
                acc = acc - coeff * c
            if type(acc) is not int:
                acc = canonical_coefficient(acc)
            if acc:
                rem[w] = acc
            elif w in rem:
                del rem[w]
    return LieElement._trusted(ctx, out)


def evaluate_lie(x: LieElement, leaf, bracket, zero, scale):
    """Fold a Lie element into any Lie algebra.

    ``leaf`` maps letters to target values, ``bracket`` is the target bracket,
    ``zero`` is the target zero, and ``scale(coeff, value)`` is the product
    of a target value by a coefficient.
    """
    ctx = x.context
    # Words share standard-factorization subwords: each is built once per call.
    built: dict = {}

    def build(word: Word):
        if word in built:
            return built[word]
        if len(word) == 1:
            value = leaf(word[0])
        else:
            left, right = standard_split(word, ctx)
            value = bracket(build(left), build(right))
        built[word] = value
        return value

    acc = zero
    for word in sorted(x.terms, key=lambda w: (len(w), ctx.key(w))):
        acc = acc + scale(x.terms[word], build(word))
    return acc

