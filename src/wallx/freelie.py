"""Free graded Lie algebra on class symbols.

Words are tuples of letters from a declared alphabet.  Elements of the
tensor algebra (``UEAElement``, any words) and of the free Lie algebra
(``LieElement``, Lyndon words) are immutable word-to-coefficient maps that
share one linear core: sums, scalar products, equality and ``repr``.  Lyndon
words, ordered by length, then lexicographically in declaration order, index
the Chen–Fox–Lyndon basis, and their standard bracketings expand into the
tensor algebra.  The module provides the expansion homomorphism, its
one-sided inverse on primitive elements (a triangular rewrite in the Lyndon
basis that rejects anything outside the Lie subspace), and exp(ad)
conjugation checks in the truncated enveloping algebra.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .errors import NotPrimitive

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


def _add_into(out: dict, pairs) -> dict:
    """Add (word, coeff) pairs into ``out``, dropping words that cancel."""
    for word, coeff in pairs:
        acc = out.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            out[word] = acc
        elif word in out:
            del out[word]
    return out


class _WordCombination:
    """Immutable finitely supported word-to-coefficient map over a context;
    subclasses fix which words may appear and how a word is shown."""

    __slots__ = ("context", "terms")

    _word_format = "{}"

    def __init__(self, context: LieContext, terms: dict):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, context: LieContext):
        return cls(context)

    @classmethod
    def letter(cls, context: LieContext, letter, coeff=Fraction(1)):
        if letter not in context.index:
            raise ValueError(f"unknown letter {letter!r}")
        return cls(context, {(letter,): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_context(self, other)
        return type(self)(self.context, _add_into(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)(self.context, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _WordCombination):
            return NotImplemented
        return type(self)(self.context, {w: c * other for w, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, _WordCombination):
            return NotImplemented
        return type(self)(self.context, {w: other * c for w, c in self.terms.items()})

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
        clean = _add_into({}, ((tuple(w), c) for w, c in terms.items())) if terms else {}
        super().__init__(context, clean)

    @classmethod
    def unit(cls, context: LieContext, coeff=Fraction(1)) -> "UEAElement":
        return cls(context, {(): coeff})

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            _same_context(self, other)
            return self._product(other, None)
        return super().__mul__(other)

    def _product(self, other: "UEAElement", maxlen: int | None) -> "UEAElement":
        pairs = (
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
            if maxlen is None or len(w1) + len(w2) <= maxlen
        )
        return UEAElement(self.context, _add_into({}, pairs))

    def bracket(self, other: "UEAElement") -> "UEAElement":
        return self * other - other * self

    def truncated(self, maxlen: int) -> "UEAElement":
        return UEAElement(
            self.context,
            {w: c for w, c in self.terms.items() if len(w) <= maxlen},
        )

    def word_lengths(self) -> set[int]:
        return {len(w) for w in self.terms}


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
                if coeff:
                    clean[word] = coeff
        super().__init__(context, clean)

    def bracket(self, other: "LieElement") -> "LieElement":
        _same_context(self, other)
        return uea_to_lie(expand_to_uea(self).bracket(expand_to_uea(other)))


# -- expansion and projection ------------------------------------------------------


def _expand_lyndon(word: Word, ctx: LieContext) -> dict[Word, Fraction]:
    """Tensor-algebra expansion of the standard bracketing of a Lyndon word."""
    hit = ctx._expansions.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        out = {word: Fraction(1)}
    else:
        left, right = standard_split(word, ctx)
        a = _expand_lyndon(left, ctx)
        b = _expand_lyndon(right, ctx)
        out = _add_into(
            {},
            (
                pair
                for w1, c1 in a.items()
                for w2, c2 in b.items()
                for pair in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2))
            ),
        )
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
    return UEAElement(ctx, _add_into({}, pairs))


def uea_to_lie(p: UEAElement) -> LieElement:
    """Rewrite a Lie-subspace element in the Lyndon basis.

    Uses the triangularity of the expansion: the expansion of a Lyndon word's
    bracketing is that word plus lexicographically larger words of the same
    length.  Raises NotPrimitive if the input is not in the Lie subspace.
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
            sub = coeff * c
            if acc is None:
                acc = -sub
                heapq.heappush(heap, order(w))
            else:
                acc = acc - sub
            if acc:
                rem[w] = acc
            elif w in rem:
                del rem[w]
    return LieElement(ctx, out)


def left_nested(word: Word, ctx: LieContext) -> LieElement:
    """The left-nested bracketing [[..[w1, w2], w3], .., wn] as a Lie element."""
    acc = LieElement.letter(ctx, word[0])
    for letter in word[1:]:
        acc = acc.bracket(LieElement.letter(ctx, letter))
    return acc


def dynkin_project(p: UEAElement, n: int) -> LieElement:
    """Recover the Lie element with expansion ``p`` (homogeneous of length n).

    The result equals the Dynkin–Specht–Wever sum (1/n)·Σ_w p[w]·[w] over
    left-nested bracketings, but is computed by the triangular rewrite of
    ``uea_to_lie``; NotPrimitive is raised when ``p`` is not a Lie element.
    """
    ctx = p.context
    if p.is_zero():
        return LieElement.zero(ctx)
    if p.word_lengths() != {n}:
        raise ValueError(f"input is not homogeneous of word length {n}")
    return uea_to_lie(p)


def evaluate_lie(x: LieElement, leaf, bracket, zero, scale=None):
    """Fold a Lie element into any Lie algebra.

    ``leaf`` maps letters to target values, ``bracket`` is the target bracket,
    and ``zero`` is the target zero.  Coefficients act through ``scale``
    (default: left multiplication).
    """
    ctx = x.context
    if scale is None:
        scale = lambda coeff, value: coeff * value

    def build(word: Word):
        if len(word) == 1:
            return leaf(word[0])
        left, right = standard_split(word, ctx)
        return bracket(build(left), build(right))

    acc = zero
    for word in sorted(x.terms, key=lambda w: (len(w), ctx.key(w))):
        acc = acc + scale(x.terms[word], build(word))
    return acc


# -- exp(ad) conjugation check ------------------------------------------------------


def _exp_truncated(x: UEAElement, order: int) -> UEAElement:
    if () in x.terms:
        raise ValueError("series exponential needs no constant term")
    acc = UEAElement.unit(x.context)
    term = acc
    k = 0
    while not term.is_zero():
        k += 1
        term = term._product(x, order) * Fraction(1, k)
        acc = acc + term
    return acc


def exp_ad_check(x: LieElement, y: LieElement, order: int) -> bool:
    """Verify e^{ad_x} y = e^x y e^{-x} in the length-truncated tensor algebra."""
    xe = expand_to_uea(x)
    ye = expand_to_uea(y)
    lhs = UEAElement.zero(x.context)
    term = ye
    k = 0
    while not term.is_zero():
        lhs = lhs + term
        k += 1
        term = (xe._product(term, order) - term._product(xe, order)) * Fraction(1, k)
    ex = _exp_truncated(xe, order)
    exm = _exp_truncated(-xe, order)
    rhs = ex._product(ye, order)._product(exm, order)
    return lhs.truncated(order) == rhs.truncated(order)
