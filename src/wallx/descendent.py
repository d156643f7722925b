"""Set-partition transform engine for box-counting series bookkeeping.

Three layers:

1. A basis of formal insertions indexed by set partitions of a finite
   label set, together with the block-merge operator on it.  The operator
   is valued in commuting bookkeeping symbols, one per label subset, and
   every entry is homogeneous of symbol-degree one, so its truncated
   matrix exponential is a plain sum of matrix powers.  Above a source
   with k blocks the operator is the one on k atoms with renamed symbols,
   so the powers are taken once per block count, on the finest partition
   of k atoms in packed arithmetic (``ring.packed_algebra``).  That column
   is kept in integers, scaled by order! until its entries are summed,
   and each entry is unpacked once and renamed onto every source.  Corner
   entries of sub-problems multiply out to the full entries (the
   factorization the tests check order-by-order).

2. A formal "vertex ring" of series symbols ``DT0[...]``/``PT[...]``
   indexed by key multisets, with the inverse of ``DT0[]`` adjoined.  A sum
   over set partitions of the keys of a product over blocks depends only
   on each block's key multiset, so it is an exponential over
   sub-multisets of the keys.  The corner coefficients are its logarithm,
   solved by a recursion on sub-multisets and, independently, in closed
   form over set partitions.  The transformation table is the exponential
   of the corner coefficients, each block marked by its key sum, built on
   sub-multisets with the corners left nested (``route="y"``), or fully
   expanded over two-level partitions (``route="theorem"``).  Both
   recursions split off the block that holds the first key, so repeated
   keys cost no more than their multiplicities.

3. The degree-rescaling (Adams) operation and the kernel-coefficient
   series built from the theta coefficients, with optional substitution of
   explicit Chern data such as the pair-element Chern character in
   point-insertion symbols.

Symbol names are fixed, as in ``kclasses``: the equivariant parameter is
``hbar``, the formal Chern characters are ``ch1, ch2, …`` and the tangent
weights are ``s1, s2, s3``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .kclasses import cy_limit_theta, theta_coefficients
from .ring import (
    ONE,
    LaurentElement,
    exact_laurent_div,
    exp_times,
    integer_entry,
    laurent_sum,
    mul_terms,
    packed_algebra,
    scaled_terms,
    sum_terms,
)
from .ucoeff import set_partitions

_WEIGHTS = ("s1", "s2", "s3")


# -- set partitions --------------------------------------------------------


class SetPartition:
    """A partition of a finite set of integer labels into nonempty blocks."""

    __slots__ = ("blocks", "ground")

    def __init__(self, blocks, ground=None):
        clean = []
        seen: set[int] = set()
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise ValueError("blocks must be nonempty")
            for i in b:
                if not isinstance(i, int) or isinstance(i, bool):
                    raise ValueError("labels must be integers")
                if i in seen:
                    raise ValueError(f"label {i} appears in two blocks")
                seen.add(i)
            clean.append(b)
        inferred = tuple(sorted(seen))
        if ground is not None and tuple(sorted(ground)) != inferred:
            raise ValueError("blocks do not cover the ground set")
        object.__setattr__(self, "blocks", tuple(sorted(clean)))
        object.__setattr__(self, "ground", inferred)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @staticmethod
    def finest(ground) -> "SetPartition":
        return SetPartition([(i,) for i in _as_ground(ground)])

    @staticmethod
    def coarsest(ground) -> "SetPartition":
        ground = _as_ground(ground)
        return SetPartition([ground] if ground else [])

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({list(self.blocks)!r})"

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)


def _as_ground(ground) -> tuple[int, ...]:
    if isinstance(ground, int):
        return tuple(range(1, ground + 1))
    return tuple(sorted(ground))


def partitions_of(ground) -> list[SetPartition]:
    """All set partitions of the ground set (an int n means {1..n})."""
    ground = _as_ground(ground)
    return [SetPartition(part) for part in set_partitions(ground)]


# -- the block-merge operator and its exponential ---------------------------


def merge_symbol(subset) -> LaurentElement:
    """The commuting bookkeeping symbol attached to a label subset.

    The empty subset gives the stay-put symbol ``x``; a subset {i,j,..}
    gives ``xij..``.  Labels must be single decimal digits so that names
    are unambiguous.
    """
    subset = tuple(sorted(subset))
    for i in subset:
        if not 0 <= i <= 9:
            raise ValueError("merge symbols need single-digit labels")
    return LaurentElement.gen(_symbol_name(subset))


def _symbol_name(subset: tuple[int, ...]) -> str:
    """The name of the merge symbol of a sorted subset of digit labels."""
    return "x" + "".join(map(str, subset))


def _merge_ground(ground) -> tuple[int, ...]:
    """The ground set as sorted labels, checked before any set partition is
    built: ``SetPartition`` refuses labels that are not distinct integers,
    and ``merge_symbol`` labels that cannot name a symbol."""
    ground = SetPartition.finest(ground).ground
    merge_symbol(ground)
    return ground


def _merges(blocks: tuple[tuple[int, ...], ...]):
    """The strict merges of a sorted tuple of sorted blocks: for every set J
    of two or more blocks, (-1)**|J|, the union of J, and the blocks with J
    merged, sorted again."""
    for m in range(2, len(blocks) + 1):
        sign = 1 if m % 2 == 0 else -1
        for chosen in combinations(range(len(blocks)), m):
            union = tuple(sorted(i for pos in chosen for i in blocks[pos]))
            kept = [b for pos, b in enumerate(blocks) if pos not in chosen]
            yield sign, union, tuple(sorted([*kept, union]))


def delta_apply(sigma: SetPartition) -> dict[SetPartition, LaurentElement]:
    """One application of the block-merge operator to a basis element.

    Computed from the full splitting sum: every way of designating a set J
    of blocks contributes (-1)**|J| times the symbol of the union of J,
    mapping to the element with J merged.  The empty and singleton J land
    on the diagonal, giving the stay-put symbol minus one symbol per
    block; |J| >= 2 strictly merges, each J onto its own target.
    """
    diag = merge_symbol(())
    for block in sigma.blocks:
        diag = diag - merge_symbol(block)
    out = {sigma: diag}
    for sign, union, merged in _merges(sigma.blocks):
        out[SetPartition(merged)] = sign * merge_symbol(union)
    return out


def delta_matrix(ground) -> dict[tuple[SetPartition, SetPartition], LaurentElement]:
    """The block-merge operator on the full basis, keyed (target, source)."""
    out = {}
    for source in partitions_of(_merge_ground(ground)):
        for target, entry in delta_apply(source).items():
            out[target, source] = entry
    return out


def exp_minus_delta(
    ground, order: int
) -> dict[tuple[SetPartition, SetPartition], LaurentElement]:
    """Entrywise sum of (-1)**m/m! times operator powers, m <= order.

    Every operator entry is homogeneous of symbol-degree one, so the m-th
    summand carries exactly the degree-m terms: truncating at total symbol
    degree <= order is the same as stopping the sum at m = order.

    On the partitions coarser than a source with k blocks, the operator is
    the one on partitions of k atoms with each atom standing for a block:
    the symbol of an atom set S becomes the symbol of the union of the
    blocks in S, an injective renaming.  So one column per block count,
    the finest source's column over k atoms, gives every column.
    """
    basis = partitions_of(_merge_ground(ground))
    index = {p.blocks: p for p in basis}
    templates = {}
    out = {}
    for source in basis:
        k = len(source.blocks)
        if k not in templates:
            templates[k] = _exp_template(k, order)
        names, column = templates[k]
        unions, rename = _renaming(names, source.blocks)
        for blocks, entry in column.items():
            target = index[tuple(sorted(unions[b] for b in blocks))]
            out[target, source] = entry.rename(rename)
    return out


def _exp_template(k: int, order: int):
    """The finest column of the truncated exponential over the atoms
    ``range(k)``, worked out in packed arithmetic that lives for one call.

    Returns the symbol name of every atom subset and the nonzero entries,
    keyed by the target's blocks of atoms and unpacked once, so a source
    with k blocks only renames them.  Partitions are reached from the
    finest by merges, one power at a time.  The column starts at order!
    instead of 1: the m-th power then carries order!/m! times integers, so
    its scale by -1/m stays an exact int and every product multiplies ints.
    Each summed entry is divided by order! once, at the end.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    names = {s: _symbol_name(s) for n in range(k + 1) for s in combinations(range(k), n)}
    symbols = {s: LaurentElement.gen(name) for s, name in names.items()}
    algebra = packed_algebra(symbols.values(), depth=order)
    packed = {s: algebra.pack(symbol) for s, symbol in symbols.items()}
    steps = {}

    def step(blocks):
        # The operator's column at a partition of the atoms, packed.
        if blocks not in steps:
            diag = sum_terms([packed[()], *(scaled_terms(packed[b], -1) for b in blocks)])
            steps[blocks] = [(blocks, diag)] + [
                (merged, scaled_terms(packed[union], sign))
                for sign, union, merged in _merges(blocks)
            ]
        return steps[blocks]

    scale = math.factorial(order)
    finest = tuple((i,) for i in range(k))
    column = {finest: scaled_terms(algebra.pack(ONE), scale)}
    pieces = {finest: [column[finest]]}
    for m in range(1, order + 1):
        factor = Fraction(-1, m)
        terms: dict[tuple, list] = {}
        for mid, coeff in column.items():
            scaled = scaled_terms(coeff, factor)
            for target, entry in step(mid):
                terms.setdefault(target, []).append(mul_terms(scaled, entry))
        column = {}
        for t, items in terms.items():
            c = sum_terms(items)
            if c:
                column[t] = c
                pieces.setdefault(t, []).append(c)
    unit = Fraction(1, scale)
    entries = {t: sum_terms(items) for t, items in pieces.items()}
    return names, {t: algebra.unpack(scaled_terms(c, unit)) for t, c in entries.items() if c}


def _renaming(names, blocks):
    """For atoms standing for ``blocks``: the labels of each atom subset's
    union, and the renaming of the atom subsets' symbols to their unions'."""
    unions = {s: tuple(sorted(i for a in s for i in blocks[a])) for s in names}
    return unions, {names[s]: _symbol_name(u) for s, u in unions.items()}


def corner_entry(ground, order: int) -> LaurentElement:
    """The coarsest-from-finest entry of the truncated matrix exponential."""
    return _corner(_merge_ground(ground), order)


@lru_cache(maxsize=None)
def _corner(ground: tuple[int, ...], order: int) -> LaurentElement:
    k = len(ground)
    names, column = _exp_template(k, order)
    coarsest = (tuple(range(k)),) if k else ()
    _, rename = _renaming(names, SetPartition.finest(ground).blocks)
    return column.get(coarsest, LaurentElement.zero()).rename(rename)


def factorized_entry(sigma: SetPartition, order: int) -> LaurentElement:
    """Product form of the finest-to-sigma entry: one corner per block.

    Equals exp((n-1)·x) times the product over blocks of the block's own
    corner entry, truncated at total symbol degree <= order; the tests
    compare this with the direct entry of the matrix exponential.
    """
    x = merge_symbol(())
    corners = [corner_entry(block, order) for block in sigma.blocks]
    names = x.variables().union(*(corner.variables() for corner in corners))
    return exp_times((len(sigma.blocks) - 1) * x, corners, names, order)


def total_truncate(element: LaurentElement, order: int) -> LaurentElement:
    """Drop terms of total degree > order, counting every variable."""
    return element.truncate(element.variables(), order)


# -- the vertex ring and the transformation table ---------------------------


def _series_symbol(family: str, keys) -> LaurentElement:
    inner = ",".join(str(k) for k in sorted(keys))
    return LaurentElement.gen(f"{family}[{inner}]")


def dt0_symbol(keys=()) -> LaurentElement:
    """The no-boundary box-counting series symbol for a key multiset."""
    return _series_symbol("DT0", keys)


def pt_symbol(keys=()) -> LaurentElement:
    """The stable-pairs series symbol for a key multiset."""
    return _series_symbol("PT", keys)


@lru_cache(maxsize=None)
def _unit_power(k: int) -> LaurentElement:
    """``DT0[]**k``, shared: elements are immutable."""
    return dt0_symbol(()) ** k


def _multiplicities(keys: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The distinct values of ``keys`` in increasing order, and how often
    each occurs: the multiplicity vector of the keys."""
    values = tuple(sorted(set(keys)))
    return values, tuple(keys.count(v) for v in values)


def _keys_of(values: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted key multiset with multiplicity vector ``b``."""
    return tuple(v for v, n in zip(values, b) for _ in range(n))


def _first_blocks(c: tuple[int, ...]):
    """Every multiplicity vector b <= c with b_i0 > 0, where i0 is the first
    nonzero entry of c, and how many blocks of the labels of c that hold
    the first label have key multiset b: C(c_i0 - 1, b_i0 - 1) times
    C(c_i, b_i) over the other values i."""
    i0 = next(i for i, n in enumerate(c) if n)
    ranges = [range(1, n + 1) if i == i0 else range(n + 1) for i, n in enumerate(c)]
    for b in product(*ranges):
        # C(c_i0 - 1, b_i0 - 1) = C(c_i0, b_i0)·b_i0/c_i0, exactly.
        yield b, math.prod(map(math.comb, c, b)) * b[i0] // c[i0]


@lru_cache(maxsize=None)
def _y_recursive(keys: tuple[int, ...]) -> LaurentElement:
    if len(keys) <= 1:
        return dt0_symbol(keys)
    values, m = _multiplicities(keys)

    def terms():
        yield dt0_symbol(keys)
        for b, count in _first_blocks(m):
            if b == m:
                continue
            rest = _keys_of(values, tuple(n - k for n, k in zip(m, b)))
            scale = dt0_symbol(rest) * _unit_power(-1) * -count
            yield _y_recursive(_keys_of(values, b)) * scale

    return laurent_sum(terms())


def y_recursion(keys) -> LaurentElement:
    """Corner coefficient for the given keys, by the subtraction recursion.

    The box-counting series is the exponential of the corner coefficients:
    DT0[m]/DT0[] is the sum over set partitions of the keys of the product
    of Y(block)/DT0[].  Splitting off the block that holds the first key
    solves for Y(m) with one term per smaller sub-multiset b of the keys
    that holds it: Y(m) = DT0[m] - Σ c(m, b)·Y(b)·DT0[m - b]/DT0[], where
    c(m, b) counts the label sets with key multiset b that hold the first
    label.
    """
    return _y_recursive(tuple(sorted(map(integer_entry, keys))))


def y_explicit(keys) -> LaurentElement:
    """Corner coefficient in closed form: a signed sum over set partitions."""
    keys = tuple(sorted(map(integer_entry, keys)))
    if not keys:
        return dt0_symbol(())
    inv = dt0_symbol(()).monomial_inverse()

    def terms():
        for part in set_partitions(range(len(keys))):
            n = len(part)
            coeff = Fraction(math.factorial(n - 1) * (-1 if n % 2 == 0 else 1))
            term = coeff * inv ** (n - 1)
            for block in part:
                term = term * dt0_symbol(keys[i] for i in block)
            yield term

    return laurent_sum(terms())


def dt_to_pt(keys, route: str = "y") -> LaurentElement:
    """Transformation table: the boxed series for the given keys, expanded
    over stable-pairs symbols and no-boundary symbols.

    ``route="y"`` keeps one corner coefficient per block: the table is
    DT0[] times the exponential of Σ u_{sum b}·Y(b)/DT0[] over key
    sub-multisets b, where each block carries a mark for its key sum and a
    product of marks becomes one ``PT`` symbol.  The exponential is built
    by splitting off the block that holds the first key, on sub-multisets
    of the keys, so repeated keys cost no more than their multiplicities.
    ``route="theorem"`` expands every corner coefficient too, summing over
    two-level set partitions with signs (-1)**(n + sum of m_i) and factors
    (m_i - 1)!.  The two routes agree identically.
    """
    keys = tuple(map(integer_entry, keys))
    if route == "y":
        values, m = _multiplicities(keys)
        blocks = {}
        tables = {tuple(0 for _ in m): {(): ONE}}

        def block(b):
            # The key sum of a block and its corner coefficient.
            if b not in blocks:
                sub = _keys_of(values, b)
                blocks[b] = sum(sub), y_recursion(sub)
            return blocks[b]

        def table(c):
            # Sorted block key sums -> the sum of the products of the block
            # corners, over set partitions of the labels of c.
            if c in tables:
                return tables[c]
            pieces: dict[tuple[int, ...], list[LaurentElement]] = {}
            for b, count in _first_blocks(c):
                total, weight = block(b)
                if count != 1:
                    weight = weight * count
                if b == c:
                    pieces.setdefault((total,), []).append(weight)
                    continue
                for sums, coeff in table(tuple(n - k for n, k in zip(c, b))).items():
                    key = tuple(sorted((*sums, total)))
                    pieces.setdefault(key, []).append(coeff * weight)
            tables[c] = {
                key: items[0] if len(items) == 1 else laurent_sum(items)
                for key, items in pieces.items()
            }
            return tables[c]

        return laurent_sum(
            pt_symbol(sums) * _unit_power(1 - len(sums)) * coeff
            for sums, coeff in table(m).items()
        )

    def theorem_terms():
        inv = _unit_power(-1)
        for part in set_partitions(range(len(keys))):
            n = len(part)
            pt = pt_symbol(sum(keys[i] for i in b) for b in part)
            for combo in product(*[list(set_partitions(b)) for b in part]):
                msum = sum(len(sub) for sub in combo)
                coeff = Fraction((-1) ** (n + msum))
                term = pt * dt0_symbol(()) * inv**msum
                for sub in combo:
                    coeff = coeff * math.factorial(len(sub) - 1)
                    for piece in sub:
                        term = term * dt0_symbol(keys[i] for i in piece)
                yield coeff * term

    if route == "theorem":
        return laurent_sum(theorem_terms())
    raise ValueError(f"unknown route {route!r}")


# -- degree rescaling and the kernel-coefficient series ---------------------


def adams(k: int, element: LaurentElement, grading) -> LaurentElement:
    """Rescale each homogeneous component of degree n by k**n.

    ``grading`` maps a variable name to its integer degree (a mapping or a
    callable); every monomial must have integer total degree.  ``k`` is
    read by ``ring.integer_entry``; k = 0 kills the positive-degree part and
    is rejected on negative degrees.
    """
    k = Fraction(integer_entry(k))
    grade = grading.__getitem__ if isinstance(grading, Mapping) else grading

    def terms():
        for exps, coeff in element.monomials():
            n = Fraction(sum(grade(v) * e for v, e in exps.items()))
            if n.denominator != 1:
                raise ValueError("monomial has half-integer degree")
            if k == 0:
                if n < 0:
                    raise ValueError("degree-rescaling by 0 needs degrees >= 0")
                if n > 0:
                    continue
            yield LaurentElement.monomial(coeff * k ** int(n), exps)

    return laurent_sum(terms())


def build_xi(k: int, source, order: int, *, ch_values=None):
    """Degree-rescaled kernel-coefficient series Σ k**n·θ_{n+1}/(hbar·n!).

    ``source`` is an integer rank (formal ch symbols) or an additive-mode
    class; ``ch_values`` optionally substitutes each formal ch symbol by an
    explicit element, e.g. the pair-element Chern character in
    point-insertion symbols.  θ_1, …, θ_{order+1} come from one
    ``theta_coefficients`` call; ``k`` and ``order`` are read by
    ``ring.integer_entry``, and below order 0 the sum is empty.
    """
    k = integer_entry(k)
    order = integer_entry(order)
    if order < 0:
        return LaurentElement.zero()
    h = LaurentElement.gen("hbar")
    thetas = theta_coefficients(source, order + 1)
    acc = LaurentElement.zero()
    for n in range(order + 1):
        term = exact_laurent_div(thetas[n + 1], h, "hbar")
        if ch_values is not None:
            for a in range(1, n + 2):
                if a in ch_values:
                    term = term.subs(f"ch{a}", ch_values[a])
        acc = acc + k**n * Fraction(1, math.factorial(n)) * term
    return acc


def cy_limit_xi(k: int, source, order: int):
    """The hbar = 0 reduction of ``build_xi``: -(-1)**rank Σ k**n ch_n from
    ``kclasses.cy_limit_theta``; ``k`` and ``order`` are read as in
    ``build_xi``."""
    k = integer_entry(k)
    acc = LaurentElement.zero()
    for n in range(integer_entry(order) + 1):
        limit = cy_limit_theta(source, n)
        acc = acc + k**n * Fraction(1, math.factorial(n)) * limit
    return acc


# -- Chern data of the pair element in point-insertion symbols --------------


def pair_chern_character(n: int) -> LaurentElement:
    """Degree-n Chern character of the pair element, in formal symbols.

    The total character is -td·(exp(-v) - P)·T where td is the product of
    one Todd series per tangent weight, v is the gerbe symbol, P is the
    point-insertion series with alternating signs (``taup0, taup1, ...``,
    the m-th rescaled by (-1)**m), and T is the unit-insertion series
    (``tau10, tau11, ...``, the j-th of degree j-3).  Its degree-n part is
    the one sum -Σ_{a+b+c=n} td_a·(E_b - P_b)·T_c, with td_a the degree-a
    part of ∏_w Σ_k b_k·w**k, where Σ_k b_k·w**k = w/(1 - exp(-w)) and
    b_k = B_k⁺/k! (the Bernoulli recurrence), E_b = (-v)**b/b!,
    P_b = (-1)**b·taup_b and T_c = tau1_{c+3}.  ``n`` is read by
    ``ring.integer_entry``; below degree -3 the character is 0.
    """
    top = integer_entry(n) + 3  # the largest a + b
    bernoulli: list[Fraction] = []  # B_k⁺ = B_k but B_1⁺ = +1/2
    for k in range(top + 1):
        total = sum(math.comb(k + 1, j) * b for j, b in enumerate(bernoulli))
        bernoulli.append(1 - Fraction(total, k + 1))  # Σ_{j<=k} C(k+1, j)·B_j⁺ = k + 1
    b = [bk / math.factorial(k) for k, bk in enumerate(bernoulli)]
    todd = [
        laurent_sum(
            LaurentElement.monomial(b[i] * b[j] * b[a - i - j], {"s1": i, "s2": j, "s3": a - i - j})
            for i in range(a + 1)
            for j in range(a - i + 1)
        )
        for a in range(top + 1)
    ]
    v = LaurentElement.gen("v")
    points = [  # E_e - P_e
        (-1) ** e * (v**e / math.factorial(e) - LaurentElement.gen(f"taup{e}"))
        for e in range(top + 1)
    ]
    return -laurent_sum(
        todd[a] * points[e] * LaurentElement.gen(f"tau1{top - a - e}")
        for a in range(top + 1)
        for e in range(top + 1 - a)
    )


def hbar_to_weights(element):
    """Substitute the sum of the tangent weights for the symbol ``hbar``."""
    total = LaurentElement.zero()
    for w in _WEIGHTS:
        total = total + LaurentElement.gen(w)
    return element.subs("hbar", total)
