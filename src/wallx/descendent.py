"""Set-partition transform engine for box-counting series bookkeeping.

Three layers:

1. A basis of formal insertions indexed by set partitions of a finite
   label set, together with the block-merge operator on it.  The operator
   is valued in commuting bookkeeping symbols, one per label subset, and
   every entry is homogeneous of symbol-degree one, so its truncated
   matrix exponential is a plain sum of matrix powers.  Corner entries of
   sub-problems multiply out to the full entries (the factorization the
   tests check order-by-order).

2. A formal "vertex ring" of series symbols ``DT0[...]``/``PT[...]``
   indexed by key multisets, with the inverse of ``DT0[]`` adjoined.  The
   corner coefficients are solved both by recursion and in closed form
   over set partitions, and the resulting transformation table is emitted
   either with the corner coefficients left nested (``route="y"``) or
   fully expanded over two-level partitions (``route="theorem"``).

3. The degree-rescaling (Adams) operation and the kernel-coefficient
   series built from the theta coefficients, with optional substitution of
   explicit Chern data such as the pair-element Chern character in
   point-insertion symbols.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .kclasses import cy_limit_theta, theta_closed
from .ring import LaurentElement, Trunc, exact_laurent_div, laurent_sum, plethystic_exp
from .ucoeff import set_partitions

__all__ = [
    "SetPartition",
    "partitions_of",
    "merge_symbol",
    "delta_apply",
    "delta_matrix",
    "exp_minus_delta",
    "corner_entry",
    "factorized_entry",
    "total_truncate",
    "dt0_symbol",
    "pt_symbol",
    "y_recursion",
    "y_explicit",
    "dt_to_pt",
    "adams",
    "build_xi",
    "td_series",
    "pair_chern_character",
    "hbar_to_weights",
]

ONE = LaurentElement.const(1)


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

    def merge(self, which) -> "SetPartition":
        """Merge the blocks at the given positions into a single block."""
        which = set(which)
        merged = tuple(i for pos in which for i in self.blocks[pos])
        kept = [b for pos, b in enumerate(self.blocks) if pos not in which]
        return SetPartition(kept + [merged])

    def refines(self, other: "SetPartition") -> bool:
        if self.ground != other.ground:
            return False
        lookup = {i: b for b in other.blocks for i in b}
        return all(set(b) <= set(lookup[b[0]]) for b in self.blocks)

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
    return LaurentElement.gen("x" + "".join(str(i) for i in subset))


def delta_apply(sigma: SetPartition) -> dict[SetPartition, LaurentElement]:
    """One application of the block-merge operator to a basis element.

    Computed from the full splitting sum: every way of designating a set J
    of blocks contributes (-1)**|J| times the symbol of the union of J,
    mapping to the element with J merged.  The empty and singleton J land
    on the diagonal, giving the stay-put symbol minus one symbol per
    block; |J| >= 2 strictly merges.
    """
    out: dict[SetPartition, LaurentElement] = {}
    diag = merge_symbol(())
    for block in sigma.blocks:
        diag = diag - merge_symbol(block)
    out[sigma] = diag
    for m in range(2, len(sigma.blocks) + 1):
        sign = 1 if m % 2 == 0 else -1
        for chosen in combinations(range(len(sigma.blocks)), m):
            union = [i for pos in chosen for i in sigma.blocks[pos]]
            target = sigma.merge(chosen)
            entry = out.get(target, LaurentElement.zero())
            out[target] = entry + sign * merge_symbol(union)
    return out


def delta_matrix(ground) -> dict[tuple[SetPartition, SetPartition], LaurentElement]:
    """The block-merge operator on the full basis, keyed (target, source)."""
    out = {}
    for source in partitions_of(ground):
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
    """
    basis = partitions_of(ground)
    step = {p: delta_apply(p) for p in basis}
    return {
        (target, source): val
        for source in basis
        for target, val in _exp_column(source, step, order).items()
        if val
    }


def _exp_column(source: SetPartition, step, order: int) -> dict:
    """Column ``source`` of the truncated exponential: target -> entry.

    ``step`` maps every partition reachable from ``source`` to its
    ``delta_apply`` column.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    column = {source: ONE}
    out = {source: ONE}
    for m in range(1, order + 1):
        factor = Fraction(-1, m)
        pieces: dict[SetPartition, list[LaurentElement]] = {}
        for mid, coeff in column.items():
            scaled = factor * coeff
            for target, entry in step[mid].items():
                pieces.setdefault(target, []).append(scaled * entry)
        column = {target: laurent_sum(items) for target, items in pieces.items()}
        for target, coeff in column.items():
            prev = out.get(target, LaurentElement.zero())
            out[target] = prev + coeff
    return out


def corner_entry(ground, order: int) -> LaurentElement:
    """The coarsest-from-finest entry of the truncated matrix exponential."""
    return _corner(_as_ground(ground), order)


@lru_cache(maxsize=None)
def _corner(ground: tuple[int, ...], order: int) -> LaurentElement:
    step = {p: delta_apply(p) for p in partitions_of(ground)}
    column = _exp_column(SetPartition.finest(ground), step, order)
    return column.get(SetPartition.coarsest(ground), LaurentElement.zero())


def factorized_entry(sigma: SetPartition, order: int) -> LaurentElement:
    """Product form of the finest-to-sigma entry: one corner per block.

    Equals exp((n-1)·x) times the product over blocks of the block's own
    corner entry, truncated at total symbol degree <= order; the tests
    compare this with the direct entry of the matrix exponential.
    """
    n = len(sigma.blocks)
    corners = [corner_entry(block, order) for block in sigma.blocks]
    factors = [merge_symbol(()), *corners]
    # Every merge symbol enters with a nonnegative exponent, so total degree
    # never falls under a product: truncating as the product grows loses
    # nothing that the final truncation at ``order`` would keep.
    assert all(e >= 0 for el in factors for m in el.terms for _, e in m)
    trunc = Trunc(frozenset().union(*(el.variables() for el in factors)), 2 * order)
    stay = (n - 1) * merge_symbol(()) * LaurentElement.const(1, trunc)
    acc = plethystic_exp(stay)
    for corner in corners:
        acc = acc * corner
    return acc.without_trunc()


def total_truncate(element: LaurentElement, order: int) -> LaurentElement:
    """Drop terms of total degree > order, counting every variable."""
    return LaurentElement(
        {
            m: c
            for m, c in element.terms.items()
            if sum(e for _, e in m) <= 2 * order
        }
    )


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
def _y_recursive(keys: tuple[int, ...]) -> LaurentElement:
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
                term = term * _y_recursive(tuple(sorted(keys[i] for i in block)))
            yield -term

    return laurent_sum(terms())


def y_recursion(keys) -> LaurentElement:
    """Corner coefficient for the given keys, by the subtraction recursion."""
    return _y_recursive(tuple(sorted(int(k) for k in keys)))


def y_explicit(keys) -> LaurentElement:
    """Corner coefficient in closed form: a signed sum over set partitions."""
    keys = tuple(sorted(int(k) for k in keys))
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

    ``route="y"`` sums over set partitions with one corner coefficient per
    block; ``route="theorem"`` expands every corner coefficient too,
    summing over two-level partitions with signs (-1)**(n + sum of m_i) and
    factors (m_i - 1)!.  The two routes agree identically.
    """
    keys = tuple(int(k) for k in keys)
    idx = range(len(keys))
    inv = dt0_symbol(()).monomial_inverse()

    def y_terms():
        for part in set_partitions(idx):
            n = len(part)
            term = pt_symbol(sum(keys[i] for i in b) for b in part)
            term = term * dt0_symbol(()) ** (1 - n)
            for block in part:
                term = term * y_recursion(keys[i] for i in block)
            yield term

    def theorem_terms():
        for part in set_partitions(idx):
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

    if route == "y":
        return laurent_sum(y_terms())
    if route == "theorem":
        return laurent_sum(theorem_terms())
    raise ValueError(f"unknown route {route!r}")


# -- degree rescaling and the kernel-coefficient series ---------------------


def adams(k: int, element: LaurentElement, grading) -> LaurentElement:
    """Rescale each homogeneous component of degree n by k**n.

    ``grading`` maps a variable name to its integer degree (a mapping or a
    callable); every monomial must have integer total degree.  k = 0 kills
    the positive-degree part and is rejected on negative degrees.
    """
    grade = grading.__getitem__ if isinstance(grading, Mapping) else grading
    out: dict = {}
    for mono, coeff in element.terms.items():
        deg2 = sum(grade(v) * e for v, e in mono)
        if deg2 % 2:
            raise ValueError("monomial has half-integer degree")
        n = deg2 // 2
        if k == 0:
            if n < 0:
                raise ValueError("degree-rescaling by 0 needs degrees >= 0")
            if n > 0:
                continue
        else:
            coeff = coeff * Fraction(k) ** n
        out[mono] = coeff
    return LaurentElement(out, element.trunc)


def build_xi(
    k: int,
    source,
    order: int,
    *,
    hbar: str = "hbar",
    ch_prefix: str = "ch",
    ch_values=None,
):
    """Degree-rescaled kernel-coefficient series Σ k**n·θ_{n+1}/(hbar·n!).

    ``source`` is an integer rank (formal ch symbols) or an additive-mode
    class; ``ch_values`` optionally substitutes each formal ch symbol by an
    explicit element, e.g. the pair-element Chern character in
    point-insertion symbols.
    """
    h = LaurentElement.gen(hbar)
    acc = LaurentElement.zero()
    for n in range(order + 1):
        term = exact_laurent_div(
            theta_closed(source, n + 1, hbar=hbar, ch_prefix=ch_prefix), h, hbar
        )
        if ch_values is not None:
            for a in range(1, n + 2):
                if a in ch_values:
                    term = term.subs_poly(f"{ch_prefix}{a}", ch_values[a])
        acc = acc + Fraction(k) ** n * Fraction(1, math.factorial(n)) * term
    return acc


def cy_limit_xi(
    k: int, source, order: int, *, hbar: str = "hbar", ch_prefix: str = "ch"
):
    """The hbar = 0 reduction: -(-1)**rank Σ k**n ch_n, via the limit table."""
    acc = LaurentElement.zero()
    for n in range(order + 1):
        limit = cy_limit_theta(source, n, hbar=hbar, ch_prefix=ch_prefix)
        acc = acc + Fraction(k) ** n * Fraction(1, math.factorial(n)) * limit
    return acc


# -- Chern data of the pair element in point-insertion symbols --------------


def td_series(var: str, order: int) -> LaurentElement:
    """The series var/(1 - exp(-var)) truncated at the given order."""
    trunc = Trunc(frozenset({var}), 2 * (order + 1), 1)
    s = LaurentElement.gen(var) * LaurentElement.const(1, trunc)
    expm = plethystic_exp(-s)
    g = (LaurentElement.const(1, trunc) - expm) * s.monomial_inverse()
    return g.invert_series().truncate({var}, order)


def pair_chern_character(n: int, *, weights=("s1", "s2", "s3")) -> LaurentElement:
    """Degree-n Chern character of the pair element, in formal symbols.

    The total character is -td·(exp(-v) - P)·T where td is the product of
    one Todd series per tangent weight, v is the gerbe symbol, P is the
    point-insertion series with alternating signs (``taup0, taup1, ...``,
    the m-th rescaled by (-1)**m), and T is the unit-insertion series
    (``tau10, tau11, ...``, the j-th of degree j-3).  Degrees are tracked
    on an auxiliary variable and the degree-n coefficient is returned.
    """
    bound = n + 3
    trunc = Trunc(frozenset({"t"}), 2 * bound, 1)
    t = LaurentElement.gen("t")
    one = LaurentElement.const(1, trunc)

    td = one
    for w in weights:
        factor = td_series(w, bound).subs_monomial(w, LaurentElement.gen(w) * t)
        td = td * factor.without_trunc()

    expv = plethystic_exp(-(LaurentElement.gen("v") * t) * one)

    points = LaurentElement.zero(trunc)
    units = LaurentElement.zero(trunc)
    for m in range(bound + 4):
        points = points + (-1) ** m * LaurentElement.gen(f"taup{m}") * t**m
        units = units + LaurentElement.gen(f"tau1{m}") * t ** (m - 3) * one
    total = -td * (expv - points) * units
    return total.coeff_of("t", n).without_trunc()


def hbar_to_weights(element, *, hbar: str = "hbar", weights=("s1", "s2", "s3")):
    """Substitute the sum of the tangent weights for the symbol ``hbar``."""
    total = LaurentElement.zero()
    for w in weights:
        total = total + LaurentElement.gen(w)
    return element.subs_poly(hbar, total)
