"""Seeded input generator for the wallx benchmark workloads.

Pure standard library: it never imports wallx, so the inputs are fixed
before the program under test is loaded.  ``generate(workload, seed)``
returns a JSON-ready dict; the same seed always gives the same dict.

Each workload holds its amount of work fixed across seeds, so that the
spread between runs on different seeds measures the machine, not the
inputs.  What the seed varies is listed per workload below.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("vw-ladder", "free-lie", "descendent", "kernels")

# Every class (i, j) with i, j <= LADDER_SIDE, so the top rung is (3, 3),
# about 1 s on the seed code.  The next diagonal rung, (4, 4), takes about
# 20 s: too long for a run of several passes.
LADDER_SIDE = 3
# Every class of the box below (2, 2, 2) of mass at most 5.  The corner
# (2, 2, 2) itself is left out: it alone took about 2.5 s, over half a pass.
FREE_LIE_BOX = (2, 2, 2)
FREE_LIE_MASS = 5
# A stability pair on three generators whose crossing has nonzero Lie terms
# at every mass; the seed rescales it without changing any slope order.
FREE_LIE_TEMPLATE = (([1, 0, 2], [1, 1, 1]), ([0, 1, 1], [1, 1, 1]))
KERNEL_ROUNDS = 6
KERNEL_RANKS = (1, 2, 3, 4)
THETA_RANKS = (-2, -1, 1, 2, 3)
THETA_ORDERS = (2, 4, 6)


def _linear_pair_2d(rng: random.Random, sign: int) -> dict:
    """Slope data (a, b) on Z^2 with b > 0 and sign(a1*b2 - a2*b1) == sign.

    On two generators a linear stability orders every class by the sign of
    that determinant alone, so any draw of the same sign gives the same
    slope order and the same U coefficients.
    """
    while True:
        a = [rng.randint(-6, 6) for _ in range(2)]
        b = [rng.randint(1, 5) for _ in range(2)]
        det = a[0] * b[1] - a[1] * b[0]
        if det * sign > 0:
            return {"a": a, "b": b}


def _vw_ladder(rng: random.Random) -> dict:
    direction = rng.choice((1, -1))
    c = rng.choice((1, -1))
    prefix = rng.choice("abcdefgmnpr")
    side = range(LADDER_SIDE + 1)
    targets = sorted(
        ((i, j) for i in side for j in side if i or j),
        key=lambda cls: (sum(cls), cls),
    )
    return {
        "generators": [[1, 0], [0, 1]],
        "tau": _linear_pair_2d(rng, direction),
        "tau_prime": _linear_pair_2d(rng, -direction),
        "chi": [[0, c], [-c, 0]],
        "invariants": [[list(t), f"{prefix}{t[0]}_{t[1]}"] for t in targets],
        "targets": [list(t) for t in targets],
    }


def _order_preserving(rng: random.Random, a0: list, b0: list) -> dict:
    """(lam*a0 + mu*b0, nu*b0): the slope becomes (lam*s + mu)/nu, same order."""
    lam, mu, nu = rng.randint(1, 4), rng.randint(-3, 3), rng.randint(1, 3)
    return {
        "a": [lam * x + mu * y for x, y in zip(a0, b0)],
        "b": [nu * y for y in b0],
    }


def _free_lie(rng: random.Random) -> dict:
    (a, b), (a2, b2) = FREE_LIE_TEMPLATE
    targets = sorted(
        (
            cls
            for cls in itertools.product(*(range(t + 1) for t in FREE_LIE_BOX))
            if 0 < sum(cls) <= FREE_LIE_MASS
        ),
        key=lambda cls: (sum(cls), cls),
    )
    return {
        "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "tau": _order_preserving(rng, a, b),
        "tau_prime": _order_preserving(rng, a2, b2),
        "targets": [list(t) for t in targets],
    }


def _sums_distinct(keys: list) -> bool:
    """Whether distinct sub-multisets of ``keys`` have distinct sums."""
    seen = {}
    for mask in range(1 << len(keys)):
        sub = tuple(sorted(k for i, k in enumerate(keys) if mask >> i & 1))
        total = sum(sub)
        if seen.setdefault(total, sub) != sub:
            return False
    return True


def _key_sequence(rng: random.Random, pattern: str, avoid: set) -> list:
    """Keys following ``pattern`` (equal letters, equal keys) whose
    sub-multiset sums are all distinct, so no two blocks share a PT symbol
    by accident and the output size depends on the pattern only."""
    letters = sorted(set(pattern))
    while True:
        values = rng.sample([v for v in range(1, 80) if v not in avoid], len(letters))
        keys = [values[letters.index(ch)] for ch in pattern]
        if _sums_distinct(keys):
            return keys


# Key sweeps as (repeat pattern, shortest prefix).  Six keys appear only
# with repeats: six distinct keys took 2 to 3.6 s, most of a pass.
KEY_SWEEPS = (("abcde", 3), ("aabbc", 4), ("aaabbc", 5))


def _descendent(rng: random.Random) -> dict:
    # Each sweep is a user growing the key list one key at a time, so later
    # ops reuse the corner memo filled by earlier ones.  Sweeps share no key.
    keysets, used = [], set()
    for pattern, shortest in KEY_SWEEPS:
        keys = _key_sequence(rng, pattern, used)
        used |= set(keys)
        keysets += [keys[:n] for n in range(shortest, len(keys) + 1)]
    labels = rng.sample(range(10), 5)
    grounds = [
        {"ground": sorted(labels[:3]), "order": 3},
        {"ground": sorted(labels[:4]), "order": 3},
        {"ground": sorted(labels), "order": 2},
    ]
    return {"keysets": keysets, "exp_minus_delta": grounds}


def _kernels(rng: random.Random) -> dict:
    ops = []
    for _ in range(KERNEL_ROUNDS):
        # Integer exponents: the symmetrized kernels take square roots.
        q_exp = rng.choice((-2, -1, 1, 2))
        shift = rng.choice((-3, -2, -1, 1, 2, 3))
        for r in KERNEL_RANKS:
            for k in range(-5, 6):
                ops.append({"kind": "pushforward_K", "rank": r, "k": k, "twist": q_exp})
            ops.append({"kind": "pushforward_sym", "rank": r, "twist": q_exp})
            ops.append({"kind": "rigidity", "rank": r, "twist": q_exp})
            for k in range(0, 7):
                ops.append({"kind": "pushforward_coh", "rank": r, "k": k, "shift": shift})
        for rank in THETA_RANKS:
            for order in THETA_ORDERS:
                ops.append({"kind": "theta", "rank": rank, "order": order})
    rng.shuffle(ops)
    return {"ops": ops}


_MAKERS = {
    "vw-ladder": _vw_ladder,
    "free-lie": _free_lie,
    "descendent": _descendent,
    "kernels": _kernels,
}


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, **_MAKERS[workload](rng)}
