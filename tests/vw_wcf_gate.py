"""Gate for the slope-ordered peel: ``vw_wcf`` equals the splitting-sum
oracle, and the expansion of ``utilde_lie_element`` equals the U-side word
sum, on every class of two generators up to mass 8, for four stability
pairs.  Both checks share one set of U terms per class.

Too slow for the test suite (the oracle enumerates 2,568 splittings of
(4, 4) alone), so it runs as a script:

    PYTHONPATH=src python tests/vw_wcf_gate.py

It prints one line per pair and exits nonzero on the first mismatch.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from test_wallcross import splitting_sum, tied_table, u_terms

from wallx.freelie import LieContext, UEAElement, expand_to_uea
from wallx.ring import LaurentElement
from wallx.ucoeff import EffectiveMonoid, linear_stability, utilde_lie_element
from wallx.wallcross import InvariantTable, vw_wcf

MASS = 8
MONOID = EffectiveMonoid([(1, 0), (0, 1)])


def pairs():
    # The README quick start.
    yield "readme", linear_stability([1, 0], [1, 1]), linear_stability([0, 1], [1, 1])
    # The first pair the selftest's specialization criterion draws.
    rng = random.Random(606)
    draw = lambda: linear_stability(
        [rng.randint(-4, 4) for _ in range(2)], [rng.randint(1, 4) for _ in range(2)]
    )
    yield "selftest", draw(), draw()
    yield "linear", linear_stability([2, -1], [1, 3]), linear_stability([-1, 3], [2, 1])
    yield (
        "tied",
        tied_table(MONOID, [1, 0], [1, 1], Fraction(1, 2), MASS),
        tied_table(MONOID, [0, 1], [1, 1], Fraction(1, 3), MASS),
    )


def main() -> int:
    chi = [[0, 3], [-3, 0]]
    classes = MONOID.effective_upto(MASS)
    table = InvariantTable(
        {cls: LaurentElement.gen(f"v{cls[0]}_{cls[1]}") for cls in classes},
        monoid=MONOID,
    )
    ctx = LieContext(classes)
    for name, tau, taup in pairs():
        oracle_s = product_s = words_s = 0.0
        splittings = 0
        for alpha in classes:
            splittings += len(MONOID.decompositions(alpha))
            start = time.perf_counter()
            terms = u_terms(alpha, tau, taup, MONOID)
            expected = splitting_sum(terms, table, chi)
            oracle_s += time.perf_counter() - start
            start = time.perf_counter()
            got = vw_wcf(alpha, tau, taup, table, chi)
            product_s += time.perf_counter() - start
            if got != expected:
                print(f"{name}: MISMATCH at {alpha}")
                return 1
            start = time.perf_counter()
            element = utilde_lie_element(alpha, tau, taup, MONOID, context=ctx)
            words_s += time.perf_counter() - start
            if expand_to_uea(element) != UEAElement(ctx, dict(terms)):
                print(f"{name}: word sum MISMATCH at {alpha}")
                return 1
        print(
            f"{name}: {len(classes)} classes equal, {splittings} splittings, "
            f"splitting sum {oracle_s:.1f} s, vw_wcf {product_s:.2f} s, "
            f"utilde_lie_element {words_s:.2f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
