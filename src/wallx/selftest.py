"""Twelve acceptance checks, each with an independently derived oracle.

Every criterion function computes the library's answer and an expected
answer through a separate route — closed forms, brute-force enumeration,
or a hand-built series — and raises AssertionError on the first
mismatch.  The routes that only these checks and the tests call live here
rather than in the library modules: ``class_sum``, the composition and
partition sums ``c_n`` and ``mu_n``, the left-nested bracketing
``left_nested``, the exp(ad) conjugation check ``exp_ad_check`` and the
κ = 1 specialization ``specialize_kappa``.  The oracles that the benchmark
harness imports by name stay in their modules.  ``run_all`` executes
every criterion with one pass/fail line each plus timings; it is shared by
the test suite and the ``selftest`` subcommand of the command-line tool.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .descendent import (
    SetPartition,
    dt_to_pt,
    exp_minus_delta,
    factorized_entry,
    partitions_of,
    total_truncate,
    y_explicit,
    y_recursion,
)
from .errors import NotPrimitive, PoleAtOne
from .freelie import (
    LieContext,
    LieElement,
    UEAElement,
    Word,
    dynkin_project,
    expand_to_uea,
    lyndon_words,
)
from .kclasses import (
    VirtualClass,
    cy_limit_theta,
    projective_pushforward_K,
    projective_pushforward_coh,
    projective_pushforward_symmetrized,
    pushforward_closed_K,
    pushforward_closed_coh,
    quantum_integer,
    rigidity_residue,
    rigidity_residue_coh,
    theta_closed,
    theta_coefficients,
)
from .ring import KAPPA, Element, LaurentElement, RationalElement, SlopeValue, exact_laurent_div
from .ucoeff import (
    ClassVec,
    EffectiveMonoid,
    S_coeff,
    StabilityData,
    U_coeff,
    as_class,
    compositions,
    linear_stability,
    set_partitions,
    utilde_lie_element,
    utilde_word_sum,
)
from .wallcross import (
    InvariantTable,
    QuantumTorusBackend,
    invert_semistable,
    pair_invariant_rhs,
    unrefined_integer,
    vw_wcf,
    wcf_rhs,
)

F = Fraction
L = LaurentElement

TWO_GEN = EffectiveMonoid([(1, 0), (0, 1)])
CHI = [[0, 3], [-3, 0]]


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _random_linear(rng: random.Random, dim: int) -> StabilityData:
    a = [rng.randint(-4, 4) for _ in range(dim)]
    b = [rng.randint(1, 4) for _ in range(dim)]
    return linear_stability(a, b)


def _simple_type(t) -> StabilityData:
    return StabilityData(lambda cls: SlopeValue.of(0 if cls[0] >= 1 else t))


def _symbol_table(classes, **kwargs) -> InvariantTable:
    return InvariantTable(
        {cls: L.gen("v" + "".join(map(str, cls))) for cls in classes}, **kwargs
    )


# -- oracles ----------------------------------------------------------------------


def class_sum(classes: Iterable[ClassVec]) -> ClassVec:
    classes = [as_class(c) for c in classes]
    if not classes:
        raise ValueError("empty class sum")
    dim = len(classes[0])
    if any(len(c) != dim for c in classes):
        raise ValueError("class vectors of mixed dimension")
    return tuple(sum(col) for col in zip(*classes))


def c_n(n: int) -> Fraction:
    """Σ over compositions of n of (-1)^{#blocks}·Π 1/(block size)!."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = Fraction(0)
    for comp in compositions(n):
        term = Fraction(-1 if len(comp) % 2 == 1 else 1)
        for size in comp:
            term /= math.factorial(size)
        acc += term
    return acc


def mu_n(n: int) -> Fraction:
    """Σ over set partitions of {1..n} of Π (-1)^{|B|-1}(|B|-1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = Fraction(0)
    for part in set_partitions(range(n)):
        term = Fraction(1)
        for block in part:
            size = len(block)
            term *= Fraction(
                math.factorial(size - 1) * (1 if size % 2 == 1 else -1)
            )
        acc += term
    return acc


def left_nested(word: Word, ctx: LieContext) -> LieElement:
    """The left-nested bracketing [[..[w1, w2], w3], .., wn] as a Lie element."""
    acc = LieElement.letter(ctx, word[0])
    for letter in word[1:]:
        acc = acc.bracket(LieElement.letter(ctx, letter))
    return acc


def _exp_truncated(x: UEAElement, order: int) -> UEAElement:
    if () in x.terms:
        raise ValueError("series exponential needs no constant term")
    acc = UEAElement.unit(x.context)
    term = acc
    k = 0
    while not term.is_zero():
        k += 1
        term = (term * x).truncated(order) * Fraction(1, k)
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
        term = xe.bracket(term).truncated(order) * Fraction(1, k)
    ex = _exp_truncated(xe, order)
    exm = _exp_truncated(-xe, order)
    rhs = (ex * ye).truncated(order) * exm
    return lhs.truncated(order) == rhs.truncated(order)


_ROOT_MINUS_ONE = LaurentElement.monomial(1, {KAPPA: Fraction(1, 2)}) - 1


def specialize_kappa(f: Element):
    """Value at κ = 1 when the limit exists; PoleAtOne otherwise."""
    if isinstance(f, LaurentElement):
        return f.subs(KAPPA, 1)
    num, den = f.num, f.den
    n1, d1 = num.subs(KAPPA, 1), den.subs(KAPPA, 1)
    while d1 == LaurentElement.zero():
        if n1 != LaurentElement.zero():
            raise PoleAtOne(f"genuine pole at {KAPPA} = 1")
        if not num:
            break
        num = exact_laurent_div(num, _ROOT_MINUS_ONE, KAPPA)
        den = exact_laurent_div(den, _ROOT_MINUS_ONE, KAPPA)
        n1, d1 = num.subs(KAPPA, 1), den.subs(KAPPA, 1)
    if not num:
        return LaurentElement.zero()
    result = n1 / d1
    if isinstance(result, RationalElement):
        return result.maybe_laurent()
    return result


# -- criteria ---------------------------------------------------------------------


def identity_delta() -> None:
    """U(α₁,…,α_n; τ, τ) is 1 for n = 1 and 0 otherwise, over randomized
    stability tables and all splittings with up to five parts."""
    rng = random.Random(101)
    for _ in range(3):
        tau = _random_linear(rng, 2)
        for parts in TWO_GEN.decompositions((2, 3), max_parts=5):
            expected = 1 if len(parts) == 1 else 0
            _ensure(
                U_coeff(parts, tau, tau) == expected,
                f"U{parts} at identity stability is not {expected}",
            )


def transitivity() -> None:
    """U(α⃗; τ, τ″) equals the grouped sum through a middle stability τ′,
    over randomized triples and splittings with up to four parts."""
    rng = random.Random(202)
    for _ in range(3):
        tau = _random_linear(rng, 2)
        tau_mid = _random_linear(rng, 2)
        tau_end = _random_linear(rng, 2)
        for parts in TWO_GEN.decompositions((2, 2), max_parts=4):
            direct = U_coeff(parts, tau, tau_end)
            composed = F(0)
            for sizes in compositions(len(parts)):
                bounds = [0]
                for s in sizes:
                    bounds.append(bounds[-1] + s)
                blocks = [
                    parts[bounds[j] : bounds[j + 1]] for j in range(len(sizes))
                ]
                term = U_coeff(
                    [class_sum(b) for b in blocks], tau_mid, tau_end
                )
                for block in blocks:
                    if not term:
                        break
                    term *= U_coeff(block, tau, tau_mid)
                composed += term
            _ensure(direct == composed, f"transitivity fails for {parts}")


def simple_type_closed_forms() -> None:
    """One rank-one class among rank-zero classes: S follows the two-case
    sign table, U is (-1)**(i-1)/((n-i)!(i-1)!), and the canonical bracket
    element is Σ 1/(n-1)! times the left-nested bracket."""
    tau_minus = _simple_type(-1)
    tau_plus = _simple_type(1)
    A, B = (1, 0), (0, 1)
    for n in range(1, 7):
        for i in range(1, n + 1):
            tup = [B] * (i - 1) + [A] + [B] * (n - i)
            s_val = S_coeff(tup, tau_minus, tau_plus)
            if n == 1:
                s_expected = 1
            elif i == n:
                s_expected = (-1) ** (n - 1)
            elif i == n - 1:
                s_expected = (-1) ** (n - 2)
            else:
                s_expected = 0
            _ensure(s_val == s_expected, f"S case table fails at n={n}, i={i}")
            u_expected = F(
                (-1) ** (i - 1),
                math.factorial(n - i) * math.factorial(i - 1),
            )
            _ensure(
                U_coeff(tup, tau_minus, tau_plus) == u_expected,
                f"U closed form fails at n={n}, i={i}",
            )
    for d in range(6):
        target = (1, d)
        el = utilde_lie_element(target, tau_minus, tau_plus, TWO_GEN)
        ctx = el.context
        expected = LieElement.zero(ctx)
        for parts in TWO_GEN.decompositions(target):
            if parts[0][0] != 1 or any(p[0] != 0 for p in parts[1:]):
                continue
            expected = expected + left_nested(parts, ctx) * F(
                1, math.factorial(len(parts) - 1)
            )
        _ensure(el == expected, f"bracket element fails for target {target}")


def dynkin_inversion() -> None:
    """Expanding the canonical bracket element reproduces the word-side sum
    exactly, and a corrupted word sum is rejected as non-primitive."""
    rng = random.Random(303)
    for _ in range(3):
        tau = _random_linear(rng, 2)
        taup = _random_linear(rng, 2)
        for target in ((1, 1), (2, 1), (2, 2), (1, 4)):
            words = utilde_word_sum(target, tau, taup, TWO_GEN, max_parts=5)
            el = utilde_lie_element(
                target, tau, taup, TWO_GEN, max_parts=5, context=words.context
            )
            _ensure(
                expand_to_uea(el) == words,
                f"expansion does not match the word sum for {target}",
            )
    words = utilde_word_sum((1, 1), _simple_type(-1), _simple_type(1), TWO_GEN)
    ctx = words.context
    corrupted = words + UEAElement(ctx, {((0, 1), (1, 0)): F(1, 7)})
    try:
        dynkin_project(corrupted)
    except NotPrimitive:
        pass
    else:
        raise AssertionError("corrupted word sum was accepted as primitive")


def composition_sums() -> None:
    """c_n telescopes to (-1)**n/n! and the partition sum mu_n vanishes for
    every n ≥ 2, checked up to n = 8."""
    for n in range(1, 9):
        _ensure(
            c_n(n) == F((-1) ** n, math.factorial(n)),
            f"c_{n} is not (-1)^{n}/{n}!",
        )
        expected = F(1) if n == 1 else F(0)
        _ensure(mu_n(n) == expected, f"mu_{n} is not {expected}")


def pushforward_tables() -> None:
    """Residue pushforwards agree with the closed tables: multiplicative for
    ranks up to 4 and powers |k| ≤ 6, additive against Segre classes."""
    for r in range(1, 5):
        V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
        for k in range(-6, 7):
            f = L.monomial(1, {"s": k})
            _ensure(
                projective_pushforward_K(f, V) == pushforward_closed_K(k, V),
                f"multiplicative pushforward fails at r={r}, k={k}",
            )
        W = VirtualClass([L.gen(f"w{i}") for i in range(r)], mode="coh")
        for k in range(0, 7):
            got = projective_pushforward_coh(L.gen("h") ** k, W)
            _ensure(
                got == pushforward_closed_coh(k, W),
                f"additive pushforward fails at r={r}, k={k}",
            )


def rigidity_values() -> None:
    """The symmetrized self-pairing residue is (κ^(-1/2) - κ^(1/2))·[r] for
    ranks up to 5, and its additive version is (-1)**r·r·hbar."""
    khalf = L.monomial(1, {"k": F(1, 2)})
    gap = khalf.monomial_inverse() - khalf
    for r in range(1, 6):
        V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
        _ensure(
            rigidity_residue(V) == gap * quantum_integer(r),
            f"residue is not the signed quantum integer at r={r}",
        )
        _ensure(
            projective_pushforward_symmetrized(1, V) == quantum_integer(r),
            f"symmetrized pushforward of 1 is not [{r}]",
        )
        W = VirtualClass([L.gen(f"w{i}") for i in range(r)], mode="coh")
        _ensure(
            rigidity_residue_coh(W) == (-1) ** r * r * L.gen("hbar"),
            f"additive residue is not (-1)^{r}·{r}·hbar",
        )


def kernel_coefficients() -> None:
    """The kernel coefficients from the generating series match the closed
    enumeration for n ≤ 6, every positive one is divisible by hbar, and the
    closed form -(-1)**rank·n!·ch_n of ``cy_limit_theta`` is the hbar → 0
    limit of θ_{n+1}/hbar from the series."""
    for rk in (-2, -1, 1, 2, 3):
        series = theta_coefficients(rk, 6)
        closed = [theta_closed(rk, n) for n in range(7)]
        _ensure(series == closed, f"series route differs at rank {rk}")
        for n in range(1, 7):
            _ensure(
                closed[n].subs("hbar", 0) == L.zero(),
                f"theta_{n} at rank {rk} is not divisible by hbar",
            )
        for n in range(1, 6):
            limit = exact_laurent_div(series[n + 1], L.gen("hbar"), "hbar").subs("hbar", 0)
            _ensure(
                cy_limit_theta(rk, n) == limit,
                f"limit coefficient fails at rank {rk}, n={n}",
            )
    V = VirtualClass([L.gen("w1"), L.gen("w2")], mode="coh")
    _ensure(
        theta_coefficients(V, 4) == [theta_closed(V, n) for n in range(5)],
        "series route differs on a root class",
    )


def merge_exponential() -> None:
    """Corner series: the recursion matches the signed explicit sum for up
    to four labels (15 partitions at four), the matrix exponential
    factorizes over blocks at order 4, and the two transformation routes
    agree term by term for up to three insertions."""
    _ensure(len(partitions_of(4)) == 15, "wrong partition count at N=4")
    for keys in ((), (7,), (1, 2), (1, 1), (1, 2, 3), (2, 2, 4), (1, 2, 3, 4), (1, 1, 2, 2)):
        _ensure(
            y_recursion(keys) == y_explicit(keys),
            f"corner recursion differs from the explicit sum for {keys}",
        )
    order = 4
    for n in range(1, 5):
        table = exp_minus_delta(n, order)
        finest = SetPartition.finest(n)
        for sigma in partitions_of(n):
            direct = table.get((sigma, finest), L.zero())
            _ensure(
                total_truncate(direct, order) == factorized_entry(sigma, order),
                f"factorization fails at n={n} for {sigma}",
            )
    for keys in ((), (5,), (1, 2), (1, 2, 3), (2, 2, 4)):
        _ensure(
            dt_to_pt(keys, "y") == dt_to_pt(keys, "theorem"),
            f"transformation routes differ for {keys}",
        )


def pair_sums() -> None:
    """Framed pair sums match a brute-force expansion with up to three
    summands, invert back to the input table, and the numerical crossing
    composes across two walls."""
    tau = linear_stability([1, 1], [1, 1])
    fr = (1, 3)
    table = _symbol_table(TWO_GEN.effective_upto(3), monoid=TWO_GEN)

    def chi(x, y):
        return sum(
            x[i] * CHI[i][j] * y[j] for i in range(2) for j in range(2)
        )

    for alpha in ((1, 1), (2, 1), (1, 2)):
        brute = L.zero()
        slope = tau.slope_of(alpha)
        for parts in TWO_GEN.decompositions(alpha):
            if any(tau.slope_of(p) != slope for p in parts):
                continue
            term = L.const(F(1, math.factorial(len(parts))))
            partial = (0, 0)
            for cls in parts:
                term = term * quantum_integer(
                    fr[0] * cls[0] + fr[1] * cls[1] + chi(cls, partial)
                ) * table.value(cls)
                partial = class_sum([partial, cls])
            brute = brute + term
        got = pair_invariant_rhs(alpha, fr, tau, table, CHI)
        _ensure(got == brute, f"pair sum differs from brute force at {alpha}")

    rng = random.Random(404)
    mon = EffectiveMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    chi3 = [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]
    flat_tau = StabilityData(lambda cls: SlopeValue.of(1))
    for _ in range(2):
        support = mon.effective_upto(2)
        source = InvariantTable(
            {
                cls: L.const(rng.randint(1, 5))
                * L.monomial(1, {"k": F(rng.randint(-2, 2))})
                + L.const(rng.randint(0, 3))
                for cls in support
            },
            monoid=mon,
        )
        fr3 = tuple(rng.randint(1, 3) for _ in range(3))
        pairs = InvariantTable(
            {
                cls: pair_invariant_rhs(cls, fr3, flat_tau, source, chi3)
                for cls in support
            },
            monoid=mon,
        )
        recovered = invert_semistable(pairs, fr3, flat_tau, chi3)
        for cls in support:
            _ensure(
                recovered.value(cls) == source.value(cls),
                f"inversion does not recover the entry at {cls}",
            )

    rng = random.Random(505)
    support = TWO_GEN.effective_upto(3)
    table = _symbol_table(support, monoid=TWO_GEN)
    for _ in range(2):
        stabs = [_random_linear(rng, 2) for _ in range(3)]
        crossed = InvariantTable(
            {
                beta: vw_wcf(beta, stabs[0], stabs[1], table, CHI)
                for beta in support
            },
            monoid=TWO_GEN,
        )
        for alpha in ((1, 1), (2, 1), (1, 2)):
            composed = vw_wcf(alpha, stabs[1], stabs[2], crossed, CHI)
            direct = vw_wcf(alpha, stabs[0], stabs[2], table, CHI)
            _ensure(composed == direct, f"crossing does not compose at {alpha}")


def unrefined_specialization() -> None:
    """Every quantum-torus output has a finite value at κ = 1 that equals
    the same computation run with the unrefined integers (-1)**(n-1)·n."""
    rng = random.Random(606)
    table = _symbol_table(TWO_GEN.effective_upto(3), monoid=TWO_GEN)
    tau_pair = linear_stability([1, 1], [1, 1])
    fr = (1, 3)
    for _ in range(3):
        tau = _random_linear(rng, 2)
        taup = _random_linear(rng, 2)
        for alpha in ((2, 1), (1, 2)):
            refined = vw_wcf(alpha, tau, taup, table, CHI)
            plain = vw_wcf(alpha, tau, taup, table, CHI, qint=unrefined_integer)
            _ensure(
                specialize_kappa(refined) == plain,
                f"crossing does not specialize at {alpha}",
            )
    for alpha in ((1, 1), (2, 1), (1, 2)):
        refined = pair_invariant_rhs(alpha, fr, tau_pair, table, CHI)
        plain = pair_invariant_rhs(
            alpha, fr, tau_pair, table, CHI, qint=unrefined_integer
        )
        _ensure(
            specialize_kappa(refined) == plain,
            f"pair sum does not specialize at {alpha}",
        )


def bracket_exponential() -> None:
    """Conjugation by the exponential matches exp(ad) on random bracket
    sums to degree 5, and the one-wall simple-type crossing is the
    target-degree piece of exp(-ad of the rank-zero entries)."""
    rng = random.Random(707)
    ctx = LieContext(["a", "b", "c"])
    words = lyndon_words(ctx.letters, 2)
    for _ in range(4):
        terms_x = {
            w: F(rng.randint(-5, 5), rng.randint(1, 4))
            for w in rng.sample(words, 2)
        }
        terms_y = {
            w: F(rng.randint(-5, 5), rng.randint(1, 4))
            for w in rng.sample(words, 2)
        }
        x = LieElement(ctx, terms_x)
        y = LieElement(ctx, terms_y)
        _ensure(exp_ad_check(x, y, 5), "exp(ad) check fails on random input")

    tau_minus = _simple_type(-1)
    tau_plus = _simple_type(1)
    qt = QuantumTorusBackend(CHI)
    support = [cls for cls in TWO_GEN.effective_upto(6) if cls[0] in (0, 1)]
    table = _symbol_table(support, zero_missing=True, monoid=TWO_GEN)
    b_classes = [cls for cls in support if cls[0] == 0]
    for degree in range(0, 5):
        alpha = (1, degree)
        got = wcf_rhs(alpha, tau_minus, tau_plus, table, qt)
        expected = L.zero()

        def rec(remaining, acc, count):
            nonlocal expected
            if not any(remaining):
                expected = expected + F(
                    (-1) ** count, math.factorial(count)
                ) * acc.value
                return
            for b in b_classes:
                rest = tuple(r - c for r, c in zip(remaining, b))
                if rest[0] == 0 and rest[1] >= 0:
                    rec(
                        rest,
                        qt.bracket(qt.lift(b, table.value(b)), acc),
                        count + 1,
                    )

        for a_degree in range(degree + 1):
            a_cls = (1, a_degree)
            rec((0, degree - a_degree), qt.lift(a_cls, table.value(a_cls)), 0)
        got_value = L.zero() if got.cls is None else got.value
        _ensure(
            got_value == expected,
            f"exponential formula fails at degree {degree}",
        )


@dataclass(frozen=True)
class Criterion:
    number: int
    label: str
    run: object


@dataclass(frozen=True)
class CheckResult:
    number: int
    label: str
    passed: bool
    seconds: float
    detail: str | None = None


CRITERIA = (
    Criterion(1, "identity stability collapses U to a delta (n <= 5)", identity_delta),
    Criterion(2, "U composes transitively through a middle stability (n <= 4)", transitivity),
    Criterion(3, "simple-type closed forms for S, U, and the bracket element (n <= 6)", simple_type_closed_forms),
    Criterion(4, "Dynkin projection inverts the word-sum expansion (n <= 5)", dynkin_inversion),
    Criterion(5, "composition and partition sums collapse (n <= 8)", composition_sums),
    Criterion(6, "projective pushforwards match the closed tables (r <= 4, |k| <= 6)", pushforward_tables),
    Criterion(7, "self-pairing residue is the signed quantum integer (r <= 5)", rigidity_values),
    Criterion(8, "kernel coefficients: series, divisibility, limit (n <= 6)", kernel_coefficients),
    Criterion(9, "merge exponential factorizes; corner routes agree (N <= 4)", merge_exponential),
    Criterion(10, "pair sums match brute force, invert, and compose", pair_sums),
    Criterion(11, "refined outputs specialize at kappa = 1 to unrefined", unrefined_specialization),
    Criterion(12, "bracket sums exponentiate (degree <= 5)", bracket_exponential),
)


def run_all(report=None) -> list[CheckResult]:
    """Run every criterion, one line each."""
    results = []
    for crit in CRITERIA:
        start = time.perf_counter()
        detail = None
        try:
            crit.run()
            passed = True
        except Exception as exc:  # report any failure, never swallow it
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(
            CheckResult(crit.number, crit.label, passed, seconds, detail)
        )
        if report is not None:
            status = "PASS" if passed else "FAIL"
            report(f"criterion {crit.number:>2}  {status}  {seconds:7.3f}s  {crit.label}")
            if detail is not None:
                report(f"              {detail}")
    return results
