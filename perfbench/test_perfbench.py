"""Tests for the benchmark's own code: inputs, span arithmetic, statistics.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- input generator ---------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, 17):
        first = gen.generate(workload, seed)
        assert gen.generate(workload, seed) == first
        assert json.loads(json.dumps(first)) == first


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_varies_with_seed(workload):
    drawn = {json.dumps(gen.generate(workload, seed), sort_keys=True) for seed in range(6)}
    assert len(drawn) > 1


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        gen.generate("no-such-workload", 1)


@pytest.mark.parametrize("workload", ["vw-ladder", "free-lie"])
def test_stability_denominators_are_positive(workload):
    for seed in range(20):
        inputs = gen.generate(workload, seed)
        for side in ("tau", "tau_prime"):
            assert all(b > 0 for b in inputs[side]["b"])


def _det(data):
    (a1, a2), (b1, b2) = data["a"], data["b"]
    return a1 * b2 - a2 * b1


def test_vw_ladder_always_crosses_a_wall():
    for seed in range(20):
        inputs = gen.generate("vw-ladder", seed)
        assert _det(inputs["tau"]) * _det(inputs["tau_prime"]) < 0
        assert len(inputs["targets"]) == (gen.LADDER_SIDE + 1) ** 2 - 1


def _slopes(data, classes):
    from fractions import Fraction

    return [
        Fraction(sum(x * c for x, c in zip(data["a"], cls)), sum(x * c for x, c in zip(data["b"], cls)))
        for cls in classes
    ]


def test_free_lie_rescaling_keeps_every_slope_order():
    classes = gen.generate("free-lie", 0)["targets"]

    def order(data):
        s = _slopes(data, classes)
        return [[(x > y) - (x < y) for y in s] for x in s]

    (a, b), (a2, b2) = gen.FREE_LIE_TEMPLATE
    want = (order({"a": a, "b": b}), order({"a": a2, "b": b2}))
    for seed in range(20):
        inputs = gen.generate("free-lie", seed)
        assert (order(inputs["tau"]), order(inputs["tau_prime"])) == want


def test_descendent_keys_follow_their_pattern_with_distinct_sums():
    for seed in range(20):
        keysets = gen.generate("descendent", seed)["keysets"]
        assert [len(k) for k in keysets] == [3, 4, 5, 4, 5, 5, 6]
        sweeps = [keysets[2], keysets[4], keysets[6]]
        for keys, (pattern, _) in zip(sweeps, gen.KEY_SWEEPS):
            assert [keys.index(k) for k in keys] == [pattern.index(ch) for ch in pattern]
            assert gen._sums_distinct(keys)
        assert len(set().union(*map(set, sweeps))) == sum(len(set(k)) for k in sweeps)


def test_sums_distinct():
    assert gen._sums_distinct([1, 2, 4, 8])
    assert not gen._sums_distinct([1, 2, 3])
    assert gen._sums_distinct([5, 5, 11])


def test_kernels_op_multiset_is_fixed():
    def shape(seed):
        return sorted(
            (op["kind"], op["rank"], op.get("k", -99), op.get("order", -1))
            for op in gen.generate("kernels", seed)["ops"]
        )

    assert shape(0) == shape(1) == shape(2)


# -- spans and self time -----------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_roots_are_durations():
    assert tracing.self_times([-1, -1], [0.0, 2.0], [1.5, 2.25]) == [1.5, 0.25]


def test_tracer_aggregates_nested_spans():
    tr = tracing.Tracer()

    def leaf(x):
        return x + 1

    leaf_w = tr.spanned("leaf", leaf)

    def outer(n):
        return sum(leaf_w(i) for i in range(n))

    outer_w = tr.spanned("outer", outer, on_result=lambda r: tr.count("outer.sum", r))
    assert outer_w(3) == 6
    assert outer_w(2) == 3
    agg = tr.aggregate()
    assert agg["leaf"][0] == 5 and agg["outer"][0] == 2
    assert tr.counts["outer.sum"] == 9
    assert list(tr.span_parent) == [-1, 0, 0, 0, -1, 4, 4]
    total = sum(e - s for e, s, p in zip(tr.span_end, tr.span_start, tr.span_parent) if p < 0)
    assert agg["leaf"][1] + agg["outer"][1] == pytest.approx(total)
    assert agg["leaf"][1] >= 0 and agg["outer"][1] >= 0


def test_tracer_span_survives_an_exception():
    tr = tracing.Tracer()
    boom = tr.spanned("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tr.aggregate()["boom"][0] == 1
    assert tr.span_end[0] >= tr.span_start[0]
    assert tr._stack == []


def test_counted_yields_counts_outermost_items_only():
    tr = tracing.Tracer()
    box = {}

    def parts(items):
        items = list(items)
        if not items:
            yield []
            return
        for rest in box["fn"](items[1:]):
            yield [items[0]] + rest
            yield rest

    box["fn"] = tr.counted_yields("subsets", parts)
    assert len(list(box["fn"]([1, 2, 3]))) == 8
    assert tr.counts["subsets"] == 8
    # A consumer that starts a new call between items is counted again.
    for _ in box["fn"]([1]):
        list(box["fn"]([1, 2]))
    assert tr.counts["subsets"] == 8 + 2 + 2 * 4


def test_install_wraps_every_binding_a_caller_looks_up():
    script = textwrap.dedent(
        """
        import sys
        sys.path[:0] = ["src", "perfbench"]
        import tracing
        from wallx import cli, descendent, freelie, ring, ucoeff, wallcross
        originals = (ucoeff.U_coeff, freelie.dynkin_project, ring.exact_laurent_div,
                     ring.LaurentElement.__add__)
        tr = tracing.Tracer()
        tracing.install(tr)
        assert wallcross.U_coeff is ucoeff.U_coeff is cli.U_coeff
        assert ucoeff.U_coeff is not originals[0]
        assert ucoeff.dynkin_project is freelie.dynkin_project is not originals[1]
        assert descendent.exact_laurent_div is ring.exact_laurent_div is not originals[2]
        L = ring.LaurentElement
        assert L.__radd__ is L.__add__ is not originals[3]
        x = L.gen("a") + 1
        print(str(x * x))
        calls = {name: n for name, (n, _) in tr.aggregate().items() if n}
        print(sorted(calls.items()), tr.counts["ring.init"] > 0)
        print(" ".join(sorted(tr.names)))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "1 + 2*a + a^2",
        "[('ring.add', 1), ('ring.mul', 1), ('ring.str', 1)] True",
        " ".join(sorted(run.SPANS)),
    ]


# -- statistics ----------------------------------------------------------------


def test_median_odd_and_even():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        run.median([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert run.quartile_spread(values) == pytest.approx((q3 - q1) / q2)
    assert run.quartile_spread([5.0] * 4) == 0.0


def _record(op_s, speed=None, **extra):
    return {
        "op_s": op_s,
        "op_speed_s": [speed or run.SPEED_REF_S] * len(op_s),
        "run_s": sum(op_s),
        "peak_rss_mb": 20.0,
        "digests": ["d%d" % i for i in range(len(op_s))],
        **extra,
    }


def test_at_reference_speed_cancels_a_uniform_slowdown():
    ref = run.SPEED_REF_S
    assert run.at_reference_speed(3.0, ref) == pytest.approx(3.0)
    assert run.at_reference_speed(3.0, 1.5 * ref) == pytest.approx(2.0)


def test_end_to_end_takes_medians_over_passes():
    ref = run.SPEED_REF_S
    raw = {
        "plain": [
            _record([1.0, 2.0, 9.0]),
            _record([1.5, 3.0, 7.0]),
            # A pass run at half speed counts as its rescaled times 1, 0.5, 4.
            _record([2.0, 1.0, 8.0], speed=2 * ref),
        ],
        "setups": [
            {"setup_s": s, "setup_speed_s": ref} for s in (0.3, 0.1, 0.2, 0.5)
        ],
    }
    got = run.end_to_end(raw)
    assert got["run_s"] == pytest.approx(11.5)  # median of 12, 11.5, 5.5
    assert got["op_s.p50"] == pytest.approx(2.0)  # ops' medians: 1, 2, 7
    assert got["op_s.max"] == pytest.approx(7.0)  # median of 9, 7, 4
    assert got["setup_s"] == pytest.approx(0.25)
    assert set(got) == set(run.END_TO_END)


def test_verdict_counts_every_mismatch_against_the_checked_pass():
    first = _record([1.0, 1.0, 1.0], errors=[], checked=[0, 1, 2], check_failed=[])
    same = _record([1.0, 1.0, 1.0], errors=[])
    wrong = _record([1.0, 1.0, 1.0], errors=[])
    wrong["digests"][1] = "other"
    got = run.verdict([first, same, wrong], [])
    assert (got["attempted"], got["failed"], got["checked"]) == (9, 1, 3)
    first["check_failed"] = [2]
    got = run.verdict([first, same], [])
    assert got["failed"] == 2 and got["digest"] is None


# -- the contract file -------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
