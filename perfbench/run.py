#!/usr/bin/env python3
"""End-to-end benchmark for wallx: time to the exact answer, per workload.

Run from the root of a checkout (the directory holding ``src/wallx``):

    python3 perfbench/run.py --workload vw-ladder --seed 1 --seconds 20 --trace 0

One closed-loop client in one process: each op is issued when the previous
one returned.  A run is a series of passes; each pass is a fresh interpreter
that imports wallx, loads the seeded inputs and runs the workload's whole op
list, so the program's process-wide memos start cold in every pass, as in
one ``wallx`` invocation.  Passes are started until ``--seconds`` of passes
have been measured (at least ``MIN_PASSES``), and the metrics are medians
over passes.  Times are rescaled to a reference machine speed (see
``at_reference_speed``); the raw wall times are kept in the run record.

The first pass also recomputes a seeded sample of its outputs by an
independent route, after its timed region; every later pass must render
byte-identical outputs.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything a run writes goes under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from gen import WORKLOADS, generate  # noqa: E402

MIN_PASSES = 3
# Times are reported at a reference machine speed: the one at which the
# worker's speed sample (``worker.speed_sample``) takes this long.
SPEED_REF_S = 0.0015
SETUP_SAMPLES = 9
# A run must end within 180 s; no pass starts after this point.
HARD_STOP_S = 120.0
PASS_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_s.p50": "s",
    "op_s.max": "s",
    "peak_rss_mb": "MB",
}

# Span names of the wrapped layer functions (see tracing.install).
SPANS = [
    "ring.mul",
    "ring.add",
    "ring.residue",
    "ring.div",
    "ring.str",
    "kclasses.qint",
    "kclasses.pushforward",
    "kclasses.rigidity",
    "kclasses.theta",
    "freelie.dynkin",
    "freelie.expand",
    "freelie.evaluate",
    "ucoeff.decompositions",
    "ucoeff.slope",
    "ucoeff.U",
    "ucoeff.word_sum",
    "wallcross.vw_wcf",
    "wallcross.wcf_rhs",
    "wallcross.bracket",
    "descendent.dt_to_pt",
    "descendent.y_recursion",
    "descendent.exp_minus_delta",
    "descendent.delta_apply",
]
COUNTS = [
    "ring.init.calls",
    "ring.terms_out",
    "ucoeff.splittings",
    "ucoeff.U.nonzero",
    "ucoeff.set_partitions.count",
]
RATIOS = ["ucoeff.U.useful_ratio", "descendent.y_cache.hit_ratio", "trace.overhead_ratio"]
SETUP_PARTS = ["setup.import_s", "setup.inputs_s"]


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({name: "s" for name in SETUP_PARTS})
    return units


def median(values) -> float:
    """Median of a nonempty sample (mean of the middle two when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


class PassFailed(RuntimeError):
    pass


def _spawn(
    workload: str, inputs: str, out: str, cpu: int, extra: list, timeout: float
) -> dict:
    """Run one worker, pinned to ``cpu``, to completion and return its record."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--inputs", inputs,
        "--out", out,
        "--cpu", str(cpu),
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out) as fh:
        record = json.load(fh)
    os.remove(out)
    record["setup_s"] = record["ready_at"] - spawned
    record["wall_s"] = time.perf_counter() - spawned
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes and set-up probes of one run, as raw records."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    inputs = os.path.join(OUT, f"inputs-{tag}.json")
    with open(inputs, "w") as fh:
        json.dump(generate(workload, seed), fh)
    scratch = os.path.join(OUT, f"pass-{tag}-{os.getpid()}.json")
    begin = time.perf_counter()

    # Successive workers take the run's CPUs in turn.  On a shared host each
    # CPU is slowed by other tenants on its own schedule, so a run is not
    # left on one CPU through a slow spell.
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))

    def spawn(extra: list) -> dict:
        timeout = PASS_TIMEOUT_S - (time.perf_counter() - begin)
        return _spawn(workload, inputs, scratch, next(cpus), extra, timeout)

    # Compiles bytecode once, so no measured pass pays for it.
    spawn(["--setup-only"])

    plain, traced, setups = [], [], []
    measured = 0.0
    spans = os.path.join(OUT, f"spans-{tag}.tsv.gz")
    while True:
        kind_traced = trace and len(traced) < len(plain)
        pool = traced if kind_traced else plain
        have_minimum = bool(plain) and (bool(traced) or not trace)
        if have_minimum:
            wanted = len(plain) >= (1 if trace else MIN_PASSES)
            estimate = median(r["wall_s"] - r.get("check_s", 0.0) for r in pool)
            if time.perf_counter() - begin > HARD_STOP_S or (
                wanted and measured + estimate > seconds
            ):
                break
        extra = []
        if not plain:
            extra += ["--check", str(seed)]
        if kind_traced:
            extra += ["--trace", "--spans", spans]
        record = spawn(extra)
        measured += record["wall_s"] - record.get("check_s", 0.0)
        pool.append(record)
        setups.append(record)

    while len(setups) < SETUP_SAMPLES and time.perf_counter() - begin < HARD_STOP_S:
        setups.append(spawn(["--setup-only"]))
    return {"plain": plain, "traced": traced, "setups": setups}


def verdict(plain: list, traced: list) -> dict:
    """Correctness of every op execution against the checked first pass."""
    first = plain[0]
    reference = first["digests"]
    bad = {i for i, d in enumerate(reference) if d is None}
    bad |= set(first.get("check_failed", []))
    attempted = failed = 0
    for record in plain + traced:
        for i, digest in enumerate(record["digests"]):
            attempted += 1
            if i in bad or digest != reference[i]:
                failed += 1
    errors = [e for record in plain + traced for e in record["errors"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "checked": len(first.get("checked", [])),
        "errors": errors[:20],
        "digest": hashlib.sha256("\n".join(reference).encode()).hexdigest()
        if not bad
        else None,
    }


def at_reference_speed(seconds: float, speed_s: float) -> float:
    """A time measured while the speed sample took ``speed_s``, rescaled to
    the reference speed.

    On a shared host other tenants slow every CPU by up to half, for spells
    of seconds, and how often they do drifts over minutes.  The speed sample
    is pure-Python work like wallx's, timed around each op, so the ratio
    cancels that drift and keeps what the program itself costs.
    """
    return seconds * SPEED_REF_S / speed_s


def scaled_op_s(record: dict) -> list:
    return [at_reference_speed(t, s) for t, s in zip(record["op_s"], record["op_speed_s"])]


def end_to_end(raw: dict) -> dict:
    plain = raw["plain"]
    ops = [scaled_op_s(r) for r in plain]
    return {
        "setup_s": median(
            at_reference_speed(r["setup_s"], r["setup_speed_s"]) for r in raw["setups"]
        ),
        "run_s": median(sum(o) for o in ops),
        "op_s.p50": median(median(o[i] for o in ops) for i in range(len(ops[0]))),
        "op_s.max": median(max(o) for o in ops),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(raw: dict) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes; False if counts differ
    between traced passes (they must repeat exactly)."""
    traced = raw["traced"]
    first = traced[0]
    steady = all(
        _calls(r) == _calls(first)
        and r["counts"] == first["counts"]
        and r["terms_out"] == first["terms_out"]
        for r in traced
    )
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = first["layers"][span]["calls"]
        out[f"{span}.self_s"] = median(
            at_reference_speed(r["layers"][span]["self_s"], median(r["op_speed_s"]))
            for r in traced
        )
    counts = first["counts"]
    out["ring.init.calls"] = counts.get("ring.init", 0)
    out["ring.terms_out"] = first["terms_out"]
    out["ucoeff.splittings"] = counts.get("ucoeff.splittings", 0)
    out["ucoeff.U.nonzero"] = counts.get("ucoeff.U.nonzero", 0)
    out["ucoeff.set_partitions.count"] = counts.get("ucoeff.set_partitions.count", 0)
    calls = out["ucoeff.U.calls"]
    out["ucoeff.U.useful_ratio"] = out["ucoeff.U.nonzero"] / calls if calls else 0.0
    out["descendent.y_cache.hit_ratio"] = first["y_cache_hit_ratio"]
    out["trace.overhead_ratio"] = median(sum(scaled_op_s(r)) for r in traced) / median(
        sum(scaled_op_s(r)) for r in raw["plain"]
    )
    for part in ("import_s", "inputs_s"):
        out[f"setup.{part}"] = median(
            at_reference_speed(r[part], r["setup_speed_s"]) for r in raw["setups"]
        )
    return out, steady


def _calls(record: dict) -> dict:
    return {name: entry["calls"] for name, entry in record["layers"].items()}


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wallx", "__init__.py")):
        print(f"error: no wallx sources under {ROOT}/src", file=sys.stderr)
        return 2
    meta = metadata()
    try:
        raw = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check = verdict(raw["plain"], raw["traced"])
    correct = check["failed"] == 0 and check["checked"] > 0
    if args.trace:
        values, steady = per_layer(raw)
        units = per_layer_units()
        correct = correct and steady
    else:
        values = end_to_end(raw)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **meta,
        "passes": len(raw["plain"]),
        "traced_passes": len(raw["traced"]),
        "setup_samples": len(raw["setups"]),
        "ops_per_pass": len(raw["plain"][0]["op_s"]),
        "ops_checked": check["checked"],
        "check_s": raw["plain"][0]["check_s"],
        "failed_frac": check["failed"] / check["attempted"],
        "output_digest": check["digest"],
        "errors": check["errors"],
        "wall_run_s": [r["run_s"] for r in raw["plain"]],
        "wall_traced_run_s": [r["run_s"] for r in raw["traced"]],
        "speed_s": median(s for r in raw["plain"] for s in r["op_speed_s"]),
    }
    passes = {
        "labels": raw["plain"][0]["labels"],
        "op_s": [r["op_s"] for r in raw["plain"]],
        "op_speed_s": [r["op_speed_s"] for r in raw["plain"]],
        "setup_s": [r["setup_s"] for r in raw["setups"]],
        "setup_speed_s": [r["setup_speed_s"] for r in raw["setups"]],
    }
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**summary, "metrics": metrics, "raw_passes": passes}, fh)
    for key, value in summary.items():
        print(f"# {key}: {value}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": check["attempted"],
                "failed": check["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
