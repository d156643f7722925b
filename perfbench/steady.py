#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, and report
each end-to-end metric's median and quartile spread (as a share of the
median) over the runs.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed N]
        [--seconds S] [--out FILE]

Run from the root of a checkout.  Every run's result line is kept in
``--out`` (JSON), so two sets of runs can be compared afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gen import WORKLOADS  # noqa: E402
from run import END_TO_END, median, quartile_spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    with open(os.path.join(HERE, "out", f"record-{workload}-seed{seed}-trace0.json")) as fh:
        record = json.load(fh)
    for key in ("output_digest", "passes", "loadavg_at_start"):
        result[key] = record[key]
    return result


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    results = {}
    summary = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = one_run(workload, seed, args.seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        results[workload] = runs
        summary[workload] = {}
        for name in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            summary[workload][name] = {
                "median": median(values), "spread": spread, "bound": bounds[name]
            }
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(
                f"  {workload:11s} {name:12s} median={median(values):.5g} "
                f"spread={spread:.4f} bound={bounds[name]}{flag}",
                flush=True,
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"summary": summary, "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
