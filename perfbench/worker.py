"""One pass of one workload in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand.  The pass imports wallx
from the checkout's ``src``, loads the generated inputs (set-up), runs the
whole op list in order, each op issued when the previous one returned, and
writes what it measured as JSON to ``--out``.  With ``--trace`` it wraps the
layers in spans first; with ``--check`` it recomputes a seeded sample of
outputs by an independent route after the timed region.

    python3 perfbench/worker.py --workload NAME --inputs FILE --out FILE \
        [--cpu N] [--setup-only] [--trace] [--check SEED] [--spans FILE]
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
# Between two ops the machine's speed is sampled at least this often.
SPEED_EVERY_S = 0.05


def speed_sample() -> float:
    """Seconds for one fixed piece of pure-Python work, about 2 ms.

    It does what wallx does most, exact ``Fraction`` sums into a dict keyed
    by tuples, so other tenants on the host slow it as they slow wallx.
    """
    start = time.perf_counter()
    acc = {}
    for i in range(1, 400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, i % 7 + 1)
    return time.perf_counter() - start


def _import_wallx() -> None:
    sys.path.insert(0, SRC)
    import wallx.descendent  # noqa: F401
    import wallx.freelie  # noqa: F401
    import wallx.kclasses  # noqa: F401
    import wallx.ring  # noqa: F401
    import wallx.ucoeff  # noqa: F401
    import wallx.wallcross  # noqa: F401

    where = os.path.dirname(os.path.abspath(wallx.ring.__file__))
    if where != os.path.join(SRC, "wallx"):
        raise ImportError(f"wallx was imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, default=None)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", type=int, default=None, metavar="SEED")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    t0 = time.perf_counter()
    _import_wallx()
    t1 = time.perf_counter()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, terms_of

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    workload = WORKLOADS[args.workload](inputs)
    t2 = time.perf_counter()
    record = {
        "ready_at": t2,
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
    }
    record["setup_speed_s"] = speed_sample()
    if args.setup_only:
        _write(args.out, record)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = workload.ops()
    results, times, digests, errors = [], [], [], []
    # speeds[k] is sampled before op after_op[k]; every op lies between two.
    speeds, after_op = [speed_sample()], [0]
    sampled = time.perf_counter()
    for label, op in ops:
        begin = time.perf_counter()
        try:
            result = op()
            text = workload.render(result)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, text = None, None
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        times.append(end - begin)
        results.append(result)
        digests.append(None if text is None else hashlib.sha256(text.encode()).hexdigest())
        if end - sampled >= SPEED_EVERY_S or len(times) == len(ops):
            speeds.append(speed_sample())
            after_op.append(len(times))
            sampled = time.perf_counter()
    record["run_s"] = sum(times)
    record["op_speed_s"] = [
        (speeds[k] + speeds[k + 1]) / 2
        for k in range(len(after_op) - 1)
        for _ in range(after_op[k], after_op[k + 1])
    ]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["labels"] = [label for label, _ in ops]
    record["op_s"] = times
    record["digests"] = digests
    record["errors"] = errors
    record["terms_out"] = sum(terms_of(r) for r in results if r is not None)

    if tracer is not None:
        from wallx import descendent

        record["layers"] = {
            name: {"calls": calls, "self_s": own}
            for name, (calls, own) in tracer.aggregate().items()
        }
        record["counts"] = dict(tracer.counts)
        info = descendent._y_recursive.cache_info()
        lookups = info.hits + info.misses
        record["y_cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        if args.spans:
            tracer.write(args.spans)

    if args.check is not None:
        check_start = time.perf_counter()
        rng = random.Random(args.check)
        checked, failed = [], []
        for i in workload.check_sample(rng):
            if results[i] is None:
                continue
            checked.append(i)
            try:
                ok = workload.check(i, results[i], rng)
            except Exception as exc:
                ok = False
                errors.append(f"check {record['labels'][i]}: {type(exc).__name__}: {exc}")
            if not ok:
                failed.append(i)
        record["checked"] = checked
        record["check_failed"] = failed
        record["check_s"] = time.perf_counter() - check_start

    _write(args.out, record)
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
