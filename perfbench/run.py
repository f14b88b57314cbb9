"""Benchmark of the proxmse library: four workloads, one process each.

    python3 perfbench/run.py --workload mc_sparse --seed 1 --seconds 13 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 13 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else. With ``--trace 0`` the run measures the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it measures the
per-layer metrics instead (see layers.py). Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. ``--workload all`` runs each workload in its
own process, so that peak memory belongs to one workload, and prints a
table of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("mc_sparse", "mc_lowrank_block", "lasso_transition", "denoise_batch")

# One BLAS thread: at most nproc, and free of the scheduling noise that two
# threads on a shared two-core machine add. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import stats  # noqa: E402  (pure Python; no numpy yet)
from spans import NULL, Tracer  # noqa: E402

# setup_s is the least of this many cold set-ups, each in a fresh
# interpreter, spread evenly over the timed rounds. The import alone, about
# 0.8 s, varies by 30% from one interpreter to the next, and that noise only
# ever adds time.
SETUP_REPEATS = 8


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_library() -> None:
    """Import proxmse from this checkout's src, or stop with exit code 2."""
    if not (SRC / "proxmse" / "__init__.py").is_file():
        fail(f"no library source under {SRC.relative_to(ROOT)}/proxmse")
    sys.path.insert(0, str(SRC))
    import proxmse

    if SRC not in Path(proxmse.__file__).resolve().parents:
        fail(f"proxmse was imported from {proxmse.__file__}, not from this checkout")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        revision = got.stdout.strip() or revision
    return {
        "git_revision": revision,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def setup_seconds(name: str, seed: int) -> float:
    """One cold set-up of a workload, in a fresh interpreter."""
    got = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                          "--seconds", "1", "--setup-only"],
                         capture_output=True, text=True, timeout=120)
    if got.returncode != 0:
        sys.stderr.write(got.stderr)
        fail(f"set-up of {name} exited with {got.returncode}")
    return float(got.stdout.strip().splitlines()[-1])


def run_setup_only(args) -> int:
    """Import the library, build the instances, warm up; print the seconds."""
    t0 = time.perf_counter()
    import_library()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]()
    try:
        w.setup(args.seed)
        w.warmup()
        print(time.perf_counter() - t0)
    finally:
        w.close()
    return 0


def settle(w, records: list, distinct: list) -> tuple[int, int]:
    """Apply the pooled checks to the distinct rounds; return (attempted, failed).

    ``distinct`` holds each round once, so repeated rounds do not shrink the
    pooled standard errors; a failed check fails its kind in every record.
    """
    for kind, why in w.pooled_failures(distinct).items():
        print(f"check failed: {kind}: {why}", file=sys.stderr)
        for rec in records:
            if rec.kind == kind:
                rec.failed = rec.attempted
    return sum(r.attempted for r in records), sum(r.failed for r in records)


def by_kind(records: list) -> dict[str, tuple[float, list[float]]]:
    """Work per operation and operation times, by kind.

    A failed check leaves the timing valid; only operations that raised,
    whose time is NaN, are left out.
    """
    kinds: dict[str, tuple[list, list]] = {}
    for rec in records:
        if rec.seconds == rec.seconds:
            work, seconds = kinds.setdefault(rec.kind, ([], []))
            work.append(rec.work)
            seconds.append(rec.seconds)
    return {k: (statistics.fmean(w), s) for k, (w, s) in kinds.items()}


def run_untraced(w, seed: int, seconds: float) -> tuple[dict, int, int]:
    w.setup(seed)
    w.warmup()
    setups, records, r, busy = [], [], 0, 0.0
    while r < 2 or busy < seconds:
        while len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_seconds(w.name, seed))
        t0 = time.perf_counter()
        records += w.run_round(r, NULL)
        busy += time.perf_counter() - t0
        r += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(w.name, seed))
    setup_s = min(setups)
    timed = list(records)
    records += w.untimed_ops()
    attempted, failed = settle(w, records, timed)

    kinds = by_kind(timed)
    if not kinds:
        return {}, attempted, failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{w.name}: {r} rounds in {busy:.2f} s; cold set-ups "
          f"{', '.join(f'{t:.3f}' for t in setups)} s")
    for kind, (work, secs) in sorted(kinds.items()):
        summary = stats.summarize(secs)
        tail = (f"p{summary['tail_q']:g} {summary['tail'] * 1e3:.2f} ms" if summary["tail"]
                else "no percentile with 10 samples beyond")
        print(f"  {kind:22s} median {summary['median'] * 1e3:9.2f} ms, {tail}, "
              f"n={summary['n']}, {work:g} {w.unit}/op")
    named = {}
    if w.unit == "samples":
        for est in ("cone", "optlam", "curve"):
            part = {k: v for k, v in kinds.items() if k.endswith("/" + est)}
            if part:
                named[f"{est}_samples_per_s"] = (stats.throughput(part), "1/s")
    else:
        named["trials_per_s"] = (stats.throughput(kinds), "1/s")
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["failed_frac"] = (stats.failed_frac(attempted, failed), "1")
    named["setup_s"] = (setup_s, "s")
    for name, (value, unit) in named.items():
        print(f"  {name:22s} {value:.6g} {unit}")
    return {
        "setup_s": setup_s,
        "throughput_per_s": stats.throughput(kinds),
        "peak_rss_mb": peak_rss_mb,
    }, attempted, failed


def run_traced(w, seed: int) -> tuple[dict, int, int, list]:
    import layers

    w.setup(seed)
    w.warmup()
    plain, traced, tracers, records = [], [], [], []
    for _ in range(2):
        t0 = time.perf_counter()
        for r in w.trace_rounds:
            records += w.run_round(r, NULL)
        plain.append(time.perf_counter() - t0)
        distinct = distinct if tracers else list(records)
        tracer = Tracer()
        t0 = time.perf_counter()
        with layers.counting_streams(tracer):
            for r in w.trace_rounds:
                records += w.run_round(r, tracer)
        traced.append(time.perf_counter() - t0)
        tracers.append(tracer)
    attempted, failed = settle(w, records, distinct)
    counts = [{c: t.counts.get(c, 0) for c in layers.COUNTS} for t in tracers]
    if counts[0] != counts[1]:
        print(f"check failed: counts differ between traced passes: {counts}", file=sys.stderr)
        failed = max(failed, 1)
    probe = Tracer()
    metrics = layers.probe(w, probe)
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = stats.traced_overhead(plain, traced)
    print(f"{w.name}: traced passes {[f'{t:.3f}' for t in traced]} s, "
          f"untraced {[f'{t:.3f}' for t in plain]} s, counts {counts[0]}")
    return metrics, attempted, failed, tracers + [probe]


def run_one(args, spec: dict) -> int:
    import_library()
    from workloads import WORKLOADS

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]()
    try:
        if args.trace:
            values, attempted, failed, tracers = run_traced(w, args.seed)
            listed = spec["per_layer"]
            with open(OUT / f"spans-{w.name}-{args.seed}.json", "w") as fh:
                json.dump([{"spans": t.spans, "counts": dict(t.counts)} for t in tracers], fh)
        else:
            values, attempted, failed = run_untraced(w, args.seed, args.seconds)
            listed = spec["end_to_end"]
    finally:
        w.close()
    if not values:
        fail("every operation raised")
    if set(values) != {m["name"] for m in listed}:
        fail(f"measured {sorted(values)}, BENCHMARK.json lists {[m['name'] for m in listed]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    with open(OUT / f"result-{w.name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process; a table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        got = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = got.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if got.returncode != 0 or not lines:
            sys.stderr.write(got.stderr)
            fail(f"workload {name} exited with {got.returncode}")
        results[name] = json.loads(lines[-1])
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{n:>17s}" for n in WORKLOAD_NAMES))
    for m in listed:
        row = " ".join(f"{results[n]['metrics'][m['name']]['value']:17.6g}"
                       for n in WORKLOAD_NAMES)
        print(f"{m['name']:28s} {m['unit']:6s} {row}")
    print(f"{'failed/attempted':35s}" + " ".join(
        f"{str(results[n]['failed']) + '/' + str(results[n]['attempted']):>17s}"
        for n in WORKLOAD_NAMES))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if args.setup_only:
        if args.workload == "all":
            fail("--setup-only takes one workload")
        return run_setup_only(args)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
