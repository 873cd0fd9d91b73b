#!/usr/bin/env python3
"""rfho benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload kspace-sweep --seed 1 --seconds 10 --trace 0

Workloads: kspace-sweep, xspace-transform, exact-cold, validate (mix.py
builds their operations).  One operation runs at a time.  A run makes
complete rounds of its workload until the operations' time reaches
``--seconds`` and at least ``mix.MIN_ROUNDS`` rounds are done.  Every
operation is checked against an independent reference after it is
timed.  Times are scaled to a reference host pace (pace.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the same operations run untraced and then traced, and
it reports the per-layer metrics and the tracing overhead.  A JSON record
of each run (and, when traced, a gzip file of its spans) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import mix
import pace
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: setup samples per run: the workload process itself plus fresh interpreters
SETUP_SAMPLES = 5
#: after this much wall time a run stops even inside a round, so it ends in time
WALL_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 60.0


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(seed: int, blas_threads: int) -> dict:
    import mpmath
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "seed": seed,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "reference_pace_s": pace.REFERENCE_S,
    }


def spawn_child(request: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


class Record:
    """One operation: what ran, its scaled time and what its check said."""

    __slots__ = ("op", "seconds", "scale", "error", "rows", "rss_kb")

    def __init__(self, op: dict, seconds: float, scale: float, error: str, rows=None, rss_kb: int = 0):
        self.op, self.seconds, self.scale, self.error = op, seconds, scale, error
        self.rows = rows          # (rows emitted, points requested) of k-space grids
        self.rss_kb = rss_kb      # peak RSS of the operation's own process, exact-cold only


def keep_going(workload: str, rounds_done: int, busy: float, seconds: float, started: float) -> bool:
    if time.perf_counter() - started > WALL_LIMIT_S:
        return False
    return rounds_done < mix.MIN_ROUNDS[workload] or busy < seconds


# ---------------------------------------------------------------------------
# in-process workloads

def _rows(op: dict, outcome) -> tuple[int, int] | None:
    import ops

    if op["kind"] in ("state_k", "eigenvalue") and outcome.status == "ok":
        return len(ops.parse_grid(outcome.stdout)), op["grid"]["count"]
    return None


def _timed(op: dict, kernel: str):
    """Run one operation between two pace kernels: (outcome, scaled seconds, scale).

    Garbage left by the previous operation and its check is collected
    first, so each operation starts from the same heap state.
    """
    import ops

    gc.collect()
    before = pace.pace(kernel)
    start = time.perf_counter()
    outcome = ops.execute(op)
    elapsed = time.perf_counter() - start
    factor = pace.scale(before, pace.pace(kernel))
    return outcome, elapsed * factor, factor


def run_inprocess(workload: str, seed: int, seconds: float, keep: bool):
    """Timed rounds: the records, the ops in order and, if ``keep``, their outcomes."""
    import ops

    records, order, outcomes = [], [], []
    started, busy, rounds_done = time.perf_counter(), 0.0, 0
    gen, kernel = mix.rounds(workload, seed), mix.PACE_KERNEL[workload]
    pace.settled(kernel)
    while keep_going(workload, rounds_done, busy, seconds, started):
        for op in next(gen):
            outcome, scaled, factor = _timed(op, kernel)
            busy += scaled
            records.append(Record(op, scaled, factor, ops.check(op, outcome), _rows(op, outcome)))
            order.append(op)
            if keep:
                outcomes.append(outcome)
            if time.perf_counter() - started > WALL_LIMIT_S:
                break
        rounds_done += 1
    return records, order, outcomes


def replay_traced(order: list[dict], outcomes: list, kernel: str) -> tuple[list[Record], dict, str]:
    """Run the same operations again under the tracer; outputs must not change."""
    import ops

    trace = tracer.Tracer()
    trace.install()
    records, mismatch = [], ""
    try:
        for i, (op, first) in enumerate(zip(order, outcomes)):
            trace.op_id = i
            outcome, scaled, factor = _timed(op, kernel)
            if (outcome.status, outcome.stdout, outcome.result) != (first.status, first.stdout, first.result):
                mismatch = mismatch or f"traced output differs for {ops.argv(op) or op}"
            records.append(Record(op, scaled, factor, "", _rows(op, outcome)))
    finally:
        trace.uninstall()
    return records, trace.export(), mismatch


# ---------------------------------------------------------------------------
# exact-cold: one fresh interpreter per operation

def run_cold(seed: int, seconds: float, traced: bool, order: list[dict] | None = None):
    """Records, per-child setup seconds, the ops in order and the children's traces.

    Without ``order`` it makes timed rounds; with it, it replays those ops.
    """
    records, setups, traces = [], [], []

    def one(op: dict) -> Record:
        try:
            rec = spawn_child({"mode": "op", "op": op, "op_id": len(records), "trace": traced})
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return Record(op, 0.0, 1.0, f"child failed: {exc}")
        setups.append(rec["setup_s"])
        if traced:
            traces.append(rec["trace"])
        return Record(op, rec["op_s"], rec["scale"], rec["error"], rss_kb=rec["rss_kb"])

    if order is not None:
        for op in order:
            records.append(one(op))
        return records, setups, order, traces
    # the run's length counts whole children, start-up included: the
    # operations alone are too short to fill --seconds in reasonable time
    order, gen = [], mix.rounds("exact-cold", seed)
    started, rounds_done = time.perf_counter(), 0
    while keep_going("exact-cold", rounds_done, time.perf_counter() - started, seconds, started):
        for op in next(gen):
            order.append(op)
            records.append(one(op))
        rounds_done += 1
    return records, setups, order, traces


# ---------------------------------------------------------------------------
# metrics

def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics: on
    a few dozen operations whose times jitter with the host it is much
    steadier than the single order statistic at rank pn.
    """
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` operations beyond it.

    With fewer than 21 operations that percentile would sit below the
    median, so the median is used instead.
    """
    return 50 if n < 21 else math.floor(100 * (n - 10) / n)


def end_to_end(records: list[Record], setup_s: float, peak_rss_kb: int) -> tuple[dict, dict]:
    ok = [r.seconds for r in records if not r.error]
    busy = sum(r.seconds for r in records)
    pct = tail_percentile(len(ok))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (quantile(ok, 0.5) * 1e3 if ok else 0.0, "ms"),
        "op_tail_ms": (quantile(ok, pct / 100) * 1e3 if ok else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "ok_frac": (len(ok) / len(records), "frac"),
    }
    return metrics, {"tail_percentile": pct, "tail_samples": len(ok), "busy_s": busy,
                     "completed_op_ms": [round(v * 1e3, 4) for v in ok]}


def per_layer(trace: dict, traced: list[Record], untraced: list[Record]) -> dict:
    metrics = tracer.layer_metrics(trace, [r.scale for r in traced])
    rows = [r.rows for r in traced if r.rows]
    requested = sum(total for _, total in rows)
    metrics["spectral.rows_kept_frac"] = (
        sum(kept for kept, _ in rows) / requested if requested else 1.0, "frac")
    # per-operation ratios: the first operations of the untraced pass still
    # fill library caches, which a ratio of sums would count against tracing
    ratios = [t.seconds / u.seconds for t, u in zip(traced, untraced) if u.seconds > 0]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1, "frac")
    return metrics


def setup_samples(first: float) -> float:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(spawn_child({"mode": "setup", "warmup": True})["setup_s"])
    return statistics.median(samples)


# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=mix.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (child.SRC / "rfho" / "__init__.py").is_file():
        print(f"perfbench: no rfho sources under {child.SRC}", file=sys.stderr)
        return 2
    blas_threads = limit_blas_threads()
    cold = args.workload == "exact-cold"
    if cold:
        child.timed_setup(warmup=False)     # set-up is timed in the children
    else:
        setup_first = child.timed_setup(warmup=True) * pace.REFERENCE_S / pace.settled()
    import ops

    env = environment(args.seed, blas_threads)
    print("env " + json.dumps(env))

    if cold:
        records, setups, order, _ = run_cold(args.seed, args.seconds, traced=False)
        peak_kb = max(r.rss_kb for r in records)
    else:
        records, order, outcomes = run_inprocess(args.workload, args.seed, args.seconds, keep=bool(args.trace))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = [{"op": ops.argv(r.op) or r.op, "error": r.error} for r in records if r.error]
    unexpected = [r for r in records if r.error and not ops.known_defect(r.op)]

    extra: dict = {}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        if cold:
            traced, _, _, parts = run_cold(args.seed, args.seconds, traced=True, order=order)
            trace, mismatch = tracer.merge(parts), ""
            unexpected += [r for r in traced if r.error and not ops.known_defect(r.op)]
        else:
            traced, trace, mismatch = replay_traced(order, outcomes, mix.PACE_KERNEL[args.workload])
        if mismatch:
            failures.append({"op": "trace", "error": mismatch})
        metrics = per_layer(trace, traced, records)
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", trace["spans"])
    else:
        mismatch = ""
        setup_s = statistics.median(setups) if cold else setup_samples(setup_first)
        metrics, extra = end_to_end(records, setup_s, peak_kb)

    result = {
        "correct": not unexpected and not mismatch and any(not r.error for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {"workload": args.workload, "env": env, **extra, "failures": failures[:50], **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    for f in failures[:5]:
        print(f"failed: {f['op']}: {f['error'][:200]}")
    if extra:
        print(f"tail percentile p{extra['tail_percentile']} over {extra['tail_samples']} completed operations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
