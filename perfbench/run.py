"""nnpoly benchmark: one command, three closed-loop workloads, one client.

    python3 perfbench/run.py --workload census|sample|search --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Each pass of a workload runs in a fresh
single process (perfbench/worker.py) with no worker pool, so peak RSS and
set-up time are per workload and no in-process cache outlives a pass.
Passes repeat, each on fresh seeded inputs, until --seconds have elapsed;
every workload runs at least one pass.  Before measuring, the oracle
self-test runs on a tiny instance of the workload and must catch every
tampered output.

--trace 0 prints the end-to-end metrics, measured with tracing off.  Their
times are in reference seconds: wall time corrected for the drifting speed
of a shared machine by a probe that runs alongside (see speed.py).
--trace 1 runs the untraced passes, then pass 0 again traced on the same
inputs, and prints the per-layer metrics of the traced pass, plus
trace_overhead_s.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
See perfbench/DESIGN.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census", "sample", "search")
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def pinned_env():
    """The package from this checkout's src/, one thread, no NNPOLY_* settings.

    NNPOLY_THREADS is stripped rather than overridden with --threads, so the
    argv stays valid if the process pool and its flag are removed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("NNPOLY_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(env, deadline, *args):
    """Run worker.py to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker {' '.join(args)} printed no JSON result") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {result}")
    return result


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(workload, passes, setups):
    """Medians over passes; op latencies pooled over all passes.  Times are in
    reference seconds (see speed.py)."""
    walls = [p["wall_s"] for p in passes]
    # Latencies are of the unit of user work: a membership trial, a search-a
    # call, and for census the whole session, whose 54 steps differ too much
    # in kind for their percentiles to mean anything.
    if workload == "census":
        op_s = sorted(walls)
    else:
        op_s = sorted(t for p in passes for t in p["op_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def phase(name, default):
        values = [p["phases"].get(name) for p in passes]
        return statistics.median(values) if None not in values else default

    wall = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "ref_s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "ops_per_s": (len(op_s) / sum(walls), "1/ref_s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ref_ms"),
        "op_p99_ms": (percentile(op_s, 0.99) * 1e3, "ref_ms"),
        # census phases; a workload without them reports its whole pass
        "audit_s": (phase("audit_s", wall), "ref_s"),
        "certify8_s": (phase("certify8_s", wall), "ref_s"),
        # search only; 1.0 elsewhere, a constant that can never register a change
        "bracket_gap": (statistics.median(p["bracket_gap"] or 1.0 for p in passes), "1"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nnpoly", "__init__.py")):
        print(f"error: no nnpoly source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    env = pinned_env()
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    wl, seed = args.workload, str(args.seed)
    try:
        worker(env, deadline, "--workload", wl, "--self-test")
        passes = []
        measure_from = time.monotonic()
        while not passes or time.monotonic() - measure_from < args.seconds:
            passes.append(worker(env, deadline, "--workload", wl, "--seed", seed,
                                 "--pass-index", str(len(passes))))
        traced = None
        if args.trace:
            spans = os.path.join(HERE, "out", f"{wl}-seed{seed}.spans.json")
            traced = worker(env, deadline, "--workload", wl, "--seed", seed,
                            "--trace", "--spans-out", spans)
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(worker(env, deadline, "--workload", wl, "--seed", seed,
                                 "--setup-only")["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    for p in runs:
        for f in p["failures"]:
            print(f"failed op: {f}", file=sys.stderr)
    if traced:
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        untraced = passes[0]
        metrics["untraced_wall_s"] = (untraced["raw_wall_s"], "s")
        metrics["probe_median_s"] = (untraced["probe_median_s"], "s")
        metrics["trace_overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "ref_s")
        for name in traced["absent"]:
            print(f"absent: {name} is no longer a function of the package", file=sys.stderr)
    else:
        metrics = end_to_end(wl, passes, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
