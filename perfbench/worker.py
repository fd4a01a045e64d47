"""One pass of one benchmark workload, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload census --seed 1 --pass-index 0 [--trace]
    python3 perfbench/worker.py --workload census --seed 1 --setup-only
    python3 perfbench/worker.py --workload census --self-test

The last line of stdout is one JSON object describing the pass.  Every op is
checked by an oracle that reads only the fields carrying the mathematics; a
wrong answer or an exception counts as a failed op and never ends the pass.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here until the inputs are built

import argparse
import contextlib
import copy
import io
import json
import os
import random
import resource
import statistics
import sys
from fractions import Fraction

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census", "sample", "search")
SCALE_SWEEP = [Fraction(2) ** e for e in range(-4, 5)]
SAMPLE_N, SAMPLE_A_SQ, SAMPLE_TRIALS = 4, Fraction(1, 3), 1000
DECOMP_N, DECOMP_MATRICES = 5, 20
SEARCH_N = 3


def random_rational_matrix(n, rng, scale):
    """The generator of nnpoly.bracket.random_rational_matrix, pinned here so
    that the benchmark's inputs do not change when the package does."""
    return [[Fraction(rng.randint(0, 16), 16) * scale for _ in range(n)] for _ in range(n)]


def seeded_matrices(n, count, stream):
    rng = random.Random(stream)
    return [random_rational_matrix(n, rng, SCALE_SWEEP[t % len(SCALE_SWEEP)])
            for t in range(count)]


def pass_stream(seed, pass_index, name):
    """Pass 0 uses the stream nnpoly.bracket.sample_pa_membership(seed=seed)
    uses; later passes of the same run get fresh, distinct streams."""
    return f"{seed}:{name}" if pass_index == 0 else f"{seed}.{pass_index}:{name}"


# -- oracle ------------------------------------------------------------------
# Each check returns None when the output is right, else what is wrong.


def _per_k(rows):
    return [(r["k"], r["count"], r["phi_injective"], r["nu"]) for r in rows]


def check_bound(out, n, ref):
    rc, rep = out
    nus = [r.get("nu") for r in rep["rows"] if r["k"] < n]
    if rc != 0 or rep["n"] != n:
        return f"exit {rc}, n {rep['n']}"
    if nus != [r["nu"] for r in ref["per_k"]]:
        return f"nu row {nus}"
    if Fraction(rep["safe_a_sq"]) != Fraction(ref["safe_a_sq"]):
        return f"safe_a_sq {rep['safe_a_sq']}"
    return None


def check_nu(out, n, k, ref):
    rc, rep = out
    row = ref["per_k"][k - 1]
    if rc != 0 or (rep["n"], rep["k"], rep["nu"], rep["mu"]) != (n, k, row["nu"], row["mu"]):
        return f"exit {rc}, nu {rep['nu']}, mu {rep['mu']}"
    return None


def check_certify(out, n, ref):
    rc, rep = out
    if rc != 0 or rep["verdict"] is not True:
        return f"exit {rc}, verdict {rep['verdict']}"
    if sum(r["count"] for r in rep["per_k"]) != n ** (n - 1):
        return "class counts do not sum to n^(n-1)"
    if _per_k(rep["per_k"]) != _per_k(ref["per_k"]):
        return f"per-k table {_per_k(rep['per_k'])}"
    return None


def check_true(out):
    return None if out is True else f"returned {out!r}"


def poly_entry(coeffs, A, r, c):
    """Exact entry (r, c), 0-based, of p(A) by Horner; independent of nnpoly."""
    m = len(A)
    acc = [[coeffs[-1] if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    for cf in reversed(coeffs[:-1]):
        acc = [[sum(acc[i][l] * A[l][j] for l in range(m)) + (cf if i == j else 0)
                for j in range(m)] for i in range(m)]
    return acc[r][c]


def check_search(out, n, ref):
    rc, rep = out
    a_lo, a_lo_sq, a_hi = (Fraction(rep[k]) for k in ("a_lo", "a_lo_sq", "a_hi"))
    if rc != 0 or rep["n"] != n:
        return f"exit {rc}"
    if a_lo_sq != Fraction(ref["certified_cap"]):
        return f"a_lo_sq {a_lo_sq} is not the certified cap"
    if not (a_lo * a_lo <= a_lo_sq and a_lo <= a_hi and Fraction(rep["gap"]) == a_hi - a_lo):
        return f"bracket a_lo={a_lo} a_hi={a_hi} gap={rep['gap']}"
    w = rep["witness"]
    coeffs = [Fraction(x) for x in w["poly"]]
    expect = [Fraction(1)] * (2 * n + 1)
    expect[n] = -a_hi
    A = [[Fraction(x) for x in row] for row in w["matrix"]]
    r, c = w["entry"]
    if coeffs != expect or w["m"] != n or len(A) != n:
        return "witness is not for p_a at a_hi, order n"
    if any(x < 0 for row in A for x in row):
        return "witness matrix has a negative entry"
    value = Fraction(w["value"])
    if not value < 0 or poly_entry(coeffs, A, r - 1, c - 1) != value:
        return f"witness value {value} does not re-verify"
    return None


# -- one pass ----------------------------------------------------------------


class Pass:
    def __init__(self, keep=False):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op_iv = []  # (start, end) of each op
        self.phase_iv = {}  # name -> (start, end)
        self.bracket_gap = None
        self.records = [] if keep else None  # (label, output, check) for the self-test

    def op(self, label, call, check, parse=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except (Exception, SystemExit) as exc:  # a crash is a failed op
            self.op_iv.append((t0, time.perf_counter()))
            return self._fail(label, f"raised {exc!r}")
        self.op_iv.append((t0, time.perf_counter()))
        try:
            out = parse(out) if parse else out
            if self.records is not None:
                self.records.append((label, out, check))
            problem = check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            return self._fail(label, problem)
        return out

    def _fail(self, label, problem):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {problem}")
        return None


def run_cli(argv):
    from nnpoly import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return call


def parse_cli(out):
    return out[0], json.loads(out[1])


def setup(workload, seed, pass_index, tiny):
    """Import the package and build the pass's inputs; returns the inputs."""
    import numpy  # noqa: F401  (a declared dependency; set-up always pays its import)

    import nnpoly.cli  # noqa: F401  (the CLI module is the user's entry point)

    with open(os.path.join(HERE, "reference.json")) as fh:
        inputs = {"ref": json.load(fh)}
    if workload == "census":
        n, count = (3, 2) if tiny else (DECOMP_N, DECOMP_MATRICES)
        inputs["decomp"] = (n, seeded_matrices(n, count, pass_stream(seed, pass_index, "decomposition")))
    elif workload == "sample":
        trials = 5 if tiny else SAMPLE_TRIALS
        inputs["matrices"] = seeded_matrices(SAMPLE_N, trials, pass_stream(seed, pass_index, "pa-membership"))
    else:
        inputs["search_seed"] = seed if pass_index == 0 else seed * 1000 + pass_index
    return inputs


def census(p, inputs, tiny):
    from nnpoly import paths

    ref = inputs["ref"]
    clock = time.perf_counter
    t0 = clock()
    for n in range(2, 5 if tiny else 8):
        r = ref[str(n)]
        p.op(f"bound --n {n}", run_cli(["bound", "--n", str(n), "--nu"]),
             lambda out, n=n, r=r: check_bound(out, n, r), parse_cli)
        for k in range(1, n):
            p.op(f"nu --n {n} --k {k}", run_cli(["nu", "--n", str(n), "--k", str(k)]),
                 lambda out, n=n, k=k, r=r: check_nu(out, n, k, r), parse_cli)
        p.op(f"certify --n {n}", run_cli(["certify", "--n", str(n)]),
             lambda out, n=n, r=r: check_certify(out, n, r), parse_cli)
    n, matrices = inputs["decomp"]
    a_sq = Fraction(ref[str(n)]["safe_a_sq"])
    for i, A in enumerate(matrices):
        p.op(f"decomposition n={n} #{i}",
             lambda A=A: paths.numeric_decomposition_check(n, a_sq, A), check_true)
    p.phase_iv["audit_s"] = (t0, clock())
    n = 4 if tiny else 8
    t1 = clock()
    p.op(f"certify --n {n}", run_cli(["certify", "--n", str(n)]),
         lambda out: check_certify(out, n, ref[str(n)]), parse_cli)
    p.phase_iv["certify8_s"] = (t1, clock())


def sample(p, inputs, tiny):
    from nnpoly import paths

    for i, A in enumerate(inputs["matrices"]):
        p.op(f"membership #{i}",
             lambda A=A: paths.verify_certificate_on_matrix(SAMPLE_N, SAMPLE_A_SQ, A), check_true)


def search(p, inputs, tiny):
    n = 2 if tiny else SEARCH_N
    argv = ["search-a", "--n", str(n), "--seed", str(inputs["search_seed"])]
    if tiny:
        argv += ["--starts", "2", "--iterations", "20"]
    out = p.op(f"search-a --n {n}", run_cli(argv),
               lambda out: check_search(out, n, inputs["ref"][str(n)]), parse_cli)
    if out is not None:
        p.bracket_gap = float(Fraction(out[1]["gap"]))


RUNNERS = {"census": census, "sample": sample, "search": search}


def run_pass(workload, inputs, tiny=False, keep=False):
    p = Pass(keep=keep)
    t0 = time.perf_counter()
    RUNNERS[workload](p, inputs, tiny)
    p.wall_iv = (t0, time.perf_counter())
    return p


# -- oracle self-test --------------------------------------------------------
# Each tamper edits one recorded output the way a wrong program might; the
# oracle must reject at least one op under every tamper.


def _edit_report(pred, edit):
    def tamper(label, out):
        if not pred(label):
            return out
        rc, rep = copy.deepcopy(out)
        edit(rep)
        return rc, rep
    return tamper


def _negate(label, out):
    return not out


TAMPERS = {
    "census": {
        "certify verdict false": _edit_report(
            lambda l: l.startswith("certify"), lambda r: r.update(verdict=False)),
        "class count off by one": _edit_report(
            lambda l: l.startswith("certify"), lambda r: r["per_k"][0].update(count=r["per_k"][0]["count"] + 1)),
        "phi not injective": _edit_report(
            lambda l: l.startswith("certify"), lambda r: r["per_k"][-1].update(phi_injective=False)),
        "nu off by one": _edit_report(
            lambda l: l.startswith("nu "), lambda r: r.update(nu=r["nu"] + 1)),
        "bound nu row changed": _edit_report(
            lambda l: l.startswith("bound"), lambda r: r["rows"][0].update(nu=r["rows"][0]["nu"] + 1)),
        "safe_a_sq changed": _edit_report(
            lambda l: l.startswith("bound"), lambda r: r.update(safe_a_sq="1/1000")),
        "decomposition false": lambda l, out: _negate(l, out) if l.startswith("decomposition") else out,
    },
    "sample": {"membership false": _negate},
    "search": {
        "a_lo above a_hi": _edit_report(lambda l: True, lambda r: r.update(a_lo="100", gap="0")),
        "a_lo_sq not certified": _edit_report(lambda l: True, lambda r: r.update(a_lo_sq="1")),
        "witness value wrong": _edit_report(
            lambda l: True, lambda r: r["witness"].update(value=str(Fraction(r["witness"]["value"]) - 1))),
        "witness for another a": _edit_report(
            lambda l: True, lambda r: r.update(a_hi=str(Fraction(r["a_hi"]) + 1))),
        "witness matrix negative": _edit_report(
            lambda l: True, lambda r: r["witness"]["matrix"][0].__setitem__(0, "-1")),
    },
}


def self_test(workload):
    """Tiny pass: the untampered outputs must pass, every tamper must fail."""
    inputs = setup(workload, 0, 0, tiny=True)
    p = run_pass(workload, inputs, tiny=True, keep=True)
    problems = [f"untampered: {f}" for f in p.failures]
    for name, tamper in TAMPERS[workload].items():
        failed = 0
        for label, out, check in p.records:
            try:
                failed += bool(check(tamper(label, out)))
            except (ValueError, KeyError, TypeError, IndexError):
                failed += 1
        if failed == 0:
            problems.append(f"tamper not caught: {name}")
    return {"self_test": workload, "ops": p.attempted, "tampers": len(TAMPERS[workload]),
            "problems": problems}


# -- entry -------------------------------------------------------------------


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        result = self_test(args.workload)
        print(json.dumps(result))
        return 1 if result["problems"] else 0

    with SpeedProbe() as probe:
        inputs = setup(args.workload, args.seed, args.pass_index, tiny=False)
        setup_s = probe.measure(_T0, time.perf_counter())[1]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        p = run_pass(args.workload, inputs)
    raw_wall_s, wall_s = probe.measure(*p.wall_iv)
    # times in reference seconds (speed.py), except raw_wall_s
    result = {
        "setup_s": setup_s, "raw_wall_s": raw_wall_s, "wall_s": wall_s,
        "op_s": [probe.measure(*iv)[1] for iv in p.op_iv],
        "phases": {k: probe.measure(*iv)[1] for k, iv in p.phase_iv.items()},
        "probe_median_s": statistics.median(probe.durations),
        "peak_rss_mb": peak_rss_mb(), "attempted": p.attempted, "failed": p.failed,
        "failures": p.failures, "bracket_gap": p.bracket_gap,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"], result["absent"] = layer_metrics(tracer, raw_wall_s)
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.spans_json(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
