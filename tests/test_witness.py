import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import nnpoly
from nnpoly.families import make_p_a
from nnpoly import witness
from nnpoly.linalg import poly_eval_matrix, poly_min_entries
from nnpoly.witness import (
    SCALE_SWEEP,
    SEARCH_BLOCK,
    WitnessReport,
    cycle_witness,
    probe_witness,
    search_witness,
)
from list_kernels import min_entry

F = Fraction


@pytest.mark.parametrize("n", range(2, 10))
def test_probe_falsifies_p_a_at_2n(n):
    # entry (1,1) of p_{2n}(P) is 2 - 2n for the n-cycle shift P
    rep = probe_witness(make_p_a(n, 2 * n), n)
    assert rep is not None and rep.reverify()


def test_cycle_witness_n2():
    rep = cycle_witness(2, F(1), F(1))
    assert rep.m == 3
    assert rep.entry == (1, 3)
    assert rep.value == F(-1)
    assert rep.method == "structured-cycle"
    assert rep.reverify()


def test_cycle_witness_n3_fractional_a():
    rep = cycle_witness(3, F(1, 2), F(1))
    assert rep.entry == (1, 4)
    assert rep.value == F(-1, 2)
    assert rep.reverify()


def test_cycle_witness_scaling():
    rep = cycle_witness(2, F(1), F(2))
    assert rep.value == F(-4)


def test_cycle_witness_any_positive_a_and_t():
    for n in (2, 3, 4):
        for a in (F(1, 7), F(3)):
            for t in (F(1, 3), F(5, 2)):
                rep = cycle_witness(n, a, t)
                assert rep.value == -a * t**n
                assert rep.reverify()


def test_cycle_witness_rejects_bad_args():
    with pytest.raises(ValueError):
        cycle_witness(1, F(1))
    with pytest.raises(ValueError):
        cycle_witness(2, F(0))


def test_search_finds_x2_minus_1_witness():
    rep = search_witness([F(-1), F(0), F(1)], 1, seed=3)
    assert rep is not None
    assert rep.value < 0
    assert rep.reverify()


def test_search_cross_checks_cycle_structure():
    # p_1 for n=2 must fail at order 3; the structured oracle says so
    rep = search_witness(make_p_a(2, F(1)), 3, seed=1)
    assert rep is not None
    assert rep.reverify()
    assert cycle_witness(2, F(1)).reverify()


def test_search_no_witness_for_nonneg_coeffs():
    coeffs = [F(1), F(4), F(6), F(4), F(1)]  # (1+x)^4
    assert search_witness(coeffs, 2, starts=4, iterations=50) is None


def test_search_deterministic():
    a = search_witness(make_p_a(2, F(2)), 2, starts=6, iterations=80, seed=42)
    b = search_witness(make_p_a(2, F(2)), 2, starts=6, iterations=80, seed=42)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.to_json() == b.to_json()


def test_witness_json_reverifies():
    rep = cycle_witness(3, F(2, 3))
    j = rep.to_json()
    rebuilt = WitnessReport(
        poly=[F(c) for c in j["poly"]],
        m=j["m"],
        matrix=[[F(x) for x in row] for row in j["matrix"]],
        entry=tuple(j["entry"]),
        value=F(j["value"]),
        method=j["method"],
    )
    assert rebuilt.reverify()


def test_reverify_rejects_tampering():
    rep = cycle_witness(2, F(1))
    rep.value = F(-2)
    assert not rep.reverify()


def test_soundness_exact_value():
    rep = search_witness(make_p_a(2, F(3)), 2, seed=0)
    if rep is not None:
        C = poly_eval_matrix(rep.poly, rep.matrix)
        assert C[rep.entry[0] - 1][rep.entry[1] - 1] == rep.value < 0


def test_cycle_witness_check_survives_optimize():
    # a wrong evaluation must be caught even with asserts stripped by -O, by
    # the check that cycle_witness and bracket_optimal_a share
    script = (
        "import numpy as np\n"
        "from nnpoly import bracket, witness\n"
        "witness.poly_eval_ratio = lambda p, A: (1, np.zeros((len(A),) * 2, dtype=object))\n"
        "calls = [lambda: witness.cycle_witness(2, 1), lambda: bracket.bracket_optimal_a(3)]\n"
        "for build in calls:\n"
        "    try:\n"
        "        build()\n"
        "    except AssertionError:\n"
        "        continue\n"
        "    raise SystemExit('wrong evaluation accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_search_rejects_coefficient_too_large_for_float():
    with pytest.raises(ValueError, match=r"coefficient of x\^2 is too large"):
        search_witness([F(-1), F(0), F(10**400)], 1)


def fake_objective(coeffs_f, A):
    """-x on [0, 1], then -inf up to 2, then nan."""
    x = A[0][0]
    return -x if x <= 1 else -math.inf if x <= 2 else math.nan


def batched(objective):
    """The batch signature of linalg.poly_min_entries around a scripted
    per-matrix objective."""
    return lambda coeffs_f, As: [objective(coeffs_f, A) for A in As]


def rationalized(monkeypatch, objective):
    """Run a search with a scripted float objective; return the float
    matrices handed to exact re-verification."""
    seen = []
    rationalize = witness._rationalize
    monkeypatch.setattr(witness, "poly_min_entries", batched(objective))
    monkeypatch.setattr(witness, "_rationalize", lambda A: seen.append(A) or rationalize(A))
    return seen


def test_search_moves_to_negative_inf_never_to_nan(monkeypatch):
    seen = rationalized(monkeypatch, fake_objective)
    starts = 9  # one per scale, 1/16 .. 16
    assert search_witness([F(1)], 1, starts=starts, iterations=30) is None
    assert len(seen) == starts
    objectives = [fake_objective(None, A) for A in seen]
    assert not any(math.isnan(v) for v in objectives)
    assert -math.inf in objectives


def test_search_verifies_negative_inf_objective(monkeypatch):
    # -inf means a negative term overflowed: the candidate is kept and
    # re-verified exactly, and here it is a real witness of x^2 - 1
    monkeypatch.setattr(witness, "probe_witness", lambda coeffs, m: None)
    seen = rationalized(monkeypatch, lambda coeffs_f, A: -math.inf)
    rep = search_witness([F(-1), F(0), F(1)], 1, starts=1, iterations=5)
    assert len(seen) == 1
    assert rep is not None and rep.value < 0 and rep.reverify()


def test_search_start_with_nan_objective_begins_at_inf(monkeypatch):
    calls = []

    def first_nan(coeffs_f, A):
        calls.append(A)
        return math.nan if len(calls) == 1 else -A[0][0]

    seen = rationalized(monkeypatch, first_nan)
    assert search_witness([F(1)], 1, starts=1, iterations=5) is None
    assert len(seen) == 1 and seen[0][0][0] > 0


def reference_report(coeffs, A):
    """(value, entry) of the first most negative entry of the Fraction
    matrix p(A), or None: the oracle for the numerator scan of
    witness._verified_report."""
    val, r, c = min_entry(poly_eval_matrix(coeffs, A))
    return (val, (r, c)) if val < 0 else None


def probe_matrices(m):
    for t in SCALE_SWEEP + [F(1, m), F(1, 2 * m)]:
        yield [[t] * m for _ in range(m)]
        yield [[t if c == (r + 1) % m else F(0) for c in range(m)] for r in range(m)]


def test_verified_report_matches_fraction_matrix_on_probes():
    rng = random.Random(0)
    polys = [make_p_a(n, a) for n in (2, 3) for a in (F(1), F(19999, 10000), F(7, 3))]
    polys += [[F(1), F(2), F(1)], [F(-1, 3), F(0), F(1, 2)]]
    polys += [[F(rng.randint(-9, 9), rng.choice([1, 2, 7])) for _ in range(rng.randint(1, 6))]
              for _ in range(20)]
    seen = set()
    for coeffs in polys:
        for m in (1, 2, 3, 4):
            for A in probe_matrices(m):
                want = reference_report(coeffs, A)
                rep = witness._verified_report(coeffs, A, "search")
                assert (rep and (rep.value, rep.entry)) == want, (coeffs, A)
                if rep is not None:
                    assert (rep.poly, rep.m, rep.matrix) == (coeffs, m, A)
                    C = poly_eval_matrix(coeffs, A)
                    ties = sum(row.count(rep.value) for row in C)
                    seen.add("tie" if ties > 1 else "negative")
                else:
                    seen.add("none")
                if any(c.denominator > 1 for c in coeffs):
                    seen.add("L > 1")
    assert seen == {"tie", "negative", "none", "L > 1"}


# -- lockstep blocks against the one-start-at-a-time search ---------------------


def sequential_descent(coeffs_f, m, idx, iterations, seed):
    """(objective, matrix) of start idx run alone, each coordinate step a
    kernel call on its own nine candidates: the search before its starts
    advanced in blocks."""
    factors = [0.0, 0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0]
    rng = random.Random(f"{seed}:{idx}")
    scale = float(SCALE_SWEEP[idx % len(SCALE_SWEEP)])
    A = [[rng.random() * scale for _ in range(m)] for _ in range(m)]
    obj = poly_min_entries(coeffs_f, [A])[0]
    if math.isnan(obj):
        obj = math.inf
    for _ in range(iterations):
        i, j = rng.randrange(m), rng.randrange(m)
        base = A[i][j]
        cands = [
            max(base * f if base else scale * f * rng.random(), 0.0)
            for f in factors
        ]
        stack = np.array([A] * len(cands))
        stack[:, i, j] = cands
        best_val, best = obj, base
        for val, cand in zip(poly_min_entries(coeffs_f, stack), cands):
            if val < best_val:
                best_val, best = val, cand
        A[i][j] = best
        obj = best_val
    return obj, A


def sequential_search(coeffs, m, starts, iterations, seed):
    """(report, winning start index) of the search run one start at a time.
    The probe matrices are left out: the cases below have no probe witness."""
    coeffs = [F(c) for c in coeffs]
    coeffs_f = [float(c) for c in coeffs]
    for idx in range(starts):
        obj, A = sequential_descent(coeffs_f, m, idx, iterations, seed)
        if obj < -1e-12:
            rep = witness._verified_report(coeffs, witness._rationalize(A), "search")
            if rep is not None:
                return rep, idx
    return None, None


def search_cases(count, seed):
    """Seeded (x - r)^2 - eps, some with a small x^3 term, that no probe
    matrix falsifies, with the search budget to run on each.  At m >= 2 a
    probe t*J with small t falsifies every one of them, so only m = 1 stays."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        m = rng.randint(1, 3)
        r = F(rng.randint(10, 40), 10)
        coeffs = [r * r - F(1, rng.choice([100, 1000])), -2 * r, 1,
                  rng.choice([0, F(1, 1000)])]
        if probe_witness(coeffs, m) is None:
            cases.append((coeffs, m, rng.choice([1, 3, 6, SEARCH_BLOCK + 6]),
                          rng.choice([0, 1, 5, 20]), rng.randrange(1000)))
    return cases


def test_lockstep_search_matches_sequential_search():
    # the last case's first verified start, 68, lies in the second block
    r = F(17, 10)
    cases = search_cases(120, seed=0) + [([r * r - F(1, 100), -2 * r, 1], 1,
                                          SEARCH_BLOCK + 6, 0, 48)]
    winners = []
    for coeffs, m, starts, iterations, seed in cases:
        want, idx = sequential_search(coeffs, m, starts, iterations, seed)
        got = search_witness(coeffs, m, starts, iterations, seed)
        assert (got and got.to_json()) == (want and want.to_json()), (coeffs, m, seed)
        winners.append(idx)
    assert any(idx is not None and 0 < idx < SEARCH_BLOCK for idx in winners)
    assert any(idx is not None and idx >= SEARCH_BLOCK for idx in winners)
    assert None in winners


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lockstep_starts_follow_their_own_paths(m):
    # every start of a block ends where it ends alone, at m = 2 and 3 too,
    # where no search case above survives the probes.  A top coefficient of
    # -1e300 makes several candidates of a step overflow to the same -inf,
    # and a start must then move to the first of them.
    rng = random.Random(m)
    for top in (1.0, 1.0, 1.0, -1e300, -1e300):
        coeffs_f = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 5))] + [top]
        first, seed = rng.randrange(20), rng.randrange(1000)
        block = range(first, first + rng.choice([1, 5, 11]))
        objs, As = witness._descend_block(coeffs_f, m, block, 12, seed)
        assert list(zip(objs, As)) == [
            sequential_descent(coeffs_f, m, idx, 12, seed) for idx in block]


def test_lockstep_starts_at_the_benchmark_shape():
    # p_a at order 3, 8 starts of 150 steps each
    coeffs_f = [float(c) for c in make_p_a(3, F(19999, 10000))]
    objs, As = witness._descend_block(coeffs_f, 3, range(8), 150, 0)
    assert list(zip(objs, As)) == [
        sequential_descent(coeffs_f, 3, idx, 150, 0) for idx in range(8)]


@pytest.mark.filterwarnings("error")
def test_lockstep_starts_overflow_to_inf_silently():
    # -x drives an entry of start 1 to inf; later steps on it take the
    # base = inf branch, whose candidate inf * 0.0 is nan
    objs, As = witness._descend_block([0.0, -1.0], 2, range(2), 2600, 0)
    assert objs[1] == -math.inf and math.inf in sum(As[1], [])
    assert list(zip(objs, As)) == [
        sequential_descent([0.0, -1.0], 2, idx, 2600, 0) for idx in range(2)]


def test_each_block_step_is_one_kernel_call(monkeypatch):
    batches = []

    def recording(coeffs_f, As):
        batches.append(len(As))
        return poly_min_entries(coeffs_f, As)

    monkeypatch.setattr(witness, "poly_min_entries", recording)
    coeffs = [F(1), F(2), F(1)]  # (1 + x)^2: no witness, every start runs
    assert search_witness(coeffs, 2, starts=2 * SEARCH_BLOCK + 3, iterations=4) is None
    assert len(batches) == 3 * (4 + 1)
    assert max(batches) <= 9 * SEARCH_BLOCK
    batches.clear()
    assert search_witness(coeffs, 2, starts=0, iterations=4) is None
    assert batches == []
