import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import nnpoly
from nnpoly.families import make_p_a
from nnpoly import witness
from nnpoly.linalg import poly_eval_matrix
from nnpoly.witness import WitnessReport, cycle_witness, probe_witness, search_witness

F = Fraction


@pytest.mark.parametrize("n", range(2, 10))
def test_probe_falsifies_p_a_at_2n(n):
    # search-a starts its bracket here: entry (1,1) of p_{2n}(P) is 2 - 2n
    # for the n-cycle shift P
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
    # a wrong evaluation must be caught even with asserts stripped by -O
    script = (
        "from nnpoly import witness\n"
        "witness.poly_eval_matrix = lambda p, A: [[0] * len(A) for _ in A]\n"
        "try:\n"
        "    witness.cycle_witness(2, 1)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('wrong evaluation accepted')\n"
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
