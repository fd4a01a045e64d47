"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
from fractions import Fraction
from math import prod

import numpy as np

from nnpoly.bracket import bracket_optimal_a, sample_pa_membership
from nnpoly.families import mu, safe_a_squared
from nnpoly.niep import jll_check
from nnpoly.paths import (
    build_certificate,
    exact_nu,
    first_cycle,
    min_cycle_length,
    numeric_decomposition_check,
    partition_stats,
    phi,
    psi,
)
from nnpoly.witness import cycle_witness

F = Fraction


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_formulas():
    ok = True
    for n in range(2, 11):
        for k in range(1, n):
            expected = (n - k + 1) * prod(n - j for j in range(1, k))
            ok &= mu(n, k) == expected and mu(n, k) >= 2
    ok &= safe_a_squared(2) == F(2)
    ok &= safe_a_squared(3) == F(1)
    ok &= safe_a_squared(4) == F(1, 3)
    report("1 formula reproduction", ok)


def test_criterion_2_worked_example():
    m = (1, 3, 5, 7, 3, 10, 6, 4, 12, 10, 7, 5, 2)
    ok = min_cycle_length(m) == 3
    cyc = first_cycle(m, 3)
    ok &= phi(m, cyc) == (1, 3, 5, 7, 3, 5, 7, 3, 10, 6, 4, 12, 10, 7, 5, 2)
    ok &= psi(m, cyc) == (1, 3, 10, 6, 4, 12, 10, 7, 5, 2)
    report("2 worked example (n=12 path)", ok)


def test_criterion_3_exhaustive_proof_check():
    ok = True
    for n in range(2, 7):
        stats = partition_stats(n)
        ok &= sum(c for _, c in stats) == n ** (n - 1)
        for k in range(1, n):
            ok &= exact_nu(n, k) <= mu(n, k)
        rep = build_certificate(n, safe_a_squared(n))
        ok &= rep.verdict and all(inj for _, _, inj, _, _ in rep.per_k)
    report("3 exhaustive proof check n=2..6", ok)


def test_criterion_4_membership_sampling():
    ok = True
    for n in (2, 3, 4):
        passes, failures = sample_pa_membership(n, safe_a_squared(n), trials=1000, seed=n)
        ok &= passes == 1000 and not failures
    report("4 membership sampling 10^3 per n", ok)


def test_criterion_5_strict_containment():
    ok = True
    for n in range(2, 7):
        from nnpoly.families import rational_sqrt_floor

        a = rational_sqrt_floor(safe_a_squared(n))  # certified: a^2 <= cap
        rep = cycle_witness(n, a, F(1))
        ok &= rep.entry == (1, n + 1) and rep.value == -a and rep.reverify()
    report("5 strict containment witnesses n=2..6", ok)


def test_criterion_6_decomposition_identity():
    rng = random.Random(2024)
    ok = True
    for n in (2, 3):
        a_sq = safe_a_squared(n)
        for _ in range(50):
            A = [[F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            ok &= numeric_decomposition_check(n, a_sq, A)
            k = min_cycle_length(tuple([1] + [rng.randint(1, n) for _ in range(n - 1)] + [2]))
            ok &= 1 <= k <= n - 1
    report("6 decomposition identity, 100 matrices", ok)


def test_criterion_7_bracketing():
    est2 = bracket_optimal_a(2)
    est3 = bracket_optimal_a(3)
    ok = est2.a_lo_sq >= F(2) and est3.a_lo_sq >= F(1)
    ok &= est2.a_lo**2 <= est2.a_lo_sq and est3.a_lo**2 <= est3.a_lo_sq
    ok &= est2.a_lo <= est2.a_hi and est3.a_lo <= est3.a_hi
    ok &= est2.witness.reverify() and est3.witness.reverify()
    report("7 optimal-a bracketing n=2,3", ok)


def test_criterion_8_jll():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = rng.uniform(0, 1, size=(n, n))
        ok &= jll_check(np.linalg.eigvals(A), k_max=4, m_max=4, tol=1e-8)["all_hold"]
    bad = jll_check([1, 1j, -1j])
    row = next(r for r in bad["rows"] if r[0] == 1 and r[1] == 2)
    ok &= row[4] is False
    report("8 JLL suite", ok)
