import itertools
from fractions import Fraction

import pytest

import nnpoly.paths as paths_module
from nnpoly import bracket, witness
from nnpoly.bracket import (
    CANDIDATE_DENOM,
    BoundEstimate,
    bracket_optimal_a,
    certified_cap,
    sample_pa_membership,
)
from nnpoly.families import make_p_a, rational_sqrt_floor, safe_a_squared
from nnpoly.linalg import poly_min_entries
from nnpoly.paths import build_certificate
from nnpoly.witness import SEARCH_BLOCK, WitnessReport, probe_witness, search_witness

F = Fraction


def test_certified_cap_n2():
    cap, prov = certified_cap(2)
    assert cap == F(2)  # nu(2,1) = mu(2,1), no sharpening possible


def test_certified_cap_n3_sharpened():
    cap, prov = certified_cap(3)
    assert cap == F(4, 3)  # nu(3,k) = 3 for both k, beating mu(3,2) = 4
    assert "sharpened" in prov
    assert cap >= safe_a_squared(3)


def test_certified_cap_n8_sharpened():
    cap, prov = certified_cap(8)
    assert cap == F(1, 540)  # 4 / nu(8,6) = 4/1020 > 4/2160
    assert prov == "nu-sharpened cap (exact pre-image enumeration)"
    assert cap > safe_a_squared(8) == F(1, 2520)


def test_certified_cap_n10_falls_back_to_mu_formula():
    # 10^9 paths exceed the default enumeration cap
    assert certified_cap(10) == (safe_a_squared(10), "mu-formula cap")


def test_certified_cap_census_sized_n_falls_back_to_mu_formula():
    # 1400^1399 is too long to print; the cap check must not try
    assert certified_cap(1400) == (safe_a_squared(1400), "mu-formula cap")


@pytest.mark.parametrize("n", range(2, 9))
def test_certificate_accepts_exactly_up_to_certified_cap(n):
    cap, _ = certified_cap(n)
    assert build_certificate(n, cap).verdict
    assert not build_certificate(n, cap + F(1, 10**12)).verdict


@pytest.mark.parametrize("tamper", [
    lambda count, inj, nu: (count, False, nu),
    lambda count, inj, nu: (count + 1, inj, nu),
], ids=["phi_not_injective", "partition_miscounted"])
def test_failed_census_fact_falls_back_to_mu_formula(monkeypatch, tamper):
    census = paths_module._census

    def broken(n, cap=paths_module.DEFAULT_CAP):
        stats = dict(census(n, cap))
        stats[1] = tamper(*stats[1])
        return stats

    monkeypatch.setattr(paths_module, "_census", broken)
    assert certified_cap(3) == (safe_a_squared(3), "mu-formula cap")
    assert not build_certificate(3, safe_a_squared(3)).verdict


def test_bracket_n2():
    est = bracket_optimal_a(2, steps=8, starts=4, iterations=60)
    assert est.a_lo_sq >= F(2)
    assert est.a_lo**2 <= est.a_lo_sq
    assert est.a_lo <= est.a_hi
    assert est.gap == est.a_hi - est.a_lo
    assert est.witness is not None and est.witness.reverify()
    assert est.witness.m == 2


def test_bracket_n3():
    est = bracket_optimal_a(3, steps=8, starts=4, iterations=60)
    assert est.a_lo_sq >= F(1)
    assert est.a_lo <= est.a_hi
    assert est.witness is not None and est.witness.reverify()


def test_bracket_rejects_n1():
    with pytest.raises(ValueError):
        bracket_optimal_a(1)


def test_bracket_deterministic():
    a = bracket_optimal_a(2, steps=4, starts=3, iterations=40, seed=9)
    b = bracket_optimal_a(2, steps=4, starts=3, iterations=40, seed=9)
    assert a.to_json() == b.to_json()


def test_sample_pa_membership_at_irrational_a():
    # a = sqrt(2) for n = 2: decided exactly via squared comparisons
    passes, failures = sample_pa_membership(2, F(2), trials=50)
    assert passes == 50 and not failures


def test_sample_pa_membership_fails_above_cap():
    passes, failures = sample_pa_membership(2, F(100), trials=50, seed=1)
    assert failures


# -- the planned bisection against the one-step-at-a-time loop -------------------


def sequential_bracket(n, steps, tol, seed, starts, iterations):
    """bracket_optimal_a before it planned ahead: one search_witness call
    per bisection step, the reference the planned bisection reproduces."""
    cap, lo_prov = certified_cap(n)
    a_lo = rational_sqrt_floor(cap)
    a_hi = F(2 * n)
    hi_witness = probe_witness(make_p_a(n, a_hi), n)
    budget_exhausted = True
    probe = a_lo
    for _ in range(steps):
        if a_hi - probe <= tol:
            budget_exhausted = False
            break
        mid = F((probe + a_hi) / 2).limit_denominator(CANDIDATE_DENOM)
        if not probe < mid < a_hi:
            mid = (probe + a_hi) / 2
        w = search_witness(make_p_a(n, mid), n, starts=starts, iterations=iterations,
                           seed=seed)
        if w is not None:
            a_hi, hi_witness = mid, w
        else:
            probe = mid
    hi_prov = "bisection with exact-verified witnesses" + (
        "; budget exhausted" if budget_exhausted else "")
    return BoundEstimate(
        n=n, a_lo=a_lo, a_lo_sq=cap, a_hi=a_hi, gap=a_hi - a_lo,
        lo_provenance=lo_prov, hi_provenance=hi_prov, witness=hi_witness,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_planned_bisection_matches_sequential_bisection(n):
    for seed, steps, tol, starts, iterations in itertools.product(
            [0, 1], [0, 1, 3, 32], [F(0), F(1, 2)], [0, 1, 8, 70], [0, 20]):
        budget = dict(steps=steps, tol=tol, seed=seed, starts=starts, iterations=iterations)
        assert (bracket_optimal_a(n, **budget).to_json()
                == sequential_bracket(n, **budget).to_json()), budget


def test_planned_bisection_drops_the_steps_after_a_float_witness(monkeypatch):
    # a stub float search that finds a witness iff a > 9/5 hits in the middle
    # of a plan; the steps planned after the hit must be dropped and replanned
    n = 3
    plans = []

    def stub(polys, m, starts, iterations, seed):
        found = [WitnessReport(poly=p, m=m, matrix=[[F(0)] * m] * m, entry=(1, 1),
                               value=F(-1), method="stub") if -p[n] > F(9, 5) else None
                 for p in polys]
        plans.append(found)
        return found

    monkeypatch.setattr(witness, "float_search", stub)
    monkeypatch.setattr(bracket, "float_search", stub)
    for steps, tol in [(32, F(0)), (32, F(1, 1000)), (9, F(0))]:
        budget = dict(steps=steps, tol=tol, seed=0, starts=8, iterations=150)
        assert (bracket_optimal_a(n, **budget).to_json()
                == sequential_bracket(n, **budget).to_json()), budget
    assert any(any(found[:-1]) for found in plans if len(found) > 1)


def test_default_bracket_is_151_kernel_calls(monkeypatch):
    # the 6 float searches of search-a --n 3 run as one lockstep block of
    # 6 * 8 starts: its initial objectives and 150 coordinate steps
    batches = []

    def recording(coeffs_f, As):
        batches.append(len(As))
        return poly_min_entries(coeffs_f, As)

    monkeypatch.setattr(witness, "poly_min_entries", recording)
    bracket_optimal_a(3)
    assert len(batches) == 151
    assert max(batches) <= 9 * SEARCH_BLOCK
