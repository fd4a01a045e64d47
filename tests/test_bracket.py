from fractions import Fraction

import pytest

import nnpoly.paths as paths_module
from nnpoly import linalg, witness
from nnpoly.exact_univariate import negative_point
from nnpoly.bracket import bracket_optimal_a, certified_cap, sample_pa_membership
from nnpoly.families import make_p_a, safe_a_squared
from nnpoly.paths import build_certificate

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


def test_certified_cap_n10_sharpened_n12_falls_back_to_mu_formula():
    # the census walks 562,594 rows at n = 10; n = 12 is past its limit
    assert certified_cap(10) == (F(1, 30240), "nu-sharpened cap (exact pre-image enumeration)")
    assert certified_cap(12) == (safe_a_squared(12), "mu-formula cap")


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

    def broken(n):
        stats = dict(census(n))
        stats[1] = tamper(*stats[1])
        return stats

    monkeypatch.setattr(paths_module, "_census", broken)
    assert certified_cap(3) == (safe_a_squared(3), "mu-formula cap")
    assert not build_certificate(3, safe_a_squared(3)).verdict


def test_bracket_n2():
    est = bracket_optimal_a(2)
    assert est.a_lo_sq >= F(2)
    assert est.a_lo**2 <= est.a_lo_sq
    assert est.a_lo <= est.a_hi
    assert est.gap == est.a_hi - est.a_lo
    assert est.witness is not None and est.witness.reverify()
    assert est.witness.m == 2


def test_bracket_n3():
    est = bracket_optimal_a(3)
    assert est.a_lo_sq >= F(1)
    assert est.a_lo <= est.a_hi
    assert est.witness is not None and est.witness.reverify()


def test_bracket_rejects_n1():
    with pytest.raises(ValueError):
        bracket_optimal_a(1)


def test_bracket_deterministic():
    a = bracket_optimal_a(2)
    b = bracket_optimal_a(2)
    assert a.to_json() == b.to_json()


def test_sample_pa_membership_at_irrational_a():
    # a = sqrt(2) for n = 2: decided exactly via squared comparisons
    passes, failures = sample_pa_membership(2, F(2), trials=50)
    assert passes == 50 and not failures


def test_sample_pa_membership_fails_above_cap():
    passes, failures = sample_pa_membership(2, F(100), trials=50, seed=1)
    assert failures


def test_sample_pa_membership_passes_the_benchmark_stream():
    # n = 4, a^2 = 1/3 at seed 0 is the stream of the sample workload's pass 0
    assert sample_pa_membership(4, F(1, 3), 1000, seed=0) == (1000, [])


def test_sample_pa_membership_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        sample_pa_membership(4, F(1, 3), -5)
    assert sample_pa_membership(4, F(1, 3), 0) == (0, [])


# -- the upper end is the cyclic shift in closed form ---------------------------


def test_default_bracket_makes_no_kernel_calls(monkeypatch):
    # no witness search runs: the witness is the shift, built exactly
    def refuse(*args):
        raise AssertionError("witness search called")

    monkeypatch.setattr(witness, "family_witness", refuse)
    monkeypatch.setattr(witness, "negative_point", refuse)
    est = bracket_optimal_a(3)
    assert est.witness.reverify()


EPS = F(1, 10**9)


@pytest.mark.parametrize("n", range(2, 10))
def test_cycle_row_falsifies_p_a_exactly_above_2(n):
    # the bracket's upper end is the order-n cycle tP, once falsify's probe:
    # entry (1, i+1) of p_a(tP) sums the t^d with d = i (mod n), so entry
    # (1, 1) is 1 - a t^n + t^2n, negative at some t > 0 iff a > 2, and the
    # others are t^i + t^(n+i) >= 0; no t does better than the bracket's t = 1
    for a in [2 - EPS, F(2), 2 + EPS, F(199, 100), F(201, 100), F(2 * n)]:
        p = make_p_a(n, a)
        rows = [[c if d % n == i else 0 for d, c in enumerate(p)] for i in range(n)]
        assert all(c >= 0 for row in rows[1:] for c in row)
        assert rows[0] == [1] + [0] * (n - 1) + [-a] + [0] * (n - 1) + [1]
        t = negative_point(rows[0])
        assert (t is not None) == (a > 2), a
        if t is not None:
            assert 1 - a * t**n + t**(2 * n) < 0


@pytest.mark.parametrize("n", range(2, 10))
def test_bracket_a_hi_is_the_shift_at_t_1(n):
    est = bracket_optimal_a(n)
    assert est.a_hi == 2 + EPS and est.gap == est.a_hi - est.a_lo
    w = est.witness
    assert w.poly == make_p_a(n, est.a_hi) and w.reverify()
    assert w.matrix == [[F(c == (r + 1) % n) for c in range(n)] for r in range(n)]
    assert (w.entry, w.value, w.method) == ((1, 1), 2 - est.a_hi, "structured-cycle")
    assert est.hi_provenance == "order-n cyclic shift at t = 1: p_a(P) has diagonal 2 - a"


@pytest.mark.parametrize("n", range(2, 10))
def test_bracket_evaluates_its_witness_once(monkeypatch, n):
    # the shift is built, not found: one exact evaluation and no probe sweep
    calls = []
    powers = linalg.exact_powers

    def counted(A, top):
        calls.append(len(A))
        return powers(A, top)

    def refuse(coeffs, m):
        raise AssertionError("family_witness called")

    monkeypatch.setattr(linalg, "exact_powers", counted)
    monkeypatch.setattr(witness, "family_witness", refuse)
    assert bracket_optimal_a(n).witness.m == n
    assert calls == [n]
