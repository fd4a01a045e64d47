from fractions import Fraction

import pytest

import nnpoly.paths as paths_module
from nnpoly import linalg, witness
from nnpoly.bracket import bracket_optimal_a, certified_cap, sample_pa_membership
from nnpoly.families import make_p_a, safe_a_squared
from nnpoly.linalg import format_scalar
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
    est = bracket_optimal_a(2, steps=8)
    assert est.a_lo_sq >= F(2)
    assert est.a_lo**2 <= est.a_lo_sq
    assert est.a_lo <= est.a_hi
    assert est.gap == est.a_hi - est.a_lo
    assert est.witness is not None and est.witness.reverify()
    assert est.witness.m == 2


def test_bracket_n3():
    est = bracket_optimal_a(3, steps=8)
    assert est.a_lo_sq >= F(1)
    assert est.a_lo <= est.a_hi
    assert est.witness is not None and est.witness.reverify()


def test_bracket_rejects_n1():
    with pytest.raises(ValueError):
        bracket_optimal_a(1)


def test_bracket_deterministic():
    a = bracket_optimal_a(2, steps=4)
    b = bracket_optimal_a(2, steps=4)
    assert a.to_json() == b.to_json()


def test_sample_pa_membership_at_irrational_a():
    # a = sqrt(2) for n = 2: decided exactly via squared comparisons
    passes, failures = sample_pa_membership(2, F(2), trials=50)
    assert passes == 50 and not failures


def test_sample_pa_membership_fails_above_cap():
    passes, failures = sample_pa_membership(2, F(100), trials=50, seed=1)
    assert failures


# -- the upper end is an exact probe bisection -----------------------------------


def test_default_bracket_makes_no_kernel_calls(monkeypatch):
    # no float search runs: every step is settled by the exact probes
    def refuse(coeffs_f, As):
        raise AssertionError("float kernel called")

    monkeypatch.setattr(linalg, "poly_min_entries", refuse)
    monkeypatch.setattr(witness, "poly_min_entries", refuse)
    est = bracket_optimal_a(3)
    assert est.witness.reverify()


@pytest.mark.parametrize("n,a_hi", [
    (2, "20001/10000"), (3, "16062/8029"), (4, "16865/8432"), (5, "10640/5319"),
])
def test_bracket_a_hi_matches_the_float_bisection(n, a_hi):
    # the values the default bisection reached when each step also ran the
    # float search after the probes; the probes alone reach them
    est = bracket_optimal_a(n)
    assert format_scalar(est.a_hi) == a_hi
    assert est.witness.poly == make_p_a(n, est.a_hi) and est.witness.reverify()
