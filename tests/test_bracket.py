from fractions import Fraction

import pytest

from nnpoly.bracket import (
    bracket_optimal_a,
    certified_cap,
    membership_sample,
    sample_pa_membership,
)
from nnpoly.families import make_p_a, safe_a_squared

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


def test_membership_sample_nonneg_coeffs():
    passes, witnesses = membership_sample([F(1), F(2), F(3)], 3, trials=20)
    assert passes == 20 and not witnesses


def test_membership_sample_certified_pa():
    passes, witnesses = membership_sample(make_p_a(3, F(1)), 3, trials=30)
    assert passes == 30 and not witnesses


def test_membership_sample_catches_x2_minus_1():
    passes, witnesses = membership_sample([F(-1), F(0), F(1)], 1, trials=30)
    assert passes < 30
    assert witnesses and all(w.reverify() for w in witnesses)


def test_sample_pa_membership_at_irrational_a():
    # a = sqrt(2) for n = 2: decided exactly via squared comparisons
    passes, failures = sample_pa_membership(2, F(2), trials=50)
    assert passes == 50 and not failures


def test_sample_pa_membership_fails_above_cap():
    passes, failures = sample_pa_membership(2, F(100), trials=50, seed=1)
    assert failures
