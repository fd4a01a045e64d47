from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpoly.linalg import parse_matrix_csv, parse_poly, poly_eval, poly_eval_matrix
from list_kernels import cyclic_shift, identity, mat_mul, mat_pow, min_entry

F = Fraction


def frac_matrix(n, max_num=10):
    entry = st.integers(0, max_num).map(F)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def test_mat_mul_identity():
    I2 = identity(2)
    assert mat_mul(I2, I2) == I2


def test_mat_mul_nilpotent_shift():
    N = [[F(0), F(1)], [F(0), F(0)]]
    assert mat_mul(N, N) == [[F(0), F(0)], [F(0), F(0)]]


def test_mat_mul_all_ones():
    J = [[F(1), F(1)], [F(1), F(1)]]
    assert mat_mul(J, J) == [[F(2), F(2)], [F(2), F(2)]]


def test_mat_mul_order_mismatch():
    with pytest.raises(ValueError):
        mat_mul(identity(2), identity(3))


def test_mat_pow_zero_is_identity():
    A = [[F(3), F(1)], [F(0), F(2)]]
    assert mat_pow(A, 0) == identity(2)


def test_mat_pow_cyclic_shift_order():
    P = cyclic_shift(3)
    assert mat_pow(P, 3) == identity(3)
    assert mat_pow(P, 1) != identity(3)


def test_mat_pow_1x1():
    assert mat_pow([[F(2)]], 5) == [[F(32)]]


@pytest.mark.parametrize("coeffs", [[3], [-1, 0, 1], [2, -7, 0, 5], [F(1, 3), -2, F(-5, 2), 0, 1]])
@pytest.mark.parametrize("x", [0, -3, 4, F(-2, 3), F(7, 5), 2 - 1j, 0.5j])
def test_poly_eval_matches_power_sum(coeffs, x):
    value, want = poly_eval(coeffs, x), sum(c * x**d for d, c in enumerate(coeffs))
    assert value == (pytest.approx(want) if type(x) is complex else want)
    # exact in, same type out: the Sturm counts of exact_univariate rely on it
    if all(type(c) is int for c in coeffs) and type(x) is int:
        assert type(value) is int
    elif type(x) is F or type(x) is int:
        assert type(value) is F


def test_poly_eval_matrix_identity_poly():
    A = [[F(1), F(2)], [F(3), F(4)]]
    assert poly_eval_matrix([F(0), F(1)], A) == A


def test_poly_eval_matrix_1x1_witness():
    # x^2 - 1 at the zero matrix: constant term dominates
    assert poly_eval_matrix([F(-1), F(0), F(1)], [[F(0)]]) == [[F(-1)]]


def test_poly_eval_matrix_empty_poly():
    with pytest.raises(ValueError):
        poly_eval_matrix([], identity(2))


def test_min_entry():
    assert min_entry(identity(2)) == (F(0), 1, 2)
    assert min_entry([[F(-1), F(3)], [F(2), F(0)]]) == (F(-1), 1, 1)
    assert min_entry([[F(5)]]) == (F(5), 1, 1)


@settings(max_examples=50, deadline=None)
@given(frac_matrix(3), st.integers(0, 4), st.integers(0, 4))
def test_mat_pow_additive(A, j, k):
    assert mat_pow(A, j + k) == mat_mul(mat_pow(A, j), mat_pow(A, k))


@settings(max_examples=50, deadline=None)
@given(frac_matrix(2), st.lists(st.integers(-5, 5).map(F), min_size=1, max_size=6))
def test_horner_matches_naive(A, coeffs):
    naive = [[sum(c * mat_pow(A, d)[i][j] for d, c in enumerate(coeffs))
              for j in range(2)] for i in range(2)]
    assert poly_eval_matrix(coeffs, A) == naive


@settings(max_examples=30, deadline=None)
@given(frac_matrix(3), st.lists(st.integers(0, 5).map(F), min_size=1, max_size=5))
def test_nonneg_coeffs_preserve_nonneg(A, coeffs):
    C = poly_eval_matrix(coeffs, A)
    assert all(x >= 0 for row in C for x in row)


def test_matrix_csv_roundtrip():
    A = [[F(1, 2), F(3)], [F(-2, 7), F(0)]]
    text = "".join(",".join(map(str, row)) + "\n" for row in A)
    assert text == "1/2,3\n-2/7,0\n"
    assert parse_matrix_csv(text) == A


def test_parse_poly():
    assert parse_poly("1,1,-1,1,1") == [F(1), F(1), F(-1), F(1), F(1)]
    assert parse_poly("1/2, -3/4") == [F(1, 2), F(-3, 4)]
    with pytest.raises(ValueError):
        parse_poly("")
