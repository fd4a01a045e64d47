import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpoly.linalg import parse_matrix_csv, parse_poly, poly_eval_matrix, poly_min_entries
from nnpoly.witness import SEARCH_BLOCK
from list_kernels import cyclic_shift, horner, identity, mat_mul, mat_pow, min_entry

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


# -- the batched float kernel against the generic Horner -------------------


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def reference_min(coeffs, A):
    return min_entry(horner(coeffs, A))[0]


float_entry = st.one_of(
    st.just(0.0),
    st.floats(0, 4),
    st.floats(1e30, 1e120),  # powers of these overflow to inf
)
float_coeff = st.one_of(
    st.just(0.0),
    st.floats(-10, 10),
    st.floats(-1e300, 1e300),  # overflows, and inf - inf gives nan
)


@st.composite
def float_stacks(draw):
    m = draw(st.integers(1, 4))
    matrix = st.lists(st.lists(float_entry, min_size=m, max_size=m),
                      min_size=m, max_size=m)
    return draw(st.lists(matrix, min_size=1, max_size=9))


@settings(max_examples=300, deadline=None)
@given(st.lists(float_coeff, min_size=1, max_size=9), float_stacks())
def test_batched_kernel_is_bit_identical_to_horner(coeffs, As):
    got = poly_min_entries(coeffs, As)
    assert len(got) == len(As)
    for value, A in zip(got, As):
        assert same_float(value, reference_min(coeffs, A))


def test_batched_kernel_on_random_stacks():
    # generic floats, where any reordering or fused multiply-add of the
    # sums shows in the last bits
    rng = random.Random(0)
    for _ in range(200):
        m, batch = rng.randint(1, 4), rng.randint(1, 9)
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 9))]
        As = [[[rng.random() * 4 for _ in range(m)] for _ in range(m)] for _ in range(batch)]
        assert poly_min_entries(coeffs, As) == [reference_min(coeffs, A) for A in As]


def test_batched_kernel_nan_at_entry_1_1():
    # (A - 1e300 I) A: entry (1, 1) is -inf + inf, the others are +-inf;
    # min_entry starts from entry (1, 1), and nan compares false
    A = [[1e10, 1e200], [1e200, 1.0]]
    coeffs = [0.0, -1e300, 1.0]
    C = horner(coeffs, A)
    assert math.isnan(C[0][0])
    assert not any(math.isnan(x) for row in C for x in row[1:])
    assert math.isnan(reference_min(coeffs, A))
    assert math.isnan(poly_min_entries(coeffs, [A])[0])


def test_batched_kernel_non_finite_corner_entry():
    # the generic Horner builds its identity from A[0][0] * 0 + 1
    A = [[math.inf, 1.0], [1.0, 1.0]]
    assert math.isnan(reference_min([1.0, 1.0], A))
    assert math.isnan(poly_min_entries([1.0, 1.0], [A])[0])



def test_batched_kernel_value_does_not_depend_on_the_stack():
    # the witness search puts the candidates of a whole block of starts in
    # one stack; each value must be bit for bit what the matrix gets alone
    rng = random.Random(1)
    special = [0.0, math.inf, math.nan, 1e200]
    for m in (1, 2, 3, 4):
        coeffs = [rng.uniform(-3, 3) for _ in range(5)] + [1e300]
        As = np.array([[[rng.choice(special) if rng.random() < 0.1 else rng.random() * 4
                         for _ in range(m)] for _ in range(m)]
                       for _ in range(9 * SEARCH_BLOCK + 1)])
        As[0, 0, :], As[1, -1, :] = math.inf, math.nan  # whole rows
        stacked = np.array(poly_min_entries(coeffs, As))
        alone = np.array([poly_min_entries(coeffs, A[None])[0] for A in As])
        assert np.isnan(stacked).any() and np.isinf(stacked).any()
        assert stacked.view(np.int64).tolist() == alone.view(np.int64).tolist()
