"""The integer kernel of exact evaluation against Fraction oracles.

The oracles are built on the list kernels of list_kernels.py: powers by
mat_pow from scratch for each j, its generic Horner, and the membership
and decomposition checks built on them.  They must agree exactly.  The
kernel reads entries, coefficients and scalars through linalg._scaled_ints,
which takes int, Fraction and numpy integers and refuses all else.
"""

import random
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpoly import paths as paths_module
from nnpoly.bracket import certified_cap, sample_pa_membership
from nnpoly.families import make_p_a, mu, safe_a_squared
from nnpoly.linalg import (
    _scaled_ints,
    exact_powers,
    is_nonneg,
    order_of,
    poly_eval_matrix,
    poly_numerator,
)
from nnpoly.paths import (
    build_certificate,
    enumerate_monomials,
    first_cycle,
    min_cycle_length,
    monomial_value,
    numeric_decomposition_check,
    phi,
    psi,
    verify_certificate_on_matrix,
)
from nnpoly.witness import WitnessReport, cycle_witness, family_witness, shift_witness
from list_kernels import horner, mat_add, mat_pow, mat_scale

F = Fraction


# -- oracles ---------------------------------------------------------------


def verify_oracle(n, a_sq, A):
    a_sq = Fraction(a_sq)
    S = mat_pow(A, 0)
    for j in range(1, 2 * n + 1):
        if j != n:
            S = [[s + x for s, x in zip(rs, rx)] for rs, rx in zip(S, mat_pow(A, j))]
    B = mat_pow(A, n)
    for rs, rb in zip(S, B):
        for s, b in zip(rs, rb):
            if s < 0 or s * s < a_sq * b * b:
                return False
    return True


def decomposition_oracle(n, a_sq, A):
    if order_of(A) != n or not is_nonneg(A):
        raise ValueError
    a_sq = Fraction(a_sq)
    # first pass, paths only: phi injective on each class, and nu(n,k) the
    # largest psi pre-image count, at most mu(n,k)
    classes = {}
    for m in enumerate_monomials(n, n):
        k = min_cycle_length(m)
        cyc = first_cycle(m, k)
        classes.setdefault(k, []).append((m, phi(m, cyc), psi(m, cyc)))
    nu = {}
    for k, triples in classes.items():
        if len({f for _, f, _ in triples}) != len(triples):
            return False
        nu[k] = max(Counter(g for _, _, g in triples).values())
        if nu[k] > mu(n, k):
            return False
    # second pass, on the matrix: identity, termwise AM-GM, covered sum
    covered = Fraction(0)
    for k, triples in classes.items():
        for m, f, g in triples:
            vm, vf, vg = (monomial_value(x, A) for x in (m, f, g))
            if vf * vg != vm * vm:
                return False
            lhs = Fraction(vg) / nu[k] + vf
            if lhs < 0 or lhs * lhs < a_sq * vm * vm:
                return False
            covered += lhs
    positive_part = sum(
        mat_pow(A, j)[0][1] for j in range(1, 2 * n + 1) if j != n
    )
    return covered <= positive_part


def tight_a_sq(n, A):
    """The largest a_sq that verify accepts: min of s^2/b^2 over entries."""
    S = [[F(0)] * len(A) for _ in A]
    for j in range(2 * n + 1):
        if j != n:
            S = mat_add(S, mat_pow(A, j))
    B = mat_pow(A, n)
    return min((s * s / (b * b) for rs, rb in zip(S, B) for s, b in zip(rs, rb) if b),
               default=None)


# -- strategies ------------------------------------------------------------

rational = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=0, max_value=3, max_denominator=10**6),
)
nonneg = st.one_of(
    st.integers(0, 12),
    st.fractions(min_value=0, max_value=6, max_denominator=12),
)


def matrices(entry, max_order=4):
    return st.integers(1, max_order).flatmap(
        lambda m: st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)
    )


# -- the powers kernel ---------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(matrices(rational), st.integers(0, 8))
def test_powers_are_scaled_mat_pow(A, top):
    D, powers = exact_powers(A, top)
    assert D == lcm(*(F(x).denominator for row in A for x in row))
    assert len(powers) == top + 1
    for j, P in enumerate(powers):
        assert all(type(x) is int for row in P for x in row)
        assert P.tolist() == mat_scale(D**j, mat_pow(A, j))


def test_powers_reject_negative_exponent():
    with pytest.raises(ValueError):
        exact_powers([[F(1)]], -1)


def numerators_oracle(p, A):
    """(D^top, sum_d p[d] D^top A^d) on mat_pow and mat_scale."""
    top = len(p) - 1
    D = lcm(*(F(x).denominator for row in A for x in row))
    N = [[0] * len(A) for _ in A]
    for d, c in enumerate(p):
        N = mat_add(N, mat_scale(c * D**top, mat_pow([[F(x) for x in row] for row in A], d)))
    return D**top, N


def assert_python_ints(arr):
    assert all(type(x) is int for x in np.asarray(arr, dtype=object).flat)


huge = st.one_of(st.integers(10**200 - 9, 10**200 + 9), st.integers(-10**200 - 9, -10**200 + 9))
coefficients = st.integers(0, 6).flatmap(lambda top: st.one_of(
    st.lists(st.integers(-9, 9), min_size=top + 1, max_size=top + 1),
    st.just([0] * (top + 1)),  # all zero
    st.integers(0, top).map(lambda d: [int(i == d) for i in range(top + 1)]),  # one term
))


@settings(max_examples=80, deadline=None)
@given(matrices(st.one_of(rational, huge)), coefficients)
def test_numerators_match_scaled_mat_pow(A, p):
    top = len(p) - 1
    D, P = exact_powers(A, top)
    assert_python_ints(P)
    for j in range(len(P)):
        assert P[j].tolist() == mat_scale(D**j, mat_pow(A, j))
    N = poly_numerator(p, D, P)
    assert_python_ints(N)
    assert (D**top, N.tolist()) == numerators_oracle(p, A)
    # on the slice P[:, r, c] it is entry (r, c) alone
    for r, c in np.ndindex(N.shape):
        entry = poly_numerator(p, D, P[:, r, c])
        assert entry.shape == () and type(entry.item()) is int and entry == N[r, c]


@pytest.mark.parametrize("p", [
    [5],  # top = 0: the constant times the identity
    [0],
    [0, 0, 0],
    [0, 0, 1],
    [np.int64(2), np.int64(-1)],
], ids=["top0", "top0_zero", "all_zero", "single_term", "np_int64_coeffs"])
@pytest.mark.parametrize("A", [
    [[F(-7, 3)]],
    [[10**200]],
    [[-10**200, F(1, 3)], [F(-2, 5), 10**200 + 1]],
    [[np.int64(-3), np.int64(2**62)], [np.int64(2**62), np.int64(0)]],
    np.array([[2**62, -1], [5, 2**62]], dtype=np.int64),
], ids=["order1", "order1_huge", "huge_negative", "np_int64_list", "np_int64_array"])
def test_numerators_edge_cases(p, A):
    D, P = exact_powers(A, len(p) - 1)
    assert type(D) is int
    assert_python_ints(P)
    N = poly_numerator(p, D, P)
    assert N.shape == (len(A), len(A))
    assert_python_ints(N)
    exact = [[int(x) if isinstance(x, np.integer) else x for x in row] for row in A]
    assert (D ** (len(p) - 1), N.tolist()) == numerators_oracle([int(c) for c in p], exact)


def test_numerators_refuse_ragged_or_fractional_coefficients():
    # one coefficient per power, and integers only
    D, P = exact_powers([[1, 2], [3, 4]], 2)
    for p in ([1, 0], [1, 0, 1, 0]):
        with pytest.raises(ValueError):
            poly_numerator(p, D, P)
        with pytest.raises(ValueError):
            poly_numerator(p, D, P[:, 0, 1])
    with pytest.raises(TypeError):
        poly_numerator([F(1, 2), 1, 0], D, P)


@pytest.mark.parametrize("top", [0, 1])
@pytest.mark.parametrize("A", [
    [[F(-7, 3)]],
    [[F(1, 2), 3], [F(-2, 5), 10**200]],
    [[np.int64(-3), np.int64(2**62)], [np.int64(2**62), np.int64(0)]],
    np.array([[2**62, -1], [5, 2**62]], dtype=np.int64),
], ids=["order1", "rational_huge", "np_int64_list", "np_int64_array"])
def test_powers_store_the_scaled_matrix(A, top):
    # P[1] is B = D * A itself, in Python ints, and top = 0 has no P[1]
    D, P = exact_powers(A, top)
    exact = [[F(int(x)) if isinstance(x, np.integer) else F(x) for x in row] for row in A]
    assert type(D) is int and D == lcm(*(x.denominator for row in exact for x in row))
    assert P.shape == (top + 1, len(A), len(A))
    assert_python_ints(P)
    assert P[0].tolist() == mat_pow(exact, 0)
    if top == 1:
        assert P[1].tolist() == mat_scale(D, exact)


# -- membership check ----------------------------------------------------------


def order_and_matrix(entry, max_order=4):
    """(n, an n x n matrix): p_a at order n is checked on matrices of order n."""
    return st.integers(1, max_order).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.lists(entry, min_size=n, max_size=n),
                                                 min_size=n, max_size=n)))


int64 = st.integers(-2**63, 2**63 - 1).map(np.int64)


@settings(max_examples=60, deadline=None)
@given(order_and_matrix(st.one_of(rational, huge, int64), max_order=6))
def test_p_a_numerator_matches_the_full_sum(nA):
    # R + B^n (R - 1 + B^n), R the sum below n, against every power up to
    # 2n; the powers stop at B^n, which forming S leaves as it was
    n, A = nA
    D, P, S = paths_module._p_a_numerator(n, A)
    D_ref, P_ref = exact_powers(A, 2 * n)
    assert D == D_ref and P.tolist() == P_ref[: n + 1].tolist()
    assert_python_ints(S)
    assert S.tolist() == poly_numerator([int(j != n) for j in range(2 * n + 1)], D, P_ref).tolist()


@settings(max_examples=80, deadline=None)
@given(order_and_matrix(nonneg, max_order=6), st.fractions(min_value=0, max_value=10, max_denominator=20))
def test_verify_matches_oracle(nA, a_sq):
    n, A = nA
    assert verify_certificate_on_matrix(n, a_sq, A) == verify_oracle(n, a_sq, A)


@settings(max_examples=60, deadline=None)
@given(order_and_matrix(st.one_of(rational, nonneg)))
def test_verify_at_the_boundary(nA):
    n, A = nA
    # at a_sq = min s^2/b^2 some entry has s^2 == a_sq * b^2 exactly
    a_sq = tight_a_sq(n, A)
    if a_sq is None:
        return
    assert verify_certificate_on_matrix(n, a_sq, A) == verify_oracle(n, a_sq, A)
    above = a_sq + F(1, 10**9)
    assert verify_certificate_on_matrix(n, above, A) == verify_oracle(n, above, A)


def test_sample_failures_fail_the_oracle():
    # at a^2 = 25 the check's False branch is taken, and the Fraction oracle
    # agrees on every matrix it rejects
    passes, failures = sample_pa_membership(4, F(25), 200, seed=0)
    assert (passes, len(failures)) == (195, 5)
    assert not any(verify_oracle(4, F(25), A) for A in failures)


def test_verify_boundary_examples():
    # diag(1/2, 0) at n = 2, entry (1,1): s = 1 + 1/2 + 1/8 + 1/16 = 27/16,
    # b = 1/4; the other entries hold at every a_sq
    A = [[F(1, 2), F(0)], [F(0), F(0)]]
    assert verify_certificate_on_matrix(2, F(729, 16), A)
    assert not verify_certificate_on_matrix(2, F(729, 16) + F(1, 10**12), A)
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(20):
            A = [[F(rng.randint(0, 16), 16) * F(2) ** rng.randint(-4, 4)
                  for _ in range(n)] for _ in range(n)]
            a_sq = tight_a_sq(n, A)
            assert verify_certificate_on_matrix(n, a_sq, A) and verify_oracle(n, a_sq, A)
            assert verify_certificate_on_matrix(n, safe_a_squared(n), A)
            assert not verify_certificate_on_matrix(n, 2 * a_sq, A)
            assert not verify_oracle(n, 2 * a_sq, A)


# -- decomposition check -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decomposition_matches_oracle(data):
    n = data.draw(st.integers(2, 4))
    A = [[F(data.draw(st.integers(0, 12)), data.draw(st.integers(1, 4)))
          for _ in range(n)] for _ in range(n)]
    a_sq = data.draw(st.sampled_from(
        [safe_a_squared(n), certified_cap(n)[0], F(1, 7), F(50)]))
    assert numeric_decomposition_check(n, a_sq, A) == decomposition_oracle(n, a_sq, A)


def test_decomposition_values_paths_on_int_matrix(monkeypatch):
    # every path is valued on the integer matrix B = D*A, never on Fractions:
    # each product the check takes is over ints, and it multiplies fewer
    # Fractions than there are paths
    n = 5
    A = [[F(i + 1, j + 2) for j in range(n)] for i in range(n)]
    a_sq = certified_cap(n)[0]
    assert numeric_decomposition_check(n, a_sq, A)  # warms the census cache
    factors, fraction_mults = [], []
    edge_values = paths_module._edge_values

    def spy_edge_values(edge, path):
        values = edge_values(edge, path)
        factors.extend(values.ravel().tolist())
        return values

    def counted(op):
        def wrapper(a, b):
            fraction_mults.append(op)
            return op(a, b)
        return wrapper

    monkeypatch.setattr(paths_module, "_edge_values", spy_edge_values)
    monkeypatch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
    assert numeric_decomposition_check(n, a_sq, A)
    # no entry of A is 0, so no path is skipped: each edge of m once per
    # path, valued on B and split between psi(m) and its first minimal cycle
    assert len(factors) == n ** n
    assert all(type(x) is int for x in factors)
    assert len(fraction_mults) < n ** (n - 1)


def test_decomposition_positive_part_is_tight():
    # with the single edge 1 -> 2 the covered sum at n = 2 is y/2 + y/2,
    # exactly the positive part (A^1)_{1,2} = y, so any shortfall fails
    for y in (F(3, 7), F(1), F(12)):
        A = [[F(0), y], [F(0), F(0)]]
        assert numeric_decomposition_check(2, F(2), A)
        assert decomposition_oracle(2, F(2), A)


def test_decomposition_exact_on_huge_int_matrix():
    # int entries stay exact: 10**200 overflows a float
    A = [[10**200] * 2 for _ in range(2)]
    assert numeric_decomposition_check(2, 2, A)
    assert decomposition_oracle(2, 2, [[F(x) for x in row] for row in A])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_decomposition_int_matrix_matches_oracle(data):
    n = data.draw(st.integers(2, 3))
    entry = st.one_of(st.integers(0, 12), st.integers(10**30, 10**40))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    a_sq = data.draw(st.sampled_from([safe_a_squared(n), F(1, 7), F(50), 2]))
    exact = [[F(x) for x in row] for row in A]
    assert numeric_decomposition_check(n, a_sq, A) == decomposition_oracle(n, a_sq, exact)


# -- the input contract of exact evaluation ------------------------------------


@pytest.mark.parametrize(
    "entry",
    [0.5, 1.0, np.float64(0.5), np.float32(2), 1 + 0j, True, np.bool_(True),
     Decimal("0.5"), Decimal(3)],
    ids=["float", "integral_float", "np_float64", "np_float32", "complex", "bool", "np_bool",
         "decimal", "integral_decimal"])
def test_exact_entry_points_refuse_inexact_entries(entry):
    # the decomposition check reads A through exact_powers before it tests
    # the signs, so a complex entry is refused, not compared
    A = [[entry, F(1)], [F(1), F(0)]]
    with pytest.raises(ValueError, match="exact evaluation"):
        verify_certificate_on_matrix(2, 2, A)
    with pytest.raises(ValueError, match="exact evaluation"):
        poly_eval_matrix([F(1), F(-2), F(1, 3)], A)
    with pytest.raises(ValueError, match="exact evaluation"):
        numeric_decomposition_check(2, 2, A)


@pytest.mark.parametrize(
    "value",
    [0.1, 1.0, np.float64(0.5), 1 + 0j, True, np.bool_(True), "1/3", None,
     Decimal("0.5"), Decimal(3)],
    ids=["float", "integral_float", "np_float64", "complex", "bool", "np_bool", "str", "none",
         "decimal", "integral_decimal"])
def test_exact_scalars_refuse_inexact_values(value):
    # a_sq, a, t and falsify's coefficients go through the same door as entries
    A = [[F(1), F(2)], [F(3), F(0)]]
    calls = [
        lambda: verify_certificate_on_matrix(2, value, A),
        lambda: numeric_decomposition_check(2, value, A),
        lambda: build_certificate(3, value),
        lambda: sample_pa_membership(2, value, 0),  # read before any draw
        lambda: sample_pa_membership(2, value, 3),
        lambda: cycle_witness(2, value),
        lambda: cycle_witness(2, F(1), value),
        lambda: family_witness([F(-1), value, F(1)], 2),
        lambda: family_witness([F(1), value, F(1)], 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exact evaluation"):
            call()


class SubFraction(Fraction):
    """A Fraction subclass: the door reads it by .numerator and .denominator."""


@pytest.mark.parametrize(
    "value, D, p",
    [(np.uint64(2**64 - 1), 1, 2**64 - 1), (np.int8(-7), 1, -7), (SubFraction(-3, 4), 4, -3)],
    ids=["np_uint64_max", "np_int8", "fraction_subclass"])
def test_exact_door_reads_values_as_python_ints(value, D, p):
    # value = p/D, alone and beside other values, with no numpy scalar left
    L = lcm(D, 10)
    assert _scaled_ints([value]) == (D, [p])
    assert _scaled_ints([value, F(1, 10), 3]) == (L, [p * (L // D), L // 10, 3 * L])
    for xs in ([value], [value, F(1, 10), 3]):
        scale, ints = _scaled_ints(xs)
        assert all(type(x) is int for x in [scale, *ints])


def test_poly_eval_refuses_float_coefficients():
    A = [[F(1, 2), F(1)], [F(3), F(0)]]
    for coeffs in ([0.3, -1.7, 0.9], [F(1), 2.0], [np.float64(1)], [1, True], [np.bool_(True)]):
        with pytest.raises(ValueError, match="exact evaluation"):
            poly_eval_matrix(coeffs, A)


def test_numpy_integers_evaluate_as_python_ints():
    # powers of 10**4 pass 2**63 from B^5 on, where np.int64 would wrap
    big = [[10**4] * 4 for _ in range(4)]
    for A in ([[np.int64(x) for x in row] for row in big], np.array(big, dtype=np.int64)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_certificate_on_matrix(4, F(1, 3), A)
            assert numeric_decomposition_check(4, F(1, 3), A)
            C = poly_eval_matrix([np.int64(1)] * 9, A)
        assert C == poly_eval_matrix([1] * 9, big)
        assert all(type(x) is Fraction for row in C for x in row)
    assert verify_certificate_on_matrix(4, F(1, 3), big)
    assert numeric_decomposition_check(4, F(1, 3), big)
    # a_sq is read the same way
    A = [[10**10] * 2 for _ in range(2)]
    assert verify_certificate_on_matrix(2, np.int64(2), A)
    assert numeric_decomposition_check(2, np.int64(2), A)
    # and so are the other exact scalars
    assert build_certificate(3, np.int64(1)) == build_certificate(3, 1)
    assert sample_pa_membership(2, np.int64(2), 20) == sample_pa_membership(2, 2, 20)
    for coeffs in ([-1, 0, 1], [1, -3, 1]):
        int64s = [np.int64(c) for c in coeffs]
        assert family_witness(int64s, 2).to_json() == family_witness(coeffs, 2).to_json()
    # -a * t**4 = -2 * 10**24 would wrap in np.int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cycle_witness(4, np.int64(2), np.int64(10**6))
    assert rep.to_json() == cycle_witness(4, 2, 10**6).to_json()
    assert rep.value == -2 * 10**24 and rep.reverify()


def numpy_fraction(x):
    """x as Fraction(np.int64(p), np.int64(q)), which keeps its parts as
    numpy ints: its as_integer_ratio() returns np.int64 parts."""
    f = F(np.int64(x.numerator), np.int64(x.denominator))
    assert type(f.as_integer_ratio()[0]) is np.int64  # the case under test
    return f


def kernel_results(coeffs, A, a_sqs):
    """p(A), then the membership and decomposition verdicts at each a_sq, at n = 4."""
    checks = (verify_certificate_on_matrix, numeric_decomposition_check)
    return [poly_eval_matrix(coeffs, A), *(check(4, a_sq, A) for a_sq in a_sqs for check in checks)]


def test_fractions_of_numpy_integers_evaluate_as_python_ints():
    # numerators and denominators near 10**4: their lcm D and the scaled
    # entries of B pass 2**63, where np.int64 parts would wrap
    rng = random.Random(33)
    a_sqs = [F(1, 3), F(4, 7), F(10**6)]
    for _ in range(3):
        exact = [[F(rng.randint(9000, 11000), rng.randint(9000, 11000)) for _ in range(4)]
                 for _ in range(4)]
        coeffs = [F(rng.randint(-10**4, 10**4), rng.randint(1, 30)) for _ in range(9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_results([numpy_fraction(c) for c in coeffs],
                                 [[numpy_fraction(x) for x in row] for row in exact],
                                 [numpy_fraction(a_sq) for a_sq in a_sqs])
        want = kernel_results(coeffs, exact, a_sqs)
        assert got == want
        assert want[1::2] == [True, True, False]  # the membership verdicts


def test_family_witness_reads_fractions_of_numpy_integers_as_python_ints():
    rng = random.Random(33)
    found = 0
    for m in (2, 3, 4) * 4:
        coeffs = [F(rng.randint(-10**4, 10**4), rng.randint(1, 30)) for _ in range(9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = family_witness([numpy_fraction(c) for c in coeffs], m)
        want = family_witness(coeffs, m)
        assert (rep is None) == (want is None)
        if rep is not None:
            found += 1
            assert rep.to_json() == want.to_json() and rep.reverify()
    assert found  # the hits are evaluated exactly, on np.int64 coefficients


def test_exact_entry_points_return_python_types():
    # the benchmark oracle checks `out is True`: an np.bool_ would fail it
    A = [[F(1, 2), 3], [0, F(2, 7)]]
    for a_sq in (safe_a_squared(2), F(10**6)):
        assert type(verify_certificate_on_matrix(2, a_sq, A)) is bool
        assert type(numeric_decomposition_check(2, a_sq, A)) is bool
    assert verify_certificate_on_matrix(2, safe_a_squared(2), A) is True
    assert verify_certificate_on_matrix(2, F(10**6), A) is False
    assert numeric_decomposition_check(2, F(10**6), A) is False
    big = np.array([[10**4] * 4] * 4, dtype=np.int64)
    assert verify_certificate_on_matrix(4, F(1, 3), big) is True
    assert numeric_decomposition_check(4, F(1, 3), big) is True
    C = poly_eval_matrix([F(1, 3), -2, np.int64(1)], big)
    assert type(C) is list and all(type(row) is list for row in C)
    assert all(type(x) is Fraction for row in C for x in row)


@pytest.mark.parametrize("a_sq", [-5, F(-1, 3), np.int64(-2)])
def test_exact_checks_refuse_negative_a_sq(a_sq):
    # a negative p would make s^2 q >= p b^2 hold however negative b is;
    # a = 0 is real and stays valid
    A = [[1, 2], [3, 0]]
    with pytest.raises(ValueError, match="a_sq must be >= 0"):
        verify_certificate_on_matrix(2, a_sq, A)
    with pytest.raises(ValueError, match="a_sq must be >= 0"):
        numeric_decomposition_check(2, a_sq, A)
    assert verify_certificate_on_matrix(2, 0, A)
    assert numeric_decomposition_check(2, 0, A)
    # a certificate needs a > 0
    for cap in (a_sq, 0):
        with pytest.raises(ValueError, match="a_sq must be positive"):
            build_certificate(2, cap)


# -- polynomial evaluation and the witnesses it checks ---------------------------

coefficient = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(coefficient, min_size=1, max_size=9),
       matrices(st.one_of(rational, st.integers(-10**20, 10**20))))
def test_poly_eval_matches_horner(coeffs, A):
    C = poly_eval_matrix(coeffs, A)
    assert all(type(x) is Fraction for row in C for x in row)
    assert C == horner(coeffs, A)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7),
       matrices(st.integers(-9, 9)))
def test_poly_eval_int_matrix_matches_horner(coeffs, A):
    assert poly_eval_matrix(coeffs, A) == horner(coeffs, A)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4),
       st.fractions(min_value=F(1, 30), max_value=5, max_denominator=30),
       st.fractions(min_value=F(1, 30), max_value=5, max_denominator=30))
def test_cycle_witness_value(n, a, t):
    rep = cycle_witness(n, a, t)
    assert rep.value == -a * t**n
    assert horner(rep.poly, rep.matrix)[0][n] == rep.value
    assert rep.reverify()


def tampered(rep):
    """Copies of rep with one field changed so that it no longer holds."""
    matrix = [row[:] for row in rep.matrix]
    matrix[0][0] += 1
    poly = [-c for c in rep.poly]
    negative = [row[:] for row in rep.matrix]
    negative[-1][-1] = F(-1)
    ragged = [row[:] for row in rep.matrix]
    ragged[-1].pop()
    # exact evaluation refuses floats and booleans, even of the same value
    inexact = [row[:] for row in rep.matrix]
    inexact[0][0] = float(inexact[0][0])
    boolean = [row[:] for row in rep.matrix]
    boolean[0][0] = True
    # non-numeric entries are refused, not compared with 0
    missing = [row[:] for row in rep.matrix]
    missing[0][0] = None
    r, c = rep.entry
    changes = [dict(value=rep.value - F(1, 3)), dict(matrix=matrix), dict(poly=poly),
               dict(matrix=negative), dict(m=rep.m + 1), dict(matrix=ragged),
               dict(entry=(float(r), c)), dict(matrix=inexact), dict(matrix=boolean),
               dict(poly=[float(c) for c in rep.poly]), dict(poly=[]),
               dict(matrix=rep.to_json()["matrix"]), dict(matrix=missing),
               # fields of the wrong type are refused before any comparison
               dict(m=str(rep.m)), dict(m=None), dict(entry=None), dict(matrix=None)]
    if rep.m > 1:
        changes.append(dict(entry=(r % rep.m + 1, c)))
    # entries outside 1..m; 0 would wrap to the last row or column
    changes += [dict(entry=e) for e in
                [(0, 0), (0, c), (r, 0), (rep.m + 1, c), (r, rep.m + 1), (-1, c)]]
    return [WitnessReport(**{**vars(rep), **change}) for change in changes]


@pytest.mark.parametrize("rep", [
    cycle_witness(2, F(1)),
    cycle_witness(3, F(2, 3), F(3, 2)),
    family_witness([F(-1), F(0), F(1)], 1),
    family_witness(make_p_a(2, F(3)), 2),
    # every diagonal entry of p_a(P) is 2 - a, so a wrapped (0, 0) would pass
    shift_witness(make_p_a(3, F(5, 2)), 3, F(1), (1, 1), F(-1, 2)),
], ids=["cycle_n2", "cycle_n3", "jordan_x2_minus_1", "jordan_p_a", "shift_p_a"])
def test_reverify_accepts_witnesses_and_rejects_tampering(rep):
    assert rep is not None and rep.reverify()
    C = horner(rep.poly, rep.matrix)
    assert C[rep.entry[0] - 1][rep.entry[1] - 1] == rep.value < 0
    for bad in tampered(rep):
        assert not bad.reverify()
