"""The integer kernel of exact evaluation against Fraction oracles.

The oracles are the Fraction list-of-lists implementations that the kernel
replaced: powers by mat_pow from scratch for each j, and the membership and
decomposition checks built on them.  They must agree exactly.
"""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpoly.families import mu, safe_a_squared
from nnpoly.linalg import (
    exact_powers,
    is_nonneg,
    mat_add,
    mat_mul,
    mat_pow,
    mat_scale,
    order_of,
)
from nnpoly.paths import (
    enumerate_monomials,
    first_cycle,
    min_cycle_length,
    monomial_value,
    numeric_decomposition_check,
    phi,
    psi,
    verify_certificate_on_matrix,
)

F = Fraction


# -- oracles ---------------------------------------------------------------


def mat_mul_oracle(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


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
    stats = {}
    for m in enumerate_monomials(n, n):
        k = min_cycle_length(m)
        cyc = first_cycle(m, k)
        f, g = phi(m, cyc), psi(m, cyc)
        vm, vf, vg = (monomial_value(x, A) for x in (m, f, g))
        if vf * vg != vm * vm:
            return False
        lhs = vg / mu(n, k) + vf
        if lhs < 0 or lhs * lhs < a_sq * vm * vm:
            return False
        if k not in stats:
            stats[k] = [Fraction(0), set(), Counter()]
        entry = stats[k]
        entry[0] += lhs
        if f in entry[1]:
            return False
        entry[1].add(f)
        entry[2][g] += 1
    covered = Fraction(0)
    for k, (lhs_sum, _, psis) in stats.items():
        if max(psis.values()) > mu(n, k):
            return False
        covered += lhs_sum
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
        assert P == mat_scale(D**j, mat_pow(A, j))


def test_powers_reject_negative_exponent():
    with pytest.raises(ValueError):
        exact_powers([[F(1)]], -1)


# -- the product it is built on -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(*[st.lists(st.lists(st.floats(-8, 8), min_size=m, max_size=m),
                                   min_size=m, max_size=m)] * 2)))
def test_float_mat_mul_rounding_is_unchanged(AB):
    # same additions in the same order: the float search, and so every
    # bracket, depends on this rounding
    A, B = AB
    assert mat_mul(A, B) == mat_mul_oracle(A, B)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(*[st.lists(st.lists(rational, min_size=m, max_size=m),
                                   min_size=m, max_size=m)] * 2)))
def test_exact_mat_mul_matches_oracle(AB):
    A, B = AB
    assert mat_mul(A, B) == mat_mul_oracle(A, B)


# -- membership check ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), matrices(nonneg, max_order=3),
       st.fractions(min_value=0, max_value=10, max_denominator=20))
def test_verify_matches_oracle(n, A, a_sq):
    assert verify_certificate_on_matrix(n, a_sq, A) == verify_oracle(n, a_sq, A)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), matrices(st.one_of(rational, nonneg), max_order=3))
def test_verify_at_the_boundary(n, A):
    # at a_sq = min s^2/b^2 some entry has s^2 == a_sq * b^2 exactly
    a_sq = tight_a_sq(n, A)
    if a_sq is None:
        return
    assert verify_certificate_on_matrix(n, a_sq, A) == verify_oracle(n, a_sq, A)
    above = a_sq + F(1, 10**9)
    assert verify_certificate_on_matrix(n, above, A) == verify_oracle(n, above, A)


def test_verify_boundary_examples():
    # [[1/2]] at n = 2: s = 1 + 1/2 + 1/8 + 1/16 = 27/16, b = 1/4
    A = [[F(1, 2)]]
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
    n = data.draw(st.integers(2, 3))
    A = [[F(data.draw(st.integers(0, 12)), data.draw(st.integers(1, 4)))
          for _ in range(n)] for _ in range(n)]
    a_sq = data.draw(st.sampled_from([safe_a_squared(n), F(1, 7), F(50)]))
    assert numeric_decomposition_check(n, a_sq, A) == decomposition_oracle(n, a_sq, A)


def test_decomposition_positive_part_is_tight():
    # with the single edge 1 -> 2 the covered sum at n = 2 is y/2 + y/2,
    # exactly the positive part (A^1)_{1,2} = y, so any shortfall fails
    for y in (F(3, 7), F(1), F(12)):
        A = [[F(0), y], [F(0), F(0)]]
        assert numeric_decomposition_check(2, F(2), A)
        assert decomposition_oracle(2, F(2), A)
