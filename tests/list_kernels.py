"""List-of-lists matrix kernels: the references the package kernels are
tested against.

Every function is generic over the scalar type (int, Fraction) and
written as the obvious definition, not for speed.  Every sum of products
is added left to right with reduce(add, map(mul, ...)), which on ints and
Fractions is exactly sum().  This module holds no tests; test modules
import it by name.
"""

from fractions import Fraction
from functools import reduce
from operator import add, mul

from nnpoly.linalg import order_of


def identity(n, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n = order_of(A)
    if order_of(B) != n:
        raise ValueError(f"order mismatch: {n} vs {order_of(B)}")
    Bt = list(zip(*B))
    return [[reduce(add, map(mul, row, col)) for col in Bt] for row in A]


def mat_pow(A, j):
    """A**j as j products, A**0 = identity of matching scalar type."""
    if j < 0:
        raise ValueError("exponent must be >= 0")
    result = identity(order_of(A), A[0][0] * 0 + 1)
    for _ in range(j):
        result = mat_mul(result, A)
    return result


def mat_scale(t, A):
    return [[t * x for x in row] for row in A]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def horner(coeffs, A):
    """sum_d coeffs[d] * A**d by Horner on mat_mul, so every sum of
    products is added left to right."""
    one = A[0][0] * 0 + 1
    I = identity(order_of(A), one)
    acc = mat_scale(coeffs[-1] * one, I)
    for c in reversed(coeffs[:-1]):
        acc = mat_add(mat_mul(acc, A), mat_scale(c * one, I))
    return acc


def min_entry(A):
    """Smallest entry with its first (row, col) location, 1-based."""
    order_of(A)
    best = None
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if best is None or x < best[0]:
                best = (x, i + 1, j + 1)
    return best


def cyclic_shift(n):
    """Permutation matrix of the n-cycle 1 -> 2 -> ... -> n -> 1."""
    P = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        P[i][(i + 1) % n] = Fraction(1)
    return P
