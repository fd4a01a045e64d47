"""Dense matrices and univariate polynomials over a generic scalar.

Matrices are plain lists of row lists; the scalar type is whatever the
entries carry (Fraction for exact work, float inside search loops).  All
certification verdicts elsewhere in the package must be computed on
Fraction matrices; floats are for exploration only.

exact_powers is the exact kernel: it writes a rational matrix as A = B/D,
with D the lcm of its entry denominators and B an int matrix, and builds
the powers of B on Python integers, so no product or sum normalises a
Fraction.  mat_mul and mat_pow stay generic and serve as the reference.

Rows and columns are reported 1-based to match the usual vertex labels;
storage is 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Matrix = list  # list[list[scalar]]


def order_of(A) -> int:
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("matrix must be square and non-empty")
    return n


def identity(n, one=Fraction(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n = order_of(A)
    if order_of(B) != n:
        raise ValueError(f"order mismatch: {n} vs {order_of(B)}")
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_pow(A, j):
    """A**j by repeated squaring, A**0 = identity of matching scalar type."""
    if j < 0:
        raise ValueError("exponent must be >= 0")
    n = order_of(A)
    one = A[0][0] * 0 + 1
    result = identity(n, one)
    base = A
    while j:
        if j & 1:
            result = mat_mul(result, base)
        j >>= 1
        if j:
            base = mat_mul(base, base)
    return result


def exact_powers(A, top):
    """(D, [B^0, ..., B^top]) with A = B/D, so A^j = B^j / D^j.

    A holds int or Fraction entries and D is the lcm of their denominators;
    each power is one integer mat_mul of the previous one with B.
    """
    if top < 0:
        raise ValueError("exponent must be >= 0")
    n = order_of(A)
    D = lcm(*(x.denominator for row in A for x in row))
    B = [[x.numerator * (D // x.denominator) for x in row] for row in A]
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(top):
        powers.append(mat_mul(powers[-1], B))
    return D, powers


def mat_scale(t, A):
    return [[t * x for x in row] for row in A]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def is_nonneg(A) -> bool:
    return all(x >= 0 for row in A for x in row)


def min_entry(A):
    """Smallest entry with its first (row, col) location, 1-based."""
    order_of(A)
    best = None
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if best is None or x < best[0]:
                best = (x, i + 1, j + 1)
    return best


# -- polynomials -------------------------------------------------------------
# A polynomial is a coefficient list, constant term first.


def poly_eval(coeffs, x):
    """Horner on a scalar (works for Fraction, float, complex)."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_matrix(coeffs, A):
    """Horner on a matrix: sum_d coeffs[d] * A**d."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    n = order_of(A)
    one = A[0][0] * 0 + 1
    I = identity(n, one)
    acc = mat_scale(coeffs[-1] * one, I)
    for c in reversed(coeffs[:-1]):
        acc = mat_add(mat_mul(acc, A), mat_scale(c * one, I))
    return acc


def cyclic_shift(n, one=Fraction(1)):
    """Permutation matrix of the n-cycle 1 -> 2 -> ... -> n -> 1."""
    zero = one - one
    P = [[zero] * n for _ in range(n)]
    for i in range(n):
        P[i][(i + 1) % n] = one
    return P


# -- text formats ------------------------------------------------------------


def parse_scalar(tok: str) -> Fraction:
    return Fraction(tok.strip())


def format_scalar(x) -> str:
    return str(Fraction(x))


def parse_matrix_csv(text: str, exact: bool = True):
    rows = []
    for line in text.strip().splitlines():
        toks = line.split(",")
        if exact:
            rows.append([Fraction(t.strip()) for t in toks])
        else:
            rows.append([float(Fraction(t.strip())) for t in toks])
    order_of(rows)
    return rows


def format_matrix_csv(A) -> str:
    return "\n".join(",".join(format_scalar(x) for x in row) for row in A) + "\n"


def parse_poly(text: str):
    """Comma-separated coefficients, constant term first."""
    coeffs = [Fraction(t.strip()) for t in text.split(",")]
    if not coeffs:
        raise ValueError("empty coefficient list")
    return coeffs
