"""Dense matrices and univariate polynomials.

Matrices are plain lists of row lists.  Certification verdicts are computed
exactly; floats are for exploration only.  There is one kernel per
arithmetic:

- exact: exact_powers writes a rational matrix as A = B/D, with D the lcm
  of its entry denominators and B an int matrix, and builds the powers of B
  in a numpy object array of Python ints, one .dot per power;
  poly_numerators turns them into numerators with one more .dot.  Numpy's
  object loop calls the ints' own * and +, so the arithmetic is exact at
  any size; numpy only runs the loops.  exact_powers is the one door into
  exact evaluation: it reads int, Fraction and numpy integer entries as
  Python ints and refuses floats and booleans.  poly_numerators,
  poly_eval_matrix and the checks in paths read it.
- float: poly_min_entries is a batched numpy Horner over a (batch, m, m)
  stack of left-to-right sums, so it gives the same floats on every Python.

identity, mat_mul, mat_pow, mat_add, mat_scale and min_entry stay generic
over the scalar type: the tests build each kernel's reference from them.
Rows and columns are reported 1-based; storage is 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index, mul

import numpy as np


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


_EXACT_ONLY = "exact evaluation takes only int or Fraction values"


def _scaled_ints(rows):
    """(D, rows * D) in Python ints, D the lcm of the denominators.  Numpy
    integers are read as Python ints; floats and booleans raise ValueError."""
    if any(type(x) is bool for row in rows for x in row):  # np.bool_ fails below
        raise ValueError(_EXACT_ONLY)
    try:
        ratios = [[(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    except AttributeError:
        raise ValueError(_EXACT_ONLY) from None
    D = lcm(*(d for row in ratios for _, d in row))
    return D, [[p * (D // d) for p, d in row] for row in ratios]


def exact_powers(A, top):
    """(D, P) with A = B/D and P[j] = B^j, so A^j = P[j] / D^j.

    A holds int, Fraction or numpy integer entries and D is the lcm of their
    denominators.  P is a (top+1, n, n) numpy object array of Python ints;
    each power is one P[j].dot(B).  Numpy's object loop calls the ints' own
    * and +, so the products are exact at any size and no numpy scalar
    enters them.
    """
    if top < 0:
        raise ValueError("exponent must be >= 0")
    n = order_of(A)
    D, B = _scaled_ints(A)
    B = np.array(B, dtype=object)
    P = np.empty((top + 1, n, n), dtype=object)
    P[0] = np.identity(n, dtype=object)
    for j in range(top):
        P[j + 1] = P[j].dot(B)
    return D, P


def poly_numerators(polys, A):
    """(D^top, N) with p(A) = N[i] / D^top for p = polys[i], for integer
    coefficient lists of one length top + 1, from one exact_powers pass.

    N[i] = sum_d p[d] D^(top-d) B^d for A = B/D, so N is one product of the
    object weight matrix W[i][d] = polys[i][d] D^(top-d) with the powers
    read as a (top+1, n*n) matrix: a (len(polys), n, n) object array of
    Python ints, exact like exact_powers.
    """
    top = len(polys[0]) - 1
    D, P = exact_powers(A, top)
    scale = [D ** (top - d) for d in range(top + 1)]
    W = np.array([[index(c) * s for c, s in zip(p, scale, strict=True)] for p in polys],
                 dtype=object)
    n = P.shape[1]
    return D**top, W.dot(P.reshape(top + 1, n * n)).reshape(len(polys), n, n)


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
    """sum_d coeffs[d] * A**d, exactly, as a matrix of Fractions.

    Coefficients and entries are int, Fraction or numpy integers; floats
    raise ValueError (poly_min_entries is the float kernel).  With L the lcm
    of the coefficient denominators this is N / (L D^top), N from
    poly_numerators of the integer coefficients L*coeffs[d].
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    L, (ints,) = _scaled_ints([coeffs])
    den, (N,) = poly_numerators([ints], A)
    den *= L
    return [[Fraction(x, den) for x in row] for row in N.tolist()]


def poly_min_entries(coeffs, As):
    """min_entry(p(A))[0] for each A in As, batched, with p the coefficients.

    As is a (batch, m, m) stack of float matrices and coeffs are floats.
    Each product is accumulated as a left-to-right sum over k of
    acc[:, :, k] * A[:, k, :], and c is added on the diagonal only, so every
    entry goes through the same IEEE operations as the left-to-right generic
    Horner reference_horner in tests/test_linalg.py (no matmul, einsum or
    BLAS, which may reorder or fuse the sums).  Like min_entry, a matrix
    whose entry (1, 1) of p(A) is nan gets nan; otherwise nan entries are
    skipped.  Like that Horner, whose identity is built from
    A[0][0] * 0 + 1, a matrix with A[0][0] inf or nan gets nan.  Overflow
    to inf or nan is expected and silent.
    """
    As = np.asarray(As, dtype=np.float64)
    batch, m = As.shape[0], As.shape[2]
    diag = np.arange(m)
    rows = [As[:, None, k, :] for k in range(m)]  # rows[k][b, 0, j] = A[b, k, j]
    with np.errstate(all="ignore"):
        acc = np.zeros_like(As)
        acc[:, diag, diag] = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            cols = acc.transpose(2, 0, 1)[..., None]  # cols[k][b, i, 0] = acc[b, i, k]
            prod = cols[0] * rows[0]
            for k in range(1, m):
                prod += cols[k] * rows[k]
            prod[:, diag, diag] += c
            acc = prod
        mins = np.fmin.reduce(acc.reshape(batch, m * m), axis=1)
    mins[np.isnan(acc[:, 0, 0]) | ~np.isfinite(As[:, 0, 0])] = np.nan
    return mins.tolist()


def cyclic_shift(n):
    """Permutation matrix of the n-cycle 1 -> 2 -> ... -> n -> 1."""
    P = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        P[i][(i + 1) % n] = Fraction(1)
    return P


# -- text formats ------------------------------------------------------------


def format_scalar(x) -> str:
    return str(Fraction(x))


def parse_matrix_csv(text: str):
    rows = [[Fraction(t.strip()) for t in line.split(",")]
            for line in text.strip().splitlines()]
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
