"""Exact and float evaluation of matrix polynomials, and their text formats.

Matrices come in as lists of row lists, or numpy integer arrays on the
exact side.  Certification verdicts are computed exactly; floats are for
exploration only.  There is one kernel per arithmetic and no generic one:

- exact: exact_powers writes a rational matrix as A = B/D, with D the lcm
  of its entry denominators and B an int matrix, and builds the powers of B
  in a numpy object array of Python ints, one .dot per power;
  poly_numerators turns them into numerators with one more .dot.  Numpy's
  object loop calls the ints' own * and +, so the arithmetic is exact at
  any size; numpy only runs the loops.  exact_powers is the one door into
  exact evaluation: it reads int, Fraction and numpy integer entries as
  Python ints and refuses floats and booleans.  poly_numerators,
  poly_eval_ratio, poly_eval_matrix and the checks in paths read it.
- float: poly_min_entries is a batched numpy Horner of left-to-right sums
  over an (m, m, batch) copy of a stack of matrices, batch axis last, so it
  gives the same floats on every Python.

The list-of-lists products, powers, Horner and min_entry that the tests
pin both kernels to are references, kept in tests/list_kernels.py.  Rows
and columns are reported 1-based; storage is 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

import numpy as np


def order_of(A) -> int:
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("matrix must be square and non-empty")
    return n


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


def is_nonneg(A) -> bool:
    return all(x >= 0 for row in A for x in row)


# -- polynomials -------------------------------------------------------------
# A polynomial is a coefficient list, constant term first.


def poly_eval(coeffs, x):
    """Horner on a scalar (works for Fraction, float, complex)."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_ratio(coeffs, A):
    """(den, N) with sum_d coeffs[d] * A**d = N / den exactly, den > 0 an int
    and N an (n, n) numpy object array of Python ints.

    Coefficients and entries are int, Fraction or numpy integers; floats
    raise ValueError (poly_min_entries is the float kernel).  With L the lcm
    of the coefficient denominators, den = L D^top and N comes from
    poly_numerators of the integer coefficients L*coeffs[d].
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    L, (ints,) = _scaled_ints([coeffs])
    den, (N,) = poly_numerators([ints], A)
    return den * L, N


def poly_eval_matrix(coeffs, A):
    """sum_d coeffs[d] * A**d, exactly, as a matrix of Fractions: the
    entries N / den of poly_eval_ratio."""
    den, N = poly_eval_ratio(coeffs, A)
    return [[Fraction(x, den) for x in row] for row in N.tolist()]


def poly_min_entries(coeffs, As):
    """The smallest entry of p(A) for each A in As, batched, with p the
    float coefficients.

    As is a (batch, m, m) stack of float matrices.  The Horner runs on a
    contiguous (m, m, batch) copy X of the stack, so every elementwise
    operation sweeps the batch axis in one contiguous loop.  Each product is
    accumulated as a left-to-right sum over k of
    acc[:, k, None] * X[None, k], into one buffer through one temporary, and
    c is added through a strided view of the diagonal only, so every entry
    of every matrix goes through the same IEEE operations as the
    left-to-right generic Horner `horner` in tests/list_kernels.py on that
    matrix (no matmul, einsum or BLAS, which may reorder or fuse the sums).
    Like that file's min_entry, which scans from entry (1, 1) with `<`, a
    matrix whose entry (1, 1) of p(A) is nan gets nan; otherwise nan
    entries are skipped.  Like that Horner, whose identity is built from
    A[0][0] * 0 + 1, a matrix with A[0][0] inf or nan gets nan.  Overflow
    to inf or nan is expected and silent.
    """
    As = np.asarray(As, dtype=np.float64)
    batch, m = As.shape[0], As.shape[2]
    X = np.ascontiguousarray(As.transpose(1, 2, 0))  # X[k, j, b] = A[b, k, j]
    acc = np.zeros_like(X)
    acc.reshape(m * m, batch)[:: m + 1] = coeffs[-1]
    prod, term = np.empty_like(X), np.empty_like(X)
    with np.errstate(all="ignore"):
        for c in reversed(coeffs[:-1]):
            np.multiply(acc[:, 0, None], X[None, 0], out=prod)
            for k in range(1, m):
                prod += np.multiply(acc[:, k, None], X[None, k], out=term)
            prod.reshape(m * m, batch)[:: m + 1] += c
            acc, prod = prod, acc
        mins = np.fmin.reduce(acc.reshape(m * m, batch), axis=0)
    mins[np.isnan(acc[0, 0]) | ~np.isfinite(X[0, 0])] = np.nan
    return mins.tolist()


# -- text formats ------------------------------------------------------------


def format_scalar(x) -> str:
    return str(Fraction(x))


def parse_matrix_csv(text: str):
    rows = [[Fraction(t.strip()) for t in line.split(",")]
            for line in text.strip().splitlines()]
    order_of(rows)
    return rows


def parse_poly(text: str):
    """Comma-separated coefficients, constant term first."""
    coeffs = [Fraction(t.strip()) for t in text.split(",")]
    if not coeffs:
        raise ValueError("empty coefficient list")
    return coeffs
