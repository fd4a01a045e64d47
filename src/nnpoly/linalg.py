"""Exact evaluation of matrix polynomials, and their text formats.

Matrices come in as lists of row lists or numpy integer arrays.  Every
matrix evaluation in the package is exact, on one kernel.  exact_powers
writes a rational matrix as A = B/D, with D the lcm of its entry
denominators and B an int matrix, and builds B^0..B^top in a numpy object
array of Python ints, one .dot per power past B, written into its slot;
poly_numerator turns them into the numerator of p(A) with one more .dot.
Numpy's object loop calls the ints' own * and +, so the arithmetic is
exact at any size.  _scaled_ints is the one door into exact evaluation,
for entries, coefficients and the scalars a_sq, a and t alike: it reads
int, Fraction and numpy integers as Python ints and refuses all else; an
exact Fraction is read by one as_integer_ratio() call, anything else by
.numerator and .denominator, and int() of each part leaves no numpy
scalar.  poly_eval_ratio reads B^0..B^top and the checks in paths
B^0..B^n, as p_a's positive part is R + x^n (R - 1 + x^n) = R + x^n (x R)
for R = sum_{j<n} x^j.

The list-of-lists products, powers, Horner and min_entry that the tests
pin the kernel to are references, kept in tests/list_kernels.py.  Rows
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


def _scaled_ints(xs):
    """(D, [x * D for x in xs]) in Python ints, D the lcm of the denominators,
    in one pass over the list xs; all but int, Fraction and numpy integers
    (floats, complex, Decimals, bools, strings, None) raise ValueError.  An
    exact Fraction is read by one as_integer_ratio() call, anything else by
    its .numerator and .denominator, and int() is taken of each part, so a
    Fraction of numpy integer parts cannot wrap."""
    nums, dens = [], []
    try:
        for x in xs:
            if type(x) is Fraction:
                p, d = x.as_integer_ratio()
            elif type(x) is bool:
                raise ValueError(_EXACT_ONLY)
            else:  # a float, complex, Decimal, np.bool_, string or None has none
                p, d = x.numerator, x.denominator
            nums.append(int(p))
            dens.append(int(d))
    except AttributeError:
        raise ValueError(_EXACT_ONLY) from None
    D = lcm(*dens)
    return D, [p * (D // d) for p, d in zip(nums, dens)]


def exact_powers(A, top):
    """(D, P) with A = B/D and P[j] = B^j, so A^j = P[j] / D^j.

    A holds int, Fraction or numpy integer entries and D is the lcm of their
    denominators.  P is a (top+1, n, n) numpy object array of Python ints;
    P[1] is B itself and each higher power is one np.dot(P[j], B), written
    into its slot P[j+1].  Numpy's
    object loop calls the ints' own * and +, so the products are exact at
    any size and no numpy scalar enters them.
    """
    if top < 0:
        raise ValueError("exponent must be >= 0")
    n = order_of(A)
    D, ints = _scaled_ints([x for row in A for x in row])
    P = np.zeros((top + 1, n, n), dtype=object)
    P[0].flat[:: n + 1] = 1
    P[1:2] = np.array(ints, dtype=object).reshape(n, n)  # empty when top = 0
    for j in range(1, top):
        np.dot(P[j], P[1], out=P[j + 1])
    return D, P


def poly_numerator(ints, D, P):
    """sum_d ints[d] D^(top-d) P[d] for integer coefficients ints[0..top]
    and (D, P) from exact_powers(A, top): the numerator of p(A) over D^top.
    One .dot, exact like exact_powers; a non-integer coefficient raises
    TypeError."""
    top = len(ints) - 1
    w = np.array([index(c) * D ** (top - d) for d, c in enumerate(ints)], dtype=object)
    return w.dot(P.reshape(top + 1, -1)).reshape(P.shape[1:])


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
    raise ValueError.  With L the lcm
    of the coefficient denominators, den = L D^top and N is the
    poly_numerator of the integer coefficients L*coeffs[d].
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    L, ints = _scaled_ints(coeffs)
    D, P = exact_powers(A, len(ints) - 1)
    return L * D ** (len(ints) - 1), poly_numerator(ints, D, P)


def poly_eval_matrix(coeffs, A):
    """sum_d coeffs[d] * A**d, exactly, as a matrix of Fractions: the
    entries N / den of poly_eval_ratio."""
    den, N = poly_eval_ratio(coeffs, A)
    return [[Fraction(x, den) for x in row] for row in N.tolist()]


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
    return [Fraction(t.strip()) for t in text.split(",")]
