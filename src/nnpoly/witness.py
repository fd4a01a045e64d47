"""Witness matrices proving a polynomial does not preserve nonnegativity.

Every witness is an exact matrix, and every one the package builds passes
one check, _verified_report: p(A) is evaluated exactly and must have a
negative entry, and where the construction has a closed form, the first
most negative entry must be that form's.  cycle_witness builds the scaled
cyclic shift that falsifies p_a one order up (the strict containment of the
preserver sets), and shift_witness gives that check a shift and its closed form.
family_witness decides exactly whether a member of two one-parameter
families, tI + N and the scaled cycles with a tail, falsifies any polynomial
at a given order.  When neither does, that is inconclusive, never a membership proof.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb

from .exact_univariate import negative_point
from .families import make_p_a
from .linalg import _scaled_ints, format_scalar, is_nonneg, poly_eval_ratio


@dataclass
class WitnessReport:
    poly: list  # Fraction coefficients, constant first
    m: int
    matrix: list  # Fraction entries, nonnegative
    entry: tuple  # (row, col), 1-based
    value: Fraction  # < 0
    method: str  # "structured-cycle", "jordan-family" or "cycle-family"

    def to_json(self):
        return {
            "poly": [format_scalar(c) for c in self.poly],
            "m": self.m,
            "matrix": [[format_scalar(x) for x in row] for row in self.matrix],
            "entry": list(self.entry),
            "value": format_scalar(self.value),
            "method": self.method,
        }

    def reverify(self) -> bool:
        m, entry, A = self.m, self.entry, self.matrix
        # checked first: Python indexing would wrap an entry 0 to the last row
        if not (type(m) is int and isinstance(entry, Sized) and isinstance(A, Sized)
                and len(entry) == 2 and all(type(i) is int and 1 <= i <= m for i in entry)
                and len(A) == m and all(isinstance(row, Sized) and len(row) == m for row in A)):
            return False
        try:
            den, N = poly_eval_ratio(self.poly, A)
        except ValueError:  # refused values never reach the sign test of is_nonneg
            return False
        return is_nonneg(A) and Fraction(N[entry[0] - 1, entry[1] - 1], den) == self.value < 0


def _verified_report(coeffs, A, method, expect=None) -> WitnessReport:
    """The exact report of p(A) for a matrix A the caller has built to be
    a witness: the one check of every witness the package constructs.

    p(A) = N / den with den > 0, so the first smallest numerator of N sits
    at the first most negative entry, and only that entry becomes a
    Fraction.  Raises AssertionError, under python -O too, when p(A) has no
    negative entry, or when expect = (entry, value) is given and the report
    differs from it.
    """
    den, N = poly_eval_ratio(coeffs, A)
    flat = N.ravel().tolist()
    low = min(flat)
    r, c = divmod(flat.index(low), len(A))
    entry, value = (r + 1, c + 1), Fraction(low, den)
    if low >= 0 or expect is not None and (entry, value) != expect:
        raise AssertionError("exact evaluation disagrees with construction")
    return WitnessReport(poly=list(coeffs), m=len(A), matrix=A,
                         entry=entry, value=value, method=method)


def _shift(m, t, j=None, tail=0):
    """t times the path 1 -> ... -> tail + j closed by tail + j -> tail + 1
    (j = m: the cyclic shift), padded with zeros to order m, in Fractions."""
    k, zero = tail + (j or m), Fraction(0)
    return [[t if r < k and c == ((r + 1) % k or tail) else zero for c in range(m)]
            for r in range(m)]


def shift_witness(coeffs, m, t, entry, value) -> WitnessReport:
    """The exact report of p(tP), P the order-m cyclic shift, checked by
    _verified_report against the closed form's (entry, value)."""
    return _verified_report(coeffs, _shift(m, t), "structured-cycle", (entry, value))


def cycle_witness(n: int, a, t=Fraction(1)) -> WitnessReport:
    """Scaled (n+1)-cycle shift falsifying p_a at order n+1.

    With A = t*P, P the cyclic shift on n+1 vertices, A^j lands entry (1, n+1)
    only when j = n (mod n+1); within degrees 0..2n that is j = n alone, so
    entry (1, n+1) of p_a(A) is exactly -a*t^n.  It is the first most
    negative entry, as each row holds one -a*t^n and nothing else negative.
    """
    D, ints = _scaled_ints([a, t])  # Python ints: a numpy t cannot wrap in t**n
    a, t = (Fraction(x, D) for x in ints)
    if n < 2 or not a > 0 or not t > 0:
        raise ValueError("need n >= 2, a > 0, t > 0")
    return shift_witness(make_p_a(n, a), n + 1, t, (1, n + 1), -a * t**n)


def _jordan(m, t):
    """tI + N, N the shift 1 -> 2 -> ... -> m, in Fractions."""
    return [[t if c == r else Fraction(c == r + 1) for c in range(m)] for r in range(m)]


def _family_rows(ints, m):
    """(method, member, row polynomial) for family_witness, in its order;
    member(t) is the family's matrix at t.  Tail L drops c_(L-1) from one
    row of tail L - 1 and repeats the others, which are skipped."""
    top = max((d for d, c in enumerate(ints) if c), default=-1)
    ints = ints[:top + 1]
    for i in range(min(m, top + 1)):
        yield "jordan-family", partial(_jordan, m), [comb(d, i) * ints[d] for d in range(i, top + 1)]
    for L, j in ((L, j) for L in range(min(m - 1, top)) for j in range(2, min(m - L, top) + 1)):
        for i in range(j):
            if L == 0 or i == (L - 1) % j and ints[L - 1]:
                row = [c if d % j == i and d >= L else 0 for d, c in enumerate(ints)]
                yield "cycle-family", partial(_shift, m, j=j, tail=L), row


def family_witness(coeffs, m: int) -> WitnessReport | None:
    """The first exact witness of order m in two one-parameter families, or
    None when no member of either has a negative entry in p(A).

    Each row below, in this order, is searched for a t where it is negative:
    1. Jordan, A = tI + N with N the shift 1 -> 2 -> ... -> m, t >= 0:
       p(A) is upper-triangular Toeplitz, and its entry (1, i+1) is
       q_i(t) = sum_d C(d, i) c_d t^(d-i), for i = 0 .. min(m, deg p + 1) - 1.
    2. cycle, A = diag(tC, 0), t >= 0, C the path 1 -> ... -> L + j closed
       into a j-cycle by L + j -> L + 1 (L = 0: the shift P_j): entry
       (1, L + 1 + (i - L mod j)) of p(tC) is r_i(t) = sum c_d t^d over
       d >= L, d = i mod j, for L < min(m - 1, deg p), j = 2 .. min(m - L, deg p)
       and i = 0 .. j-1: the tail drops the low terms of a cycle's row.
    A witness at order L + j < m embeds as diag(A, 0), with p diag(p(A), c_0 I).
    For j > deg p, r_i = c_i t^i, which q_i(0) = c_i already decides; and
    at t = 0 a cycle row is c_0 or 0, which q_0 has decided before it.
    The hit's matrix goes through _verified_report, the check every built
    witness passes.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    _, ints = _scaled_ints(coeffs)  # scaled by the positive lcm: signs kept
    for method, member, row in _family_rows(ints, m):
        t = negative_point(row)
        if t is not None:
            return _verified_report(coeffs, member(t), method)
    return None
