"""Witness matrices proving a polynomial does not preserve nonnegativity.

Two routes: a structured cyclic-shift construction tailored to p_a (exact,
always succeeds, exhibits strict containment of the preserver sets), and a
best-effort multi-start numerical search whose candidates are re-verified
in exact rationals before being reported.  An empty search result is
inconclusive, never a membership proof.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .families import make_p_a
from .linalg import (
    cyclic_shift,
    format_scalar,
    is_nonneg,
    mat_scale,
    min_entry,
    order_of,
    poly_eval_matrix,
)

SCALE_SWEEP = [Fraction(2) ** e for e in range(-4, 5)]
RATIONALIZE_DENOM = 10**6


@dataclass
class WitnessReport:
    poly: list  # Fraction coefficients, constant first
    m: int
    matrix: list  # Fraction entries, nonnegative
    entry: tuple  # (row, col), 1-based
    value: Fraction  # < 0
    method: str  # "structured-cycle" or "search"

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
        if not is_nonneg(self.matrix):
            return False
        C = poly_eval_matrix(self.poly, self.matrix)
        r, c = self.entry
        return C[r - 1][c - 1] == self.value < 0


def _verified_report(coeffs, A, method) -> WitnessReport | None:
    """Exact evaluation; report the most negative entry if one exists."""
    val, r, c = min_entry(poly_eval_matrix(coeffs, A))
    if val < 0:
        return WitnessReport(
            poly=list(coeffs), m=order_of(A), matrix=A,
            entry=(r, c), value=val, method=method,
        )
    return None


def cycle_witness(n: int, a, t=Fraction(1)) -> WitnessReport:
    """Scaled (n+1)-cycle shift falsifying p_a at order n+1.

    With A = t*P, P the cyclic shift on n+1 vertices, A^j lands entry (1, n+1)
    only when j = n (mod n+1); within degrees 0..2n that is j = n alone, so
    entry (1, n+1) of p_a(A) is exactly -a*t^n.
    """
    a, t = Fraction(a), Fraction(t)
    if n < 2 or not a > 0 or not t > 0:
        raise ValueError("need n >= 2, a > 0, t > 0")
    coeffs = make_p_a(n, a)
    A = mat_scale(t, cyclic_shift(n + 1))
    C = poly_eval_matrix(coeffs, A)
    value = C[0][n]
    if value != -a * t**n:
        raise AssertionError("exact evaluation disagrees with construction")
    return WitnessReport(
        poly=coeffs, m=n + 1, matrix=A, entry=(1, n + 1), value=value,
        method="structured-cycle",
    )


def _rationalize(A):
    return [
        [Fraction(x).limit_denominator(RATIONALIZE_DENOM) for x in row] for row in A
    ]


def _float_objective(coeffs_f, A):
    return min_entry(poly_eval_matrix(coeffs_f, A))[0]


def _probe_matrices(m):
    """Deterministic exact candidates tried before any random start."""
    ones = [[Fraction(1)] * m for _ in range(m)]
    shift = cyclic_shift(m)
    for t in SCALE_SWEEP + [Fraction(1, m), Fraction(1, 2 * m)]:
        yield mat_scale(t, ones)
        yield mat_scale(t, shift)


def search_witness(
    coeffs, m: int, starts: int = 16, iterations: int = 200, seed: int = 0
) -> WitnessReport | None:
    """Multi-start projected coordinate descent on min entry of p(A), A >= 0.

    Floating point drives the search; any negative candidate is rationalized
    (continued fractions, bounded denominator) and kept only if the exact
    re-evaluation is still negative.  Starts are seeded independently from
    (seed, start index), so the first verified index is reproducible.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if m < 1:
        raise ValueError("order must be >= 1")
    for A in _probe_matrices(m):
        rep = _verified_report(coeffs, A, "search")
        if rep is not None:
            return rep
    coeffs_f = []
    for d, c in enumerate(coeffs):
        try:
            coeffs_f.append(float(c))
        except OverflowError:
            raise ValueError(
                f"coefficient of x^{d} is too large for the float search"
            ) from None
    factors = [0.0, 0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0]
    for idx in range(starts):
        rng = random.Random(f"{seed}:{idx}")
        scale = float(SCALE_SWEEP[idx % len(SCALE_SWEEP)])
        A = [[rng.random() * scale for _ in range(m)] for _ in range(m)]
        obj = _float_objective(coeffs_f, A)
        if math.isnan(obj):
            obj = math.inf  # nan compares false, so nothing could beat it
        for _ in range(iterations):
            i, j = rng.randrange(m), rng.randrange(m)
            base = A[i][j]
            best_val, best = obj, base
            for f in factors:
                cand = base * f if base else scale * f * rng.random()
                A[i][j] = max(cand, 0.0)
                val = _float_objective(coeffs_f, A)
                if val < best_val:  # false for nan; -inf is re-verified exactly
                    best_val, best = val, A[i][j]
            A[i][j] = best
            obj = best_val
        if obj < -1e-12:
            rep = _verified_report(coeffs, _rationalize(A), "search")
            if rep is not None:
                return rep
    return None
