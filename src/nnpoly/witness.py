"""Witness matrices proving a polynomial does not preserve nonnegativity.

Two routes: a structured cyclic-shift construction tailored to p_a (exact,
always succeeds, exhibits strict containment of the preserver sets), and a
best-effort multi-start numerical search whose candidates are re-verified
in exact rationals before being reported.  An empty search result is
inconclusive, never a membership proof.
"""

from __future__ import annotations

import random
from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .families import make_p_a
from .linalg import _scaled_ints, format_scalar, is_nonneg, poly_eval_ratio, poly_min_entries

SCALE_SWEEP = [Fraction(2) ** e for e in range(-4, 5)]
RATIONALIZE_DENOM = 10**6
SEARCH_BLOCK = 64  # starts advanced together, bounding the stack at 9 * 64


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


def _verified_report(coeffs, A, method) -> WitnessReport | None:
    """Exact evaluation; report the most negative entry if one exists.

    p(A) = N / den with den > 0, so the first smallest numerator of N sits
    at the first most negative entry, and only that entry becomes a
    Fraction.
    """
    den, N = poly_eval_ratio(coeffs, A)
    flat = N.ravel().tolist()
    low = min(flat)
    if low < 0:
        r, c = divmod(flat.index(low), len(A))
        return WitnessReport(
            poly=list(coeffs), m=len(A), matrix=A,
            entry=(r + 1, c + 1), value=Fraction(low, den), method=method,
        )
    return None


def _shift(m, t):
    """t times the cyclic shift 1 -> 2 -> ... -> m -> 1, in Fractions."""
    zero = Fraction(0)
    return [[t if c == (r + 1) % m else zero for c in range(m)] for r in range(m)]


def shift_witness(coeffs, m, t, entry, value) -> WitnessReport:
    """The exact report of p(tP), P the order-m cyclic shift.  Raises
    AssertionError, under python -O too, unless its first most negative
    entry is the closed form's (entry, value)."""
    rep = _verified_report(coeffs, _shift(m, t), "structured-cycle")
    if rep is None or (rep.entry, rep.value) != (entry, value):
        raise AssertionError("exact evaluation disagrees with construction")
    return rep


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


def _rationalize(A):
    return [
        [Fraction(x).limit_denominator(RATIONALIZE_DENOM) for x in row] for row in A
    ]


def probe_witness(coeffs, m: int) -> WitnessReport | None:
    """First exact witness among the deterministic probes t*J and t*P
    (all-ones, cyclic shift) over a sweep of t, or None."""
    if m < 1:
        raise ValueError("order must be >= 1")
    for t in SCALE_SWEEP + [Fraction(1, m), Fraction(1, 2 * m)]:
        probes = [[[t] * m for _ in range(m)]]
        if m > 1:  # at m = 1 the shift is J
            probes.append(_shift(m, t))
        for A in probes:
            rep = _verified_report(coeffs, A, "search")
            if rep is not None:
                return rep
    return None


def search_witness(
    coeffs, m: int, starts: int = 16, iterations: int = 200, seed: int = 0
) -> WitnessReport | None:
    """probe_witness, then multi-start projected coordinate descent on min p(A).

    Floating point drives the search; any negative candidate is rationalized
    (continued fractions, bounded denominator) and kept only if the exact
    re-evaluation is still negative.  Starts are seeded independently from
    (seed, start index) and advance in lockstep, SEARCH_BLOCK at a time, so
    a coordinate step of a whole block is one poly_min_entries call.  Each
    start's path depends only on its own stream and its own kernel values,
    so it is the path the start would take alone, and the lowest verified
    start index is returned; later blocks are not run.
    """
    if starts < 0 or iterations < 0:
        raise ValueError("starts and iterations must be >= 0")
    rep = probe_witness(coeffs, m)
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
    for first in range(0, starts, SEARCH_BLOCK):
        block = range(first, min(first + SEARCH_BLOCK, starts))
        objs, As = _descend_block(coeffs_f, m, block, iterations, seed)
        for obj, A in zip(objs, As):
            if obj < -1e-12:
                rep = _verified_report(coeffs, _rationalize(A), "search")
                if rep is not None:
                    return rep
    return None


def _descend_block(coeffs_f, m, block, iterations, seed):
    """(objectives, matrices) after `iterations` coordinate steps from each
    start index in block, as float lists.

    coeffs_f is one float coefficient list shared by the block.  Start idx
    draws from random.Random(f"{seed}:{idx}") its initial matrix,
    then per step i, j and, only if entry (i, j) is 0, nine draws r.  Its
    nine candidates max(base * f, 0) (or max(scale * f * r, 0) from 0) are
    one numpy expression over the whole block, the same floats as Python's
    arithmetic and max(x, 0.0), nan included.  They become nine rows of one
    (len(block) * 9, m, m) stack, and the start moves to the first
    candidate whose value is strictly below its objective and below every
    earlier candidate's, as a strict `val < best_val` scan does.
    """
    factors = np.array([0.0, 0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0])
    rngs = [random.Random(f"{seed}:{idx}") for idx in block]
    scales = [float(SCALE_SWEEP[idx % len(SCALE_SWEEP)]) for idx in block]
    As = np.array([[[rng.random() * scale for _ in range(m)] for _ in range(m)]
                   for rng, scale in zip(rngs, scales)])
    obj = np.array(poly_min_entries(coeffs_f, As))
    obj[np.isnan(obj)] = np.inf  # nan compares false, so nothing could beat it
    rows = np.arange(len(block))
    spread = np.array(scales)[:, None] * factors  # scale * f, per start
    draws = np.zeros_like(spread)  # a start's r, redrawn when it is used
    for _ in range(iterations):
        ii, jj = np.array([(rng.randrange(m), rng.randrange(m)) for rng in rngs]).T
        base = As[rows, ii, jj]
        from_zero = base == 0
        for s in np.flatnonzero(from_zero):
            draws[s] = [rngs[s].random() for _ in factors]
        with np.errstate(all="ignore"):  # inf * 0.0 is nan, as in Python
            cands = np.maximum(
                np.where(from_zero[:, None], spread * draws, base[:, None] * factors), 0.0)
        stack = np.repeat(As[:, None], len(factors), axis=1)
        stack[rows, :, ii, jj] = cands
        vals = np.array(poly_min_entries(coeffs_f, stack.reshape(-1, m, m)))
        vals = vals.reshape(cands.shape)
        vals[np.isnan(vals)] = np.inf  # never chosen; -inf is re-verified exactly
        pick = vals.argmin(axis=1)  # the first of equal minima
        best = vals[rows, pick]
        moved = best < obj
        As[rows[moved], ii[moved], jj[moved]] = cands[rows, pick][moved]
        obj = np.where(moved, best, obj)
    return obj.tolist(), As.tolist()
