"""Bracket the largest admissible coefficient a for p_a at a given order.

The lower end is certified (caps from the mu formula, sharpened with exact
pre-image counts when enumeration is feasible); the upper end is empirical,
backed by a stored exact witness.  Sampled non-failure never moves the
lower end: only certificates do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .families import bound_table, rational_sqrt_floor, safe_a_squared, make_p_a
from .linalg import format_scalar
from .paths import all_nu, EnumerationCapExceeded
from .witness import SCALE_SWEEP, WitnessReport, search_witness, _verified_report

# Not read by the package: certified_cap sharpens whenever the census fits
# the enumeration cap.  perfbench/make_reference.py records certified_cap
# up to this n.
NU_FEASIBLE_LIMIT = 7
CANDIDATE_DENOM = 10**4


@dataclass
class BoundEstimate:
    n: int
    a_lo: Fraction
    a_lo_sq: Fraction  # certified cap on a^2
    a_hi: Fraction
    gap: Fraction
    lo_provenance: str
    hi_provenance: str
    witness: WitnessReport | None

    def to_json(self):
        out = {
            "n": self.n,
            "a_lo": format_scalar(self.a_lo),
            "a_lo_sq": format_scalar(self.a_lo_sq),
            "a_hi": format_scalar(self.a_hi),
            "gap": format_scalar(self.gap),
            "lo_provenance": self.lo_provenance,
            "hi_provenance": self.hi_provenance,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def certified_cap(n: int, sharpen: bool = True):
    """(a^2 cap, provenance).  Sharpened caps use exact pre-image counts,
    whenever the census of M_n fits the default enumeration cap."""
    cap = safe_a_squared(n)
    provenance = "mu-formula cap"
    if sharpen:
        try:
            nus = all_nu(n)
        except EnumerationCapExceeded:
            return cap, provenance
        table = bound_table(n, nu_values=nus)
        nu_cap = min(
            Fraction(4, nu) if nu is not None else c for _, _, nu, c in table.rows
        )
        if nu_cap > cap:
            return nu_cap, "nu-sharpened cap (exact pre-image enumeration)"
    return cap, provenance


def bracket_optimal_a(
    n: int,
    steps: int = 32,
    tol=Fraction(1, 1000),
    seed: int = 0,
    starts: int = 8,
    iterations: int = 150,
) -> BoundEstimate:
    """Certified lower end from the proof caps; empirical upper end by
    bisection against the witness searcher.

    An inconclusive search never raises the certified a_lo; it only moves
    the internal probe point, so a_hi is monotone non-increasing and every
    reported a_hi carries an exact witness.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    tol = Fraction(tol)
    cap, lo_prov = certified_cap(n)
    a_lo = rational_sqrt_floor(cap)

    # initial failing coefficient: grow until the searcher's exact probes hit
    a_hi = Fraction(2 * n)
    hi_witness = None
    for _ in range(16):
        hi_witness = search_witness(
            make_p_a(n, a_hi), n, starts=starts, iterations=iterations, seed=seed
        )
        if hi_witness is not None:
            break
        a_hi *= 2
    if hi_witness is None:
        raise RuntimeError(f"no failing coefficient found up to a = {a_hi}")

    budget_exhausted = True
    probe = a_lo
    for _ in range(steps):
        if a_hi - probe <= tol:
            budget_exhausted = False
            break
        mid = Fraction((probe + a_hi) / 2).limit_denominator(CANDIDATE_DENOM)
        if not probe < mid < a_hi:
            mid = (probe + a_hi) / 2
        w = search_witness(
            make_p_a(n, mid), n, starts=starts, iterations=iterations, seed=seed
        )
        if w is not None:
            a_hi, hi_witness = mid, w
        else:
            probe = mid
    hi_prov = "bisection with exact-verified witnesses" + (
        "; budget exhausted" if budget_exhausted else ""
    )
    return BoundEstimate(
        n=n, a_lo=a_lo, a_lo_sq=cap, a_hi=a_hi, gap=a_hi - a_lo,
        lo_provenance=lo_prov, hi_provenance=hi_prov, witness=hi_witness,
    )


def random_rational_matrix(n: int, rng: random.Random, scale=Fraction(1)):
    """Nonnegative matrix with small-denominator entries in [0, scale]."""
    return [
        [Fraction(rng.randint(0, 16), 16) * scale for _ in range(n)] for _ in range(n)
    ]


def membership_sample(coeffs, n: int, trials: int, seed: int = 0):
    """Evaluate p exactly on random nonnegative rational matrices across the
    scale sweep.  Returns (pass count, witness reports for any failures).
    Passing every trial is evidence, not proof, of membership."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    coeffs = [Fraction(c) for c in coeffs]
    rng = random.Random(f"{seed}:membership")
    passes = 0
    witnesses = []
    for t in range(trials):
        A = random_rational_matrix(n, rng, SCALE_SWEEP[t % len(SCALE_SWEEP)])
        rep = _verified_report(coeffs, A, "search")
        if rep is None:
            passes += 1
        else:
            witnesses.append(rep)
    return passes, witnesses


def sample_pa_membership(n: int, a_sq, trials: int, seed: int = 0):
    """Membership sampling for p_a at a = sqrt(a_sq), which may be irrational.

    Entries of p_a(A) have the form s - a*b with s, b >= 0 exact rationals,
    so nonnegativity is decided by s >= 0 and s^2 >= a_sq * b^2.
    Returns the pass count; failures are collected as (matrix, entry).
    """
    from .paths import verify_certificate_on_matrix

    a_sq = Fraction(a_sq)
    rng = random.Random(f"{seed}:pa-membership")
    passes = 0
    failures = []
    for t in range(trials):
        A = random_rational_matrix(n, rng, SCALE_SWEEP[t % len(SCALE_SWEEP)])
        if verify_certificate_on_matrix(n, a_sq, A):
            passes += 1
        else:
            failures.append(A)
    return passes, failures
