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

from .families import rational_sqrt_floor, safe_a_squared, make_p_a
from .linalg import format_scalar
from .paths import EnumerationCapExceeded, census_cap, verify_certificate_on_matrix
from .witness import (
    SCALE_SWEEP,
    SEARCH_BLOCK,
    WitnessReport,
    float_search,
    probe_witness,
)

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


def certified_cap(n: int):
    """(a^2 cap, provenance): paths.census_cap when the census of M_n fits the
    default enumeration cap and its facts hold, else the mu-formula cap."""
    cap = safe_a_squared(n)
    try:
        sharp = census_cap(n)
    except EnumerationCapExceeded:
        sharp = None
    if sharp is not None and sharp > cap:
        return sharp, "nu-sharpened cap (exact pre-image enumeration)"
    return cap, "mu-formula cap"


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

    A bisection step runs search_witness on p_a at the midpoint: the exact
    probes, then the float search.  The steps are planned ahead from the
    current (probe, a_hi) as if every float search came back inconclusive,
    each planned step's probes resolved as the plan is made, until the step
    budget, tol, or SEARCH_BLOCK // starts float searches (at least one).
    The plan's float searches run as one witness.float_search, so their
    starts share one lockstep block, and its steps are applied in order up
    to the first float search that found a witness; the steps after it
    assumed otherwise, so they are dropped and the next plan starts there.
    Every step taken is the step the one-at-a-time bisection takes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if starts < 0 or iterations < 0:
        raise ValueError("starts and iterations must be >= 0")
    tol = Fraction(tol)
    if tol < 0:
        raise ValueError("tol must be >= 0")
    cap, lo_prov = certified_cap(n)
    a_lo = rational_sqrt_floor(cap)

    # entry (1,1) of p_a(P) is 2 - a for the n-cycle shift P, so a probe
    # falsifies p_a at a = 2n
    a_hi = Fraction(2 * n)
    hi_witness = probe_witness(make_p_a(n, a_hi), n)
    if hi_witness is None:
        raise RuntimeError(f"no probe falsifies p_a at a = {a_hi}")

    per_plan = max(1, SEARCH_BLOCK // max(starts, 1))  # float searches
    probe, taken = a_lo, 0
    while taken < steps and a_hi - probe > tol:
        plan, searched, lo, hi = [], [], probe, a_hi
        while taken + len(plan) < steps and hi - lo > tol and len(searched) < per_plan:
            mid = Fraction((lo + hi) / 2).limit_denominator(CANDIDATE_DENOM)
            if not lo < mid < hi:
                mid = (lo + hi) / 2
            coeffs = make_p_a(n, mid)
            rep = probe_witness(coeffs, n)
            plan.append((mid, rep))
            if rep is None:
                searched.append(coeffs)
                lo = mid
            else:
                hi = mid
        found = iter(float_search(searched, n, starts, iterations, seed))
        for mid, rep in plan:
            taken += 1
            w = rep if rep is not None else next(found)
            if w is None:
                probe = mid
            else:
                a_hi, hi_witness = mid, w
                if rep is None:
                    break  # the later steps assumed this search inconclusive
    budget_exhausted = taken == steps
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


def sample_pa_membership(n: int, a_sq, trials: int, seed: int = 0):
    """Membership sampling for p_a at a = sqrt(a_sq), which may be irrational.

    Entries of p_a(A) have the form s - a*b with s, b >= 0 exact rationals,
    so nonnegativity is decided by s >= 0 and s^2 >= a_sq * b^2.
    Returns (pass count, list of the matrices that failed).
    """
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
