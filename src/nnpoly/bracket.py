"""Bracket the largest admissible coefficient a for p_a at a given order.

The lower end is certified (caps from the mu formula, sharpened with exact
pre-image counts within the census limit); the upper end is the
closed form of the cyclic-shift witness family, backed by a stored exact
witness.  Sampled non-failure never moves the lower end: only certificates
do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .families import rational_sqrt_floor, safe_a_squared, make_p_a
from .linalg import format_scalar
from .paths import (EnumerationCapExceeded, _a_sq_ratio, census_cap,
                    verify_certificate_on_matrix)
from .witness import WitnessReport, shift_witness

SCALE_SWEEP = [Fraction(2) ** e for e in range(-4, 5)]  # sampled matrix scales

# Not read by the package: certified_cap sharpens whenever n is within the
# census limit paths.CENSUS_N_MAX.  perfbench/make_reference.py records
# certified_cap up to this n.
NU_FEASIBLE_LIMIT = 7


@dataclass
class BoundEstimate:
    n: int
    a_lo: Fraction
    a_lo_sq: Fraction  # certified cap on a^2
    a_hi: Fraction
    gap: Fraction
    lo_provenance: str
    hi_provenance: str
    witness: WitnessReport

    def to_json(self):
        return {
            "n": self.n,
            "a_lo": format_scalar(self.a_lo),
            "a_lo_sq": format_scalar(self.a_lo_sq),
            "a_hi": format_scalar(self.a_hi),
            "gap": format_scalar(self.gap),
            "lo_provenance": self.lo_provenance,
            "hi_provenance": self.hi_provenance,
            "witness": self.witness.to_json(),
        }


def certified_cap(n: int):
    """(a^2 cap, provenance): the cap paths.census_cap computes from the
    census of M_n when n is within the census limit paths.CENSUS_N_MAX and
    the census facts hold, else the mu-formula cap families.safe_a_squared
    computes."""
    a_sq = safe_a_squared(n)
    try:
        sharp = census_cap(n)
    except EnumerationCapExceeded:
        sharp = None
    if sharp is not None and sharp > a_sq:
        return sharp, "nu-sharpened cap (exact pre-image enumeration)"
    return a_sq, "mu-formula cap"


def bracket_optimal_a(n: int) -> BoundEstimate:
    """Certified lower end from the proof caps; upper end in closed form
    from the order-n cyclic shift P.

    Entry (1,1) of p_a(P) is 1 - a + 1 = 2 - a, so P falsifies p_a for
    every a > 2, and a_hi = 2 + 10^-9 is within 10^-9 of that family's
    infimum.  Its witness is P at a_hi, checked exactly against that form.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    cap, lo_prov = certified_cap(n)
    a_lo = rational_sqrt_floor(cap)
    a_hi = 2 + Fraction(1, 10**9)
    hi_witness = shift_witness(make_p_a(n, a_hi), n, Fraction(1), (1, 1), 2 - a_hi)
    return BoundEstimate(
        n=n, a_lo=a_lo, a_lo_sq=cap, a_hi=a_hi, gap=a_hi - a_lo,
        lo_provenance=lo_prov,
        hi_provenance="order-n cyclic shift at t = 1: p_a(P) has diagonal 2 - a",
        witness=hi_witness,
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
    if trials < 0:
        raise ValueError("trials must be >= 0")
    a_sq = Fraction(*_a_sq_ratio(a_sq))  # refused before any draw
    rng = random.Random(f"{seed}:pa-membership")
    failures = []
    for t in range(trials):
        A = random_rational_matrix(n, rng, SCALE_SWEEP[t % len(SCALE_SWEEP)])
        if not verify_certificate_on_matrix(n, a_sq, A):
            failures.append(A)
    return trials - len(failures), failures
