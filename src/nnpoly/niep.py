"""Necessary conditions for a complex list to be a nonnegative-matrix spectrum.

Power sums s_k must be (real and) nonnegative since s_k = trace(A^k), and
the trace power inequalities s_k^m <= n^(m-1) * s_{km} must hold.  Applying
them to a polynomial-transformed list gives further necessary conditions.
Floating arithmetic with an explicit tolerance throughout: spectra are
numeric data, not certificates.
"""

from __future__ import annotations

import cmath
import math
import re

from .linalg import poly_eval

DEFAULT_TOL = 1e-8


def power_sum(values, k: int) -> complex:
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        return sum(complex(v) ** k for v in values)
    except OverflowError:
        raise ValueError(f"power sum s_{k} is too large for float arithmetic") from None


def jll_check(values, k_max: int = 4, m_max: int = 4, tol: float = DEFAULT_TOL):
    """Table of the trace power inequalities for k <= k_max, m <= m_max.

    Reports per (k, m): lhs = s_k^m, rhs = n^(m-1)*s_{km}, holds.  Also flags
    any power sum that is not real or negative up to tol, either of which
    already rules out realizability.  A row or power sum that is not a
    finite float, from overflow or an inf or nan in the list, is a
    ValueError that names it, and so is a tol that is negative or not
    finite.
    """
    values = [complex(v) for v in values]
    if not values:
        raise ValueError("empty list")
    if k_max < 1 or m_max < 1:
        raise ValueError("k_max and m_max must be >= 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be a finite number >= 0")
    n = len(values)
    s = {k: power_sum(values, k) for k in range(1, k_max * m_max + 1)}
    scale = max(1.0, max(abs(x) for x in s.values()))
    s_real = all(abs(x.imag) <= tol * scale for x in s.values())
    s_nonneg = all(x.real >= -tol * scale for x in s.values())
    rows = []
    for k in range(1, k_max + 1):
        for m in range(1, m_max + 1):
            try:
                lhs = s[k].real ** m
                rhs = n ** (m - 1) * s[k * m].real
            except OverflowError:
                lhs = rhs = math.inf
            if math.isinf(lhs) or math.isinf(rhs):
                raise ValueError(f"row k={k}, m={m} is too large for float arithmetic")
            slack = tol * max(1.0, abs(lhs), abs(rhs))
            rows.append((k, m, lhs, rhs, lhs <= rhs + slack))
    # a finite power sum gives finite rows, so what is left here is a nan
    # or a power sum no row reads
    for k, x in s.items():
        if not cmath.isfinite(x):
            raise ValueError(f"power sum s_{k} is not finite in float arithmetic")
    return {
        "n": n,
        "s_real": s_real,
        "s_nonneg": s_nonneg,
        "rows": rows,
        "all_hold": s_real and s_nonneg and all(r[4] for r in rows),
    }


def transform_list(coeffs, values):
    """Elementwise polynomial evaluation on a spectrum list."""
    coeffs_c = []
    for d, c in enumerate(coeffs):
        try:
            coeffs_c.append(complex(c))
        except OverflowError:
            raise ValueError(
                f"coefficient of x^{d} is too large for float arithmetic"
            ) from None
    return [poly_eval(coeffs_c, complex(v)) for v in values]


def parse_complex(tok: str) -> complex:
    """Entries like "2", "1+2i", "-i", "0.5-1.5i", "(1+2i)", "inf"."""
    t = tok.strip().replace(" ", "")
    if not t:
        raise ValueError("empty spectrum entry")
    # only a final i, before an optional ")", is the imaginary unit: the i
    # of "inf" is not; complex() reads a bare "j", "-j" and "1+j" itself
    t = re.sub(r"i(?=\)?$)", "j", t)
    try:
        return complex(t)
    except ValueError:
        raise ValueError(f"malformed spectrum entry {tok.strip()!r}") from None


def parse_spectrum(text: str):
    return [parse_complex(t) for t in text.split(",")]


def jll_report_csv(report) -> str:
    lines = ["k,m,lhs,rhs,holds"]
    for k, m, lhs, rhs, holds in report["rows"]:
        lines.append(f"{k},{m},{lhs!r},{rhs!r},{holds}")
    return "\n".join(lines) + "\n"
