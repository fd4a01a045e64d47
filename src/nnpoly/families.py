"""The polynomial families p_a and f_a and their certified coefficient caps.

p_a has degree 2n with every coefficient 1 except -a at degree n.  f_a is
the positively-weighted generalization with coefficients d_i (i != n).
Membership of p_a in the preserver set of n x n nonnegative matrices is
guaranteed whenever a**2 <= min_k 4*d_{n-k}*d_{n+k}/mu(n,k); the caps are
carried as exact rational bounds on a**2 because 2/sqrt(mu) is irrational.
This module computes the mu-formula caps; bound_table also divides by given
nu(n,k) <= mu(n,k) for the rows of `bound --nu`.  The cap that `certify`
checks, min(4, min_k 4/nu(n,k)), is computed by paths.census_cap.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt, prod

SQRT_DIGITS = 7  # rational_sqrt_floor keeps at least this many significant digits


def make_p_a(n: int, a):
    """Degree-2n polynomial: all coefficients 1 except -a at degree n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    # the ones are a * 0 + 1, which is nan for an infinite a
    _require_finite("a", a)
    return make_f_a([a * 0 + 1] * (2 * n + 1), a)


def _require_finite(name, x):
    """Refuse a nan or infinite x, naming it in the error."""
    if x != x or abs(x) == inf:
        raise ValueError(f"{name} must be finite, got {x}")


def make_f_a(d, a):
    """Weighted variant: coefficient d[i] at degree i != n, -a at degree n."""
    if len(d) < 5 or len(d) % 2 == 0:
        raise ValueError("d must have odd length 2n+1 with n >= 2")
    n = len(d) // 2
    _require_finite("a", a)
    if not a > 0:
        raise ValueError("a must be positive")
    for i, di in enumerate(d):
        if i != n:
            _require_finite(f"coefficient d[{i}]", di)
            if not di > 0:
                raise ValueError(f"coefficient d[{i}] must be positive")
    coeffs = list(d)
    coeffs[n] = -a
    return coeffs


def mu(n: int, k: int) -> int:
    """Pre-image bound (n-k+1) * prod_{j=1}^{k-1} (n-j); equals 1 at k = n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if k == n:
        return 1
    return (n - k + 1) * prod(n - j for j in range(1, k))


def safe_a_squared(n: int, d=None) -> Fraction:
    """Largest certified cap on a**2: min over k of 4*d_{n-k}*d_{n+k}/mu(n,k).

    The k = n row (all-ones: 4/1) encodes the diagonal-entry condition.
    """
    return bound_table(n, d).safe_a_sq


@dataclass
class BoundTable:
    n: int
    rows: list  # (k, mu, nu or None, cap_sq, nu_cap_sq or None)
    safe_a_sq: Fraction  # min over rows of cap_sq

    def to_json(self):
        """The table as JSON values.  Each int it prints, mu(n,k) and the
        numerators and denominators of the caps, must fit the interpreter's
        limit on the digits of an int written as text; the first that does
        not is named in a ValueError."""
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        top = 10**limit

        def printable(name, x):
            if limit and abs(x) >= top:
                raise ValueError(f"{name} has more than {limit} digits, the interpreter's "
                                 "limit for writing an integer as text")

        rows = []
        for k, m, nu, cap, nu_cap in self.rows:
            printable(f"mu({self.n},{k})", m)
            for field, c in (("cap_sq", cap), ("nu_cap_sq", nu_cap)):
                if c is not None:
                    printable(f"the numerator of {field} at k = {k}", c.numerator)
                    printable(f"the denominator of {field} at k = {k}", c.denominator)
            row = {"k": k, "mu": m, "cap_sq": str(cap)}
            if nu is not None:
                row["nu"] = nu
                row["nu_cap_sq"] = str(nu_cap)
            rows.append(row)
        return {"n": self.n, "rows": rows, "safe_a_sq": str(self.safe_a_sq)}


def bound_table(n: int, d=None, nu_values=None) -> BoundTable:
    """Per-k caps 4*d_{n-k}*d_{n+k}/c, c = mu(n,k) and, for given nu_values
    (k = 1..n-1), c = nu(n,k) <= mu(n,k); row k = n is the diagonal cap."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if d is None:
        d = [Fraction(1)] * (2 * n + 1)
    elif len(d) != 2 * n + 1:
        raise ValueError("d must have length 2n+1")
    make_f_a(d, Fraction(1))  # validate positivity
    if nu_values is not None and len(nu_values) != n - 1:
        raise ValueError("nu_values must cover k = 1..n-1")
    rows = []
    falling = 1  # prod_{j=1}^{k-1} (n-j), one multiplication per row
    for k in range(1, n + 1):
        m = (n - k + 1) * falling if k < n else 1  # mu(n, k)
        falling *= n - k
        weight = Fraction(4) * Fraction(d[n - k]) * Fraction(d[n + k])
        nu = nu_cap = None
        if nu_values is not None and k <= n - 1:
            nu = nu_values[k - 1]
            if not 1 <= nu <= m:
                raise ValueError(f"nu({n},{k})={nu} outside 1..mu={m}")
            nu_cap = weight / nu
        rows.append((k, m, nu, weight / m, nu_cap))
    return BoundTable(n=n, rows=rows, safe_a_sq=min(r[3] for r in rows))


def rational_sqrt_floor(c: Fraction) -> Fraction:
    """Largest multiple of 10^-k whose square is <= c, so at least
    SQRT_DIGITS significant digits: k = SQRT_DIGITS - 1 for c >= 1 and
    k = SQRT_DIGITS - 1 - e below 1, for 10^e <= sqrt(c) < 10^(e+1).
    0 at c = 0."""
    if c < 0:
        raise ValueError("negative argument")
    k = SQRT_DIGITS - 1
    x, low = c.numerator * 100**k, c.denominator * 100**k
    # x / den = c 100^k; below low / den = 100^(SQRT_DIGITS - 1), the floor
    # of sqrt(c) 10^k has fewer than SQRT_DIGITS digits
    while 0 < x < low:
        x *= 100
        k += 1
    # exact, as isqrt(floor(y)) == floor(sqrt(y)) for y = c * 100^k >= 0
    return Fraction(isqrt(x // c.denominator), 10**k)
