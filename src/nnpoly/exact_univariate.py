"""Exact sign questions about one real polynomial in one variable.

A polynomial is a coefficient list of ints or Fractions, constant term
first, as in linalg, and is valued by linalg.poly_eval, the package's one
scalar Horner.  Roots are counted with a Sturm chain of the square-free
part, so a multiple root counts once (-4t^3 + 11t^10 has one in (0, 2]).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import poly_eval


def _trim(q):
    q = list(q)
    while q and q[-1] == 0:
        q.pop()
    return q


def _derivative(q):
    return [d * c for d, c in enumerate(q)][1:]


def _divmod(a, b):
    """(quotient, remainder) of a by the nonzero b, in Fractions; the
    remainder is trimmed and scaled by a positive number, which keeps
    its signs."""
    quo, a = [Fraction(0)] * max(len(a) - len(b) + 1, 0), [Fraction(x) for x in a]
    while len(a) >= len(b):
        f, shift = a[-1] / b[-1], len(a) - len(b)
        quo[shift] = f
        for k, c in enumerate(b):
            a[shift + k] -= f * c
        a = _trim(a)
    return quo, [x / abs(a[-1]) for x in a] if a else a


def sturm_chain(q):
    """A Sturm chain of the square-free part s of the nonzero polynomial q:
    the signed remainder sequence q, q', -rem(q, q'), ..., which ends in
    g = gcd(q, q'), divided by g.  Consecutive quotients are coprime; where
    a middle one vanishes its neighbours have opposite signs, as remainders
    are scaled only by positive numbers; at a root r of multiplicity m in q,
    q'/g is m s'(r).  A constant g stays: a negative one flips every sign,
    which leaves the variations alone."""
    q = _trim(q)
    if not q:
        raise ValueError("the zero polynomial has no Sturm chain")
    chain = [q, _derivative(q)]
    while chain[-1]:
        chain.append([-x for x in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    g = chain[-1]
    return [_divmod(p, g)[0] for p in chain] if len(g) > 1 else chain


def _variations(chain, x):
    signs = [v > 0 for v in (poly_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, lo, hi):
    """The number of distinct real roots in (lo, hi] of the polynomial
    whose sturm_chain is chain, for lo <= hi."""
    return _variations(chain, lo) - _variations(chain, hi)


def negative_point(q):
    """A rational t >= 0 with q(t) < 0, or None when there is none.

    Every root lies in (-B, B), B = 1 + max |q_i / q_top| (Cauchy).  (0, B]
    is bisected while a piece holds two roots or more, or holds one and
    starts at a root.  The left ends of the unsplit pieces, and B, then put
    a test point in every gap between roots and beyond them, where q keeps
    its sign.  Left halves are searched first, so those ends come in
    ascending order, and the first where q < 0 is returned.

    The roots are counted on the chain of s = q / t^v, for v the number of
    leading zero coefficients of q: s has the roots of q in every (lo, hi]
    with lo >= 0, and its chain has no power of t to divide out.  B, the
    values at the ends and so the split rule stay those of q."""
    q = _trim(q)
    if not q:
        return None
    B = 1 + max((abs(Fraction(c) / q[-1]) for c in q[:-1]), default=0)
    chain = sturm_chain(q[next(v for v, c in enumerate(q) if c):])
    pieces = [(Fraction(0), B)]
    while pieces:
        lo, hi = pieces.pop()
        k, v = count_roots(chain, lo, hi), poly_eval(q, lo)
        if k > 1 or k == 1 and v == 0:
            mid = (lo + hi) / 2
            pieces += [(mid, hi), (lo, mid)]
        elif v < 0:
            return lo
    return B if poly_eval(q, B) < 0 else None
