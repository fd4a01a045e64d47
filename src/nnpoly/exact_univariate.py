"""Exact sign questions about one real polynomial in one variable.

A polynomial is a coefficient list of ints or Fractions, constant term
first, as in linalg, and is valued by linalg.poly_eval, the package's one
scalar Horner.  Roots are counted with the Sturm chain of the
square-free part q / gcd(q, q'): the plain chain of q shares a multiple
root's factor in every member, so all of it vanishes there and the count
goes wrong (-4t^3 + 11t^10 would get no root in (0, 2]).
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
    """The Sturm chain s, s', -rem(s, s'), ... of the square-free part s of
    the nonzero polynomial q; s has the roots of q, each once."""
    q = _trim(q)
    if not q:
        raise ValueError("the zero polynomial has no Sturm chain")
    g, h = q, _derivative(q)
    while h:
        g, h = h, _divmod(g, h)[1]
    chain = [_divmod(q, g)[0]]
    chain.append(_derivative(chain[0]))
    while chain[-1]:
        chain.append([-x for x in _divmod(chain[-2], chain[-1])[1]])
    return chain[:-1]


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
    starts at a root.  Then each gap between consecutive roots, and the ones
    before the first and after the last, holds 0, a piece's left end or B.
    q keeps its sign on each gap and beyond B, so testing the ends in
    ascending order finds the first of them where q < 0, if q is negative
    anywhere on [0, inf).
    """
    q = _trim(q)
    if not q:
        return None
    B = 1 + max((abs(Fraction(c) / q[-1]) for c in q[:-1]), default=0)
    chain = sturm_chain(q)
    pieces, ends = [(Fraction(0), B)], {Fraction(0), B}
    while pieces:
        lo, hi = pieces.pop()
        k = count_roots(chain, lo, hi)
        if k > 1 or k == 1 and poly_eval(q, lo) == 0:
            mid = (lo + hi) / 2
            pieces += [(lo, mid), (mid, hi)]
            ends.add(mid)
    return next((t for t in sorted(ends) if poly_eval(q, t) < 0), None)
