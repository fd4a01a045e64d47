"""Root counts and negative points against polynomials built from known
roots: q = c * prod (t - r)^k, with the truth read off the roots."""

import random
from fractions import Fraction

import pytest

from nnpoly.exact_univariate import count_roots, negative_point, sturm_chain

F = Fraction


def from_roots(roots, c=1):
    """c * prod (t - r)^k for roots {r: k}, constant term first."""
    q = [F(c)]
    for r, k in roots.items():
        for _ in range(k):
            q = [a - r * b for a, b in zip([F(0)] + q, q + [F(0)])]
    return q


def value(q, t):
    return sum(c * t**d for d, c in enumerate(q))


def negative_somewhere(roots, c):
    """Whether c * prod (t - r)^k < 0 at some t >= 0: its sign is constant
    between consecutive roots, so one point in each gap of [0, inf) decides
    it."""
    q = from_roots(roots, c)
    cuts = sorted({F(0), *(r for r in roots if r > 0)})
    points = [F(0)] + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [cuts[-1] + 1]
    return any(value(q, t) < 0 for t in points)


ROOT_SETS = [
    {},
    {F(0): 1},
    {F(0): 2},
    {F(0): 3, F(1): 2},
    {F(1): 1},
    {F(1): 2},
    {F(1, 3): 1, F(2, 3): 1},
    {F(1, 3): 2, F(2, 3): 2},
    {F(-1): 1, F(-2): 3},
    {F(-1): 2, F(5, 2): 1},
    # B = 1 + 3 = 4: the bisection points 2 and 1 are roots, and 0 is
    {F(0): 1, F(1): 1, F(2): 1},
    {F(0): 2, F(1): 3, F(2): 2},
    # a narrow negative gap
    {F(100, 1000): 1, F(101, 1000): 1, F(7): 2},
]


@pytest.mark.parametrize("roots", ROOT_SETS, ids=range(len(ROOT_SETS)))
@pytest.mark.parametrize("c", [1, -3, F(2, 7)])
def test_count_roots_counts_distinct_roots_in_half_open_interval(roots, c):
    chain = sturm_chain(from_roots(roots, c))
    cuts = sorted({F(-3), F(0), F(1, 2), F(1), F(2), F(8), *roots})
    for lo in cuts:
        for hi in cuts:
            if lo <= hi:
                assert count_roots(chain, lo, hi) == sum(lo < r <= hi for r in roots)


@pytest.mark.parametrize("roots", ROOT_SETS, ids=range(len(ROOT_SETS)))
@pytest.mark.parametrize("c", [1, -3, F(2, 7)])
def test_negative_point_on_known_roots(roots, c):
    q = from_roots(roots, c)
    t = negative_point(q)
    if negative_somewhere(roots, c):
        assert t is not None and value(q, t) < 0 and t >= 0
    else:
        assert t is None


def test_random_products_of_powers():
    rng = random.Random(0)
    for _ in range(150):
        roots = {F(rng.randint(-8, 16), rng.choice([1, 2, 4, 3])): rng.randint(1, 4)
                 for _ in range(rng.randint(0, 4))}
        c = rng.choice([1, -1, F(-5, 2)])
        q = from_roots(roots, c)
        chain = sturm_chain(q)
        assert count_roots(chain, F(0), F(10)) == sum(0 < r <= 10 for r in roots)
        t = negative_point(q)
        assert (t is not None) == negative_somewhere(roots, c), (roots, c)
        assert t is None or value(q, t) < 0


def test_multiple_root_at_zero():
    # the plain Sturm chain of q vanishes at 0 in every member here
    q = [0, 0, 0, -4, 0, 0, 0, 0, 0, 0, 11]  # -4t^3 + 11t^10
    assert count_roots(sturm_chain(q), F(0), F(2)) == 1
    t = negative_point(q)
    assert t > 0 and value(q, t) < 0


def test_constant_and_zero_polynomials():
    for q in ([F(5)], [3, 0, 0]):
        assert count_roots(sturm_chain(q), F(-1), F(1)) == 0
        assert negative_point(q) is None
    assert negative_point([-2]) == 0
    for q in ([], [0], [F(0), 0]):
        assert negative_point(q) is None
        with pytest.raises(ValueError, match="zero polynomial"):
            sturm_chain(q)
