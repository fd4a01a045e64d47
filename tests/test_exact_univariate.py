"""Root counts and negative points against polynomials built from known
roots: q = c * prod (t - r)^k, with the truth read off the roots, and
against a slow two-pass reference of the chain and the bisection."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nnpoly import exact_univariate
from nnpoly.exact_univariate import count_roots, negative_point, sturm_chain
from nnpoly.families import make_f_a, make_p_a
from nnpoly.linalg import _scaled_ints, poly_eval
from nnpoly.witness import _family_rows

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


def reference_sturm_chain(q):
    """The slow reference: one Euclid pass for g = gcd(q, q'), then a second
    for the plain chain s, s', -rem(s, s'), ... of s = q / g."""
    _divmod, _derivative = exact_univariate._divmod, exact_univariate._derivative
    q = exact_univariate._trim(q)
    g, h = q, _derivative(q)
    while h:
        g, h = h, _divmod(g, h)[1]
    chain = [_divmod(q, g)[0]]
    chain.append(_derivative(chain[0]))
    while chain[-1]:
        chain.append([-x for x in _divmod(chain[-2], chain[-1])[1]])
    return chain[:-1]


def reference_negative_point(q):
    """The slow reference: bisect (0, B] to the end, keep every piece end in
    a set, and test the ends in sorted order.  Returns (chain, t)."""
    q = exact_univariate._trim(q)
    B = 1 + max((abs(F(c) / q[-1]) for c in q[:-1]), default=0)
    chain = reference_sturm_chain(q)
    pieces, ends = [(F(0), B)], {F(0), B}
    while pieces:
        lo, hi = pieces.pop()
        k = count_roots(chain, lo, hi)
        if k > 1 or k == 1 and poly_eval(q, lo) == 0:
            mid = (lo + hi) / 2
            pieces += [(lo, mid), (mid, hi)]
            ends.add(mid)
    return chain, next((t for t in sorted(ends) if poly_eval(q, t) < 0), None)


CORPUS = json.loads((Path(__file__).parent / "data" / "falsify_corpus.json").read_text())


def assert_as_reference(row):
    """negative_point(row) is the reference's t, and both chains count the
    same roots on a few intervals; returns that t."""
    reference, t = reference_negative_point(row)
    assert negative_point(row) == t, row
    chain = sturm_chain(row)
    for lo, hi in ((F(-1), F(0)), (F(0), F(1))):
        assert count_roots(chain, lo, hi) == count_roots(reference, lo, hi), (row, lo, hi)
    return t


def test_single_pass_matches_the_two_pass_reference():
    # every corpus case, through the row family_witness stops at; p_a's
    # Jordan row i = n - 1, the one that binds from n = 5 on; random products
    # with dyadic roots and roots at 0; and the root sets with roots on
    # bisection points
    cases = [([F(x) for x in case["coeffs"]], case["m"]) for case in CORPUS["general"]]
    cases += [(make_f_a([F(x) for x in case["d"]], F(case["a"])), case["m"]) for case in CORPUS["cases"]]
    seen = {}
    for coeffs, m in cases:
        for _, _, row in _family_rows(_scaled_ints(coeffs)[1], m):
            row = tuple(row)
            if row not in seen:
                seen[row] = assert_as_reference(row) if any(row) else None
            if seen[row] is not None:
                break
    rows = {tuple(list(_family_rows(_scaled_ints(make_p_a(n, a))[1], n))[n - 1][2])
            for n in range(2, 13) for a in (F(7, 4), F(19, 10), F(2), 2 + F(1, 10**9))}
    rng = random.Random(36)
    for _ in range(150):
        roots = {F(rng.randint(-8, 24), 2 ** rng.randint(0, 4)): rng.randint(1, 3)
                 for _ in range(rng.randint(0, 4))}
        if rng.random() < 0.3:
            roots[F(0)] = rng.randint(1, 3)
        rows.add(tuple(from_roots(roots, rng.choice([1, -1, F(-5, 2)]))))
    rows |= {tuple(from_roots(roots, c)) for roots in ROOT_SETS for c in (1, -3)}
    # rows with a t^v factor, whose chain negative_point builds without it:
    # p_a's rows with a zero constant term, and the root sets times t^v
    rows |= {tuple(row) for n in range(2, 9) for a in (F(7, 4), F(2))
             for _, _, row in _family_rows(_scaled_ints(make_p_a(n, a))[1], n) if not row[0]}
    rows |= {(0,) * v + tuple(from_roots(roots, c))
             for roots in ROOT_SETS for c in (1, -3) for v in (1, 2, 5)}
    for row in rows - seen.keys():
        assert_as_reference(row)
    assert len(seen.keys() | rows) > 2000


def test_sturm_chain_is_one_remainder_sequence(monkeypatch):
    # a square-free row: one _divmod per remainder, the zero one included,
    # and no division by the constant gcd
    ints = _scaled_ints(make_p_a(9, F(7, 4)))[1]
    row = [row for _, _, row in _family_rows(ints, 9)][8]  # Jordan row i = n - 1
    calls = []
    divmod_ = exact_univariate._divmod
    monkeypatch.setattr(exact_univariate, "_divmod", lambda a, b: calls.append(1) or divmod_(a, b))
    chain = sturm_chain(row)
    assert len(chain[-1]) == 1 and len(chain) > 2
    assert len(calls) == len(chain) - 1


def test_negative_point_builds_its_chain_without_the_power_of_t(monkeypatch):
    q = [0, 0, 0, -4, 0, 0, 0, 0, 0, 0, 11]  # -4t^3 + 11t^10
    args = []
    chain = exact_univariate.sturm_chain
    monkeypatch.setattr(exact_univariate, "sturm_chain", lambda q: args.append(q) or chain(q))
    t = negative_point(q)
    assert args == [[-4, 0, 0, 0, 0, 0, 0, 11]]
    assert t == reference_negative_point(q)[1] and value(q, t) < 0


@pytest.mark.parametrize("c", [-1, 1])
def test_negative_point_stops_at_its_first_negative_point(monkeypatch, c):
    # no piece right of the returned t is counted
    q = from_roots({F(1, 8): 1, F(3): 1, F(5): 1, F(7): 1}, c)
    starts = []
    count = exact_univariate.count_roots
    monkeypatch.setattr(exact_univariate, "count_roots",
                        lambda chain, lo, hi: starts.append(lo) or count(chain, lo, hi))
    t = negative_point(q)
    assert t is not None and t == reference_negative_point(q)[1] and value(q, t) < 0
    assert starts and all(lo <= t for lo in starts)
