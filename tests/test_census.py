"""The orbit-reduced census of M_n against a brute-force oracle.

The oracle walks all n^(n-1) paths; the census walks one path per orbit of
the relabelings of vertices 3..n.  They must agree exactly.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnpoly.families import safe_a_squared
from nnpoly.paths import (
    EnumerationCapExceeded,
    _canonical,
    _census,
    _cycle_walk,
    _orbit_sizes,
    build_certificate,
    enumerate_monomials,
    first_cycle,
    min_cycle_length,
    phi,
    psi,
)


def brute_census(n):
    """{k: (count, phi injective, nu)} by tallying every path of M_n."""
    stats = {}
    for m in enumerate_monomials(n, n):
        k = min_cycle_length(m)
        cyc = first_cycle(m, k)
        if k not in stats:
            stats[k] = [0, set(), Counter()]
        entry = stats[k]
        entry[0] += 1
        entry[1].add(phi(m, cyc))
        entry[2][psi(m, cyc)] += 1
    return {
        k: (count, len(phis) == count, max(psis.values()))
        for k, (count, phis, psis) in sorted(stats.items())
    }


# k: (|M_{8,k}|, phi injective, nu(8,k)), recorded from the brute-force tally
N8_TABLE = {
    1: (1376552, True, 8),
    2: (475614, True, 43),
    3: (162666, True, 149),
    4: (54840, True, 339),
    5: (19200, True, 556),
    6: (6120, True, 1020),
    7: (2160, True, 2160),
}


@pytest.mark.parametrize("n", range(2, 8))
def test_census_matches_brute_force(n):
    assert _census(n) == brute_census(n)


def test_census_n8_pinned():
    assert _census(8) == N8_TABLE


@pytest.mark.parametrize("n, reps", [(2, 2), (3, 9), (7, 3262), (8, 17006)])
def test_orbit_weights_cover_m_n(n, reps):
    size = _orbit_sizes(n)
    weights = [size[r] for _, r, _, _ in _cycle_walk(n)]
    assert len(weights) == reps
    assert sum(weights) == n ** (n - 1)


def test_representatives_are_canonical_and_distinct():
    reps = [m for m, *_ in _cycle_walk(6)]
    assert all(_canonical(m) == m for m in reps)
    assert len(set(reps)) == len(reps)


def test_census_cap_is_on_all_paths():
    assert _census(5, cap=5**4) == brute_census(5)
    with pytest.raises(EnumerationCapExceeded):
        _census(5, cap=5**4 - 1)


def test_census_computed_once_per_n(monkeypatch):
    from nnpoly import paths

    walks = []
    walk = paths._cycle_walk
    monkeypatch.setattr(paths, "_cycle_walk",
                        lambda n: walks.append(n) or walk(n))
    paths._census_of.cache_clear()
    first = _census(6)
    assert _census(6) is first
    assert walks == [6]
    with pytest.raises(EnumerationCapExceeded):
        _census(6, cap=6**5 - 1)  # the cap still holds after a cached success
    with pytest.raises(TypeError):
        first[1] = (0, False, 0)
    assert walks == [6] and first == brute_census(6)


@pytest.mark.parametrize("n, canonical", [(n, True) for n in range(2, 9)])
def test_walk_cycle_matches_first_cycle(n, canonical):
    # the walk's incremental (k, p) and r against the rescanning oracle, on
    # canonical orbit representatives
    for m, r, k, p in _cycle_walk(n):
        assert (_canonical(m) == m) is canonical
        assert r == len(set(m) - {1, 2})
        assert (p, k) == first_cycle(m, min_cycle_length(m))


@pytest.mark.parametrize("n", [1, 0])
def test_census_rejects_small_n(n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        _census(n)


def test_certificate_n9():
    rep = build_certificate(9, safe_a_squared(9))
    assert safe_a_squared(9) == Fraction(1, 20160)
    assert rep.verdict
    assert sum(count for _, count, _, _, _ in rep.per_k) == 9**8


@st.composite
def path_and_relabeling(draw):
    """A path of M_n and a permutation sigma of 3..n, as a vertex map."""
    n = draw(st.integers(3, 8))
    m = (1, *draw(st.lists(st.integers(1, n), min_size=n - 1, max_size=n - 1)), 2)
    image = draw(st.permutations(range(3, n + 1)))
    sigma = {1: 1, 2: 2, **dict(zip(range(3, n + 1), image))}
    return m, sigma


def relabel(sigma, m):
    return tuple(sigma[v] for v in m)


@settings(max_examples=200, deadline=None)
@given(path_and_relabeling())
def test_relabeling_commutes(case):
    m, sigma = case
    sm = relabel(sigma, m)
    k = min_cycle_length(m)
    cyc = first_cycle(m, k)
    assert min_cycle_length(sm) == k
    assert first_cycle(sm, k) == cyc
    assert phi(sm, cyc) == relabel(sigma, phi(m, cyc))
    assert psi(sm, cyc) == relabel(sigma, psi(m, cyc))
    assert _canonical(sm) == _canonical(m)


@settings(max_examples=200, deadline=None)
@given(path_and_relabeling())
def test_psi_undoes_phi(case):
    m, _ = case
    cyc = first_cycle(m, min_cycle_length(m))
    assert psi(phi(m, cyc), cyc) == m


@settings(max_examples=200, deadline=None)
@given(path_and_relabeling())
def test_phi_keeps_canonical_form(case):
    # the census compares raw phi images of representatives
    m = _canonical(case[0])
    f = phi(m, first_cycle(m, min_cycle_length(m)))
    assert _canonical(f) == f
