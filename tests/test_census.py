"""The orbit-reduced census of M_n against a brute-force oracle.

The oracle walks all n^(n-1) paths; the census walks one path per orbit of
the relabelings of vertices 3..n.  They must agree exactly.  The package's
array walk is pinned to dfs_cycle_walk, the depth-first walk it replaced.
"""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnpoly
from nnpoly.families import bound_table, safe_a_squared
from nnpoly.paths import (
    EnumerationCapExceeded,
    _census,
    _check_cycles,
    _cycle_walk,
    _distinct_rows,
    _orbit_sizes,
    _pack_canonical,
    all_nu,
    build_certificate,
    census_cap,
    enumerate_monomials,
    first_cycle,
    min_cycle_length,
    phi,
    psi,
)


def _canonical(m):
    """The orbit's canonical member: labels >= 3 renumbered 3, 4, ... in
    order of first occurrence."""
    relabel = {1: 1, 2: 2}
    for v in m:
        if v not in relabel:
            relabel[v] = len(relabel) + 1
    return tuple(map(relabel.__getitem__, m))


def _packed(m, n):
    """The interior labels of the path m over 1..n as base-(n+1) digits."""
    key = 0
    for v in m[1:-1]:
        key = key * (n + 1) + v
    return key


def packed_keys(rows, n):
    """_pack_canonical on the interior columns of rows, paths of one length."""
    X = np.array(rows, np.int8)
    key = np.empty(len(X), np.int64)
    _pack_canonical(key, X.T[1:-1], n)
    return key


def dfs_cycle_walk(n):
    """(m, r, k, p) for the canonical path m of each orbit of M_n, in
    lexicographic order: r its labels >= 3, k its minimal cycle length and p
    the start of its leftmost k-cycle, so that (p, k) == first_cycle(m, k).

    Depth-first: each interior vertex is 1, 2, a label >= 3 already used or
    the next unused one.  A prefix carries the last position of each vertex,
    so appending v at position q closes the cycle q - last[v]; k and p
    change only when it is shorter than every earlier one, so p is the
    leftmost start.  That k-cycle is simple: a repeat inside it would close
    a shorter cycle.
    """
    far = -n - 1  # the last position of an unseen vertex: no cycle from it counts
    stack = [((1,), 0, (far, 0) + (far,) * (n - 1), n + 1, 0)]
    while stack:
        m, r, last, k, p = stack.pop()
        q = len(m)
        if q < n:
            for v in range(min(r + 3, n), 0, -1):  # 1 pops first
                at = last[v]
                kv, pv = (q - at, at) if q - at < k else (k, p)
                stack.append((m + (v,), r + (v > 2 and at < 0),
                              last[:v] + (q,) + last[v + 1 :], kv, pv))
            continue
        if q - last[2] < k:
            k, p = q - last[2], last[2]
        m += (2,)
        if len(set(m[p : p + k])) != k:  # also catches k = n + 1, no repeat
            raise AssertionError("first k-cycle must be simple")
        yield m, r, k, p


def walk_rows(n):
    """The array walk as (m, r, k, p) tuples of Python ints, each row with
    the (k, p) of the run of classes it lies in."""
    M, r, classes = _cycle_walk(n)
    kp = [(k, p) for k, runs in classes.items() for p, a, z in runs for _ in range(a, z)]
    return [(tuple(row), ri, *c) for row, ri, c in zip(M.tolist(), r.tolist(), kp, strict=True)]


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


# k: (|M_{9,k}|, phi injective, nu(9,k)), recorded from the depth-first census
N9_TABLE = {
    1: (28133640, True, 9),
    2: (9788031, True, 57),
    3: (3387468, True, 245),
    4: (1135092, True, 720),
    5: (410130, True, 1481),
    6: (134400, True, 2780),
    7: (42840, True, 6120),
    8: (15120, True, 15120),
}


@pytest.mark.parametrize("n", range(2, 8))
def test_census_matches_brute_force(n):
    assert _census(n) == brute_census(n)


def test_census_n8_pinned():
    assert _census(8) == N8_TABLE


def test_census_n9_pinned():
    assert _census(9) == N9_TABLE
    assert census_cap(9) == Fraction(1, 3780)


@pytest.mark.parametrize("n", range(2, 9))
def test_census_cap_is_the_least_cap_of_bound_nu(n):
    # census_cap computes its cap itself; it must be the least of the
    # nu_cap_sq of the rows `bound --nu` prints and of their diagonal cap 4
    table = bound_table(n, nu_values=all_nu(n))
    diagonal = table.rows[-1]
    assert diagonal[0] == n and diagonal[3] == 4
    assert census_cap(n) == min(diagonal[3], *(r[4] for r in table.rows[:-1]))


def class_ordered(walk):
    """The rows (m, r, k, p) of walk sorted by the pair (k, p), keeping
    their order inside each (k, p) run, as _cycle_walk orders them."""
    return sorted(walk, key=lambda row: (row[2], row[3]))


@pytest.mark.parametrize("n", range(2, 9))
def test_walk_matches_depth_first_reference(n):
    # same rows in (k, p) order, lexicographic inside a run, with the same
    # r, k and p
    assert walk_rows(n) == class_ordered(dfs_cycle_walk(n))


@pytest.mark.parametrize("n", range(2, 10))
def test_walk_is_in_k_p_order_lexicographic_inside_each_run(n):
    # the census and the plan read each class as a slice, and the census
    # each p inside it as a run, whose phi images are two slice copies
    rows = walk_rows(n)
    keys = [(k, p) for _, _, k, p in rows]
    assert keys == sorted(keys)
    assert all(a[0] < b[0] for a, b in zip(rows, rows[1:]) if a[2:] == b[2:])


# (row, k, p) the walk's cycle check must refuse: a row with no repeated
# label, which no path of M_3 is, with k = n + 1 as the walk marks a row
# that closed no cycle, and a row whose window M[p:p+k] = (1, 3, 3)
# repeats the label 3
BAD_CYCLES = [([1, 3, 4, 2], 4, 0), ([1, 3, 3, 1], 3, 0)]
GOOD_CYCLE = ([1, 3, 1, 2], 2, 0)


def cycle_rows(*rows):
    """(M, classes) for rows given as (row, k, p): M their int8 array and
    classes a run of one row for each."""
    classes = {}
    for i, (_, k, p) in enumerate(rows):
        classes.setdefault(k, []).append((p, i, i + 1))
    return np.array([row for row, _, _ in rows], np.int8), classes


@pytest.mark.parametrize("bad", BAD_CYCLES)
def test_walk_cycle_check_fires(bad):
    _check_cycles(*cycle_rows(GOOD_CYCLE))
    for rows in ([GOOD_CYCLE, bad], [bad, GOOD_CYCLE]):
        with pytest.raises(AssertionError, match="^first k-cycle must be simple$"):
            _check_cycles(*cycle_rows(*rows))


def test_walk_cycle_check_survives_optimize():
    # the check is a raise, so python -O, which strips asserts, keeps it
    script = (
        "import numpy as np\n"
        "from nnpoly.paths import _check_cycles\n"
        f"for row, k, p in {BAD_CYCLES!r}:\n"
        "    try:\n"
        "        _check_cycles(np.array([row], np.int8), {k: [(p, 0, 1)]})\n"
        "    except AssertionError:\n"
        "        continue\n"
        "    raise SystemExit(f'{row} passed')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_walk_is_cached_and_read_only():
    walk = _cycle_walk(5)
    assert _cycle_walk(5) is walk
    M, r, classes = walk
    assert M.dtype == np.int8 and M.shape[1] == 6
    assert r.dtype == np.int8
    for a in (M, r):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(TypeError):
        classes[1] = ()
    assert all(type(runs) is tuple for runs in classes.values())


@pytest.mark.parametrize("n", range(2, 10))
def test_walk_runs_tile_the_rows(n):
    # each run is non-empty, the runs follow one another from row 0 to the
    # last, in strictly ascending (k, p), and every class k = 1..n-1 has one
    M, _, classes = _cycle_walk(n)
    runs = [(k, p, a, z) for k, class_runs in classes.items() for p, a, z in class_runs]
    assert all(a < z for _, _, a, z in runs)
    assert [a for _, _, a, _ in runs] == [0] + [z for _, _, _, z in runs[:-1]]
    assert runs[-1][3] == len(M)
    keys = [(k, p) for k, p, _, _ in runs]
    assert keys == sorted(set(keys))
    assert list(classes) == list(range(1, n))


def test_blocks_leave_the_walk_and_census_unchanged(monkeypatch):
    # with blocks of 5 rows every seam of the walk's last level, of its
    # cycle check and of the census's relabeling falls inside a class
    from nnpoly import paths

    monkeypatch.setattr(paths, "BLOCK", 5)
    paths._cycle_walk.cache_clear()
    paths._census_of.cache_clear()
    try:
        assert walk_rows(6) == class_ordered(dfs_cycle_walk(6))
        assert _census(6) == brute_census(6)
    finally:
        paths._cycle_walk.cache_clear()
        paths._census_of.cache_clear()


def test_walk_and_census_peaks_are_bounded_by_the_walk():
    # in numpy buffers, which tracemalloc traces, the walk and then the
    # census stay within 2.5 and 1.5 times 13 bytes a row at n = 9, M's 10
    # and 3 more, with one block of rows at a time and each class a range
    # of the (k, p)-ordered walk, not a copy
    from nnpoly import paths

    paths._cycle_walk.cache_clear()
    paths._census_of.cache_clear()
    tracemalloc.start()
    try:
        walk = paths._cycle_walk(9)
        walk_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        paths._census_of(9)
        census_peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    size = 13 * len(walk[0])
    assert walk_peak <= 2.5 * size
    assert census_peak <= 1.5 * size


def test_psi_key_fit_check_survives_optimize():
    # 17^14 * 15 < 2^63 <= 18^15 * 16: the census refuses n = 17, where its
    # int64 psi keys could wrap, before it walks anything, and reaches the
    # walk at n = 16; the check must raise even with asserts stripped by -O
    script = (
        "from nnpoly import paths\n"
        "def walk(n):\n"
        "    raise LookupError(n)\n"
        "paths._cycle_walk = walk\n"
        "try:\n"
        "    paths._census_of(16)\n"
        "except LookupError:\n"
        "    pass\n"
        "try:\n"
        "    paths._census_of(17)\n"
        "except OverflowError as e:\n"
        "    expected = \"n = 17: the census's psi keys would pass 2^63\"\n"
        "    raise SystemExit(0 if str(e) == expected else str(e))\n"
        "raise SystemExit('n = 17 walked')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_distinct_rows_keep_rows_a_packed_key_merges():
    # a base-11 int64 key, as a packing of rows of labels 1..10 would use,
    # wraps at length 20 and gives these two rows one key
    X = np.array([[1, 3, 1, 2, 1, 1, 5, 1, 1, 1, 1, 1, 1, 1, 2, 1, 3, 1, 1, 1],
                  [6, 1, 2, 1, 4, 2, 1, 6, 5, 2, 2, 3, 2, 3, 1, 5, 1, 1, 4, 4]],
                 np.int8)
    key = np.zeros(2, np.int64)
    for col in X.T:
        key = key * 11 + col
    assert key[0] == key[1]
    Y = X.copy()
    assert _distinct_rows(Y) is True
    assert Y.tolist() == X.tolist()
    Y = X[[1, 0, 1]]
    assert _distinct_rows(Y) is False
    assert Y.tolist() == X[[0, 1, 1]].tolist()


@st.composite
def rows_with_repeats(draw):
    """An int8 array of rows of labels 0..15, all of one length 1..31, drawn
    from a few distinct rows so that most rows repeat.  The distinct rows are
    a base row with one entry changed, so two of them may differ only in
    their last column."""
    length = draw(st.integers(1, 31))
    base = draw(st.lists(st.integers(0, 15), min_size=length, max_size=length))
    change = st.tuples(st.integers(0, length - 1), st.integers(0, 15))
    pool = [base] + [base[:i] + [v] + base[i + 1 :]
                     for i, v in draw(st.lists(change, max_size=6))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24))
    return np.array([pool[i] for i in picks], np.int8)


@settings(max_examples=200, deadline=None)
@given(rows_with_repeats())
def test_distinct_rows_match_sorted_tuples(X):
    rows = sorted(map(tuple, X.tolist()))
    Y = X.copy()
    assert _distinct_rows(Y) == (len(set(rows)) == len(rows))
    assert [tuple(row) for row in Y.tolist()] == rows


@st.composite
def paths_of_one_length(draw):
    """(rows, n): paths 1 -> ... -> 2 over 1..n, all of one length, each with
    its own labels, for one call of _pack_canonical."""
    n = draw(st.integers(3, 12))
    length = draw(st.integers(0, n))
    interior = st.lists(st.integers(1, n), min_size=length, max_size=length)
    rows = draw(st.lists(interior, min_size=1, max_size=12))
    return [(1, *row, 2) for row in rows], n


@settings(max_examples=200, deadline=None)
@given(paths_of_one_length())
def test_canonical_rows_match_reference_row_by_row(case):
    rows, n = case
    key = packed_keys(rows, n)
    assert key.tolist() == [_packed(_canonical(m), n) for m in rows]


@pytest.mark.parametrize("n, reps", [(2, 2), (3, 9), (7, 3262), (8, 17006), (9, 94827)])
def test_orbit_weights_cover_m_n(n, reps):
    size = _orbit_sizes(n)
    weights = [size[r] for _, r, _, _ in walk_rows(n)]
    assert len(weights) == reps
    assert sum(weights) == n ** (n - 1)


def walk_size(n):
    """R(n), the rows of _cycle_walk(n), counted without walking: a prefix
    with r labels >= 3 has r + 2 children that keep r, and one new label
    while r < n - 2."""
    ways = [1] + [0] * (n - 2)
    for _ in range(n - 1):
        ways = [w * (r + 2) + (ways[r - 1] if r else 0) for r, w in enumerate(ways)]
    return sum(ways)


def test_walk_size_counts_the_rows_of_the_walk():
    assert [walk_size(n) for n in range(2, 10)] == [len(_cycle_walk(n)[0]) for n in range(2, 10)]
    # the sizes the census limit paths.CENSUS_N_MAX = 11 was measured at
    assert [walk_size(n) for n in (10, 11, 12)] == [562_594, 3_535_026, 23_430_839]


def test_representatives_are_canonical_and_distinct():
    reps = [m for m, *_ in walk_rows(6)]
    assert all(_canonical(m) == m for m in reps)
    assert len(set(reps)) == len(reps)


def test_census_cap_is_on_all_paths(monkeypatch):
    from nnpoly import paths

    assert _census(5) == brute_census(5)
    monkeypatch.setattr(paths, "CENSUS_N_MAX", 4)
    with pytest.raises(EnumerationCapExceeded, match=r"^n = 5 is past the census limit n <= 4$"):
        _census(5)


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
    monkeypatch.setattr(paths, "CENSUS_N_MAX", 5)
    with pytest.raises(EnumerationCapExceeded):
        _census(6)  # the limit still holds after a cached success
    with pytest.raises(TypeError):
        first[1] = (0, False, 0)
    assert walks == [6] and first == brute_census(6)


@pytest.mark.parametrize("n, canonical", [(n, True) for n in range(2, 9)])
def test_walk_cycle_matches_first_cycle(n, canonical):
    # the walk's incremental (k, p) and r against the rescanning oracle, on
    # canonical orbit representatives
    for m, r, k, p in walk_rows(n):
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
    # the census's packed relabeling against the reference, row by row
    n = len(m) - 1
    key = packed_keys([sm, m, _canonical(m)], n)
    assert key.tolist() == [_packed(_canonical(m), n)] * 3


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
