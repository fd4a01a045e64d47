import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, lcm, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import nnpoly
import nnpoly.paths as paths_module
from nnpoly.bracket import certified_cap
from nnpoly.families import mu, safe_a_squared
from nnpoly.linalg import exact_powers
from nnpoly.paths import (
    EnumerationCapExceeded,
    all_nu,
    build_certificate,
    count_monomials,
    enumerate_monomials,
    exact_nu,
    first_cycle,
    min_cycle_length,
    monomial_value,
    numeric_decomposition_check,
    partition_stats,
    phi,
    psi,
    verify_certificate_on_matrix,
)
from list_kernels import mat_pow
from test_census import dfs_cycle_walk
from test_exact_kernel import decomposition_oracle

F = Fraction

PAPER_PATH = (1, 3, 5, 7, 3, 10, 6, 4, 12, 10, 7, 5, 2)


def test_enumerate_single_path():
    assert list(enumerate_monomials(2, 1)) == [(1, 2)]


def test_enumerate_count_and_endpoints():
    paths = list(enumerate_monomials(3, 3))
    assert len(paths) == 9
    assert all(m[0] == 1 and m[-1] == 2 and len(m) == 4 for m in paths)


def test_enumerate_keeps_order_distinct():
    # same multiset of edges, different order: two distinct monomials
    paths = set(enumerate_monomials(6, 5))
    assert (1, 1, 4, 6, 1, 2) in paths
    assert (1, 4, 6, 1, 1, 2) in paths


def test_enumerate_lexicographic_matches_index():
    paths = list(enumerate_monomials(3, 3))
    assert paths == sorted(paths)
    # the i-th path spells i in base 3, digits shifted to vertices 1..3
    assert paths == [(1, i // 3 + 1, i % 3 + 1, 2) for i in range(9)]


def test_enumerate_cap_guard():
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_monomials(10, 12, cap=10**6))


def test_count_monomials():
    assert count_monomials(3, 3) == len(list(enumerate_monomials(3, 3))) == 9
    assert count_monomials(10, 12, cap=10**11) == 10**11
    with pytest.raises(EnumerationCapExceeded):
        count_monomials(10, 12, cap=10**6)
    with pytest.raises(ValueError):
        count_monomials(1, 3)


def test_count_monomials_cap_beyond_printable_power():
    # 10^4999 has more digits than int-to-str conversion allows; the cap
    # is decided without building or printing it
    with pytest.raises(EnumerationCapExceeded, match=r"^n\^\(j-1\) = 10\^4999 exceeds cap"):
        count_monomials(10, 5000)
    # near the cap the power is still built and reported exactly
    with pytest.raises(EnumerationCapExceeded, match="= 1000000000 exceeds"):
        count_monomials(10, 10)


def test_min_cycle_length_loop():
    assert min_cycle_length((1, 1, 3, 2)) == 1


def test_min_cycle_length_paper_example():
    assert min_cycle_length(PAPER_PATH) == 3


def test_min_cycle_length_two_cycle():
    assert min_cycle_length((1, 2, 1, 2)) == 2


def test_min_cycle_length_requires_repeat():
    with pytest.raises(ValueError):
        min_cycle_length((1, 3, 2))


def test_first_cycle_examples():
    assert first_cycle(PAPER_PATH, 3) == (1, 3)
    assert first_cycle((1, 1, 2), 1) == (0, 1)
    assert first_cycle((1, 2, 1, 2), 2) == (0, 2)


def test_first_cycle_wrong_k():
    with pytest.raises(ValueError):
        first_cycle((1, 1, 2), 2)


def test_phi_psi_paper_example():
    cyc = first_cycle(PAPER_PATH, 3)
    assert phi(PAPER_PATH, cyc) == (1, 3, 5, 7, 3, 5, 7, 3, 10, 6, 4, 12, 10, 7, 5, 2)
    assert psi(PAPER_PATH, cyc) == (1, 3, 10, 6, 4, 12, 10, 7, 5, 2)


def test_phi_psi_small_examples():
    assert phi((1, 1, 2), (0, 1)) == (1, 1, 1, 2)
    assert psi((1, 1, 2), (0, 1)) == (1, 2)
    assert phi((1, 2, 1, 2), (0, 2)) == (1, 2, 1, 2, 1, 2)
    assert psi((1, 2, 1, 2), (0, 2)) == (1, 2)


def test_phi_rejects_bad_cycle():
    with pytest.raises(ValueError):
        phi((1, 1, 2), (0, 2))


def test_consecutive_cycle_bookkeeping():
    # z = 3->4->3 repeats twice in m, three times in phi(m), once in psi(m)
    m = (1, 3, 4, 3, 4, 3, 2)
    k = min_cycle_length(m)
    assert k == 2
    cyc = first_cycle(m, k)
    assert phi(m, cyc) == (1, 3, 4, 3, 4, 3, 4, 3, 2)
    assert psi(m, cyc) == (1, 3, 4, 3, 2)


def test_partition_stats_n2():
    assert partition_stats(2) == [(1, 2)]


def test_partition_stats_n3():
    assert partition_stats(3) == [(1, 6), (2, 3)]


def test_partition_sums_to_total():
    for n in range(2, 7):
        stats = partition_stats(n)
        assert sum(c for _, c in stats) == n ** (n - 1)
        assert [k for k, _ in stats] == list(range(1, n))


def test_exact_nu_small():
    assert exact_nu(2, 1) == 2
    assert exact_nu(3, 2) == 3
    assert exact_nu(3, 1) == 3


def test_exact_nu_bounded_by_mu():
    for n in range(2, 7):
        for k, nu in zip(range(1, n), all_nu(n)):
            assert 1 <= nu <= mu(n, k)


def test_exact_nu_k_out_of_range():
    with pytest.raises(ValueError):
        exact_nu(3, 3)
    with pytest.raises(ValueError, match="n must be >= 2"):
        exact_nu(1, 1)


def test_build_certificate_n2():
    rep = build_certificate(2, F(2))
    assert rep.verdict
    assert rep.per_k == [(1, 2, True, 2, 2)]


def test_build_certificate_n3():
    assert build_certificate(3, F(1)).verdict


def test_build_certificate_rejects_huge_a():
    assert not build_certificate(3, F(100)).verdict


def test_certificate_json_roundtrip():
    import json

    rep = build_certificate(3, F(1))
    j = json.loads(json.dumps(rep.to_json()))
    assert j["verdict"] is True
    assert j["a_sq"] == "1"
    assert len(j["per_k"]) == 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_value_identity(data):
    n = data.draw(st.integers(2, 4))
    A = [[F(data.draw(st.integers(0, 6))) for _ in range(n)] for _ in range(n)]
    idx = data.draw(st.integers(0, n ** (n - 1) - 1))
    m = list(enumerate_monomials(n, n))[idx]
    k = min_cycle_length(m)
    cyc = first_cycle(m, k)
    f, g = phi(m, cyc), psi(m, cyc)
    assert len(f) == len(m) + k and len(g) == len(m) - k
    assert f[0] == g[0] == 1 and f[-1] == g[-1] == 2
    assert monomial_value(f, A) * monomial_value(g, A) == monomial_value(m, A) ** 2
    # m is g with its first cycle, of value c, inserted once and f twice
    p, _ = cyc
    c = monomial_value(m[p : p + k + 1], A)
    assert monomial_value(m, A) == monomial_value(g, A) * c
    assert monomial_value(f, A) == monomial_value(g, A) * c * c


@pytest.mark.parametrize("A, a_sq", [
    ([[F(0)] * 2 for _ in range(2)], F(2)),
    # every psi(m) is worth 0 and every cycle fails AM-GM: those paths add
    # nothing to either side
    ([[F(1), F(0)], [F(0), F(1)]], F(50)),
], ids=["zero", "identity"])
def test_decomposition_check_zero_matrix(A, a_sq):
    assert numeric_decomposition_check(2, a_sq, A)
    assert decomposition_oracle(2, a_sq, A)


def test_decomposition_check_all_ones():
    J = [[F(1)] * 2 for _ in range(2)]
    assert numeric_decomposition_check(2, F(2), J)


def test_decomposition_check_random():
    import random

    rng = random.Random(7)
    for _ in range(10):
        A = [[F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        assert numeric_decomposition_check(3, F(1), A)


@pytest.mark.parametrize("tamper", [
    lambda count, inj, nu, m: (count, False, nu),
    lambda count, inj, nu, m: (count, inj, m + 1),
], ids=["phi_not_injective", "nu_above_mu"])
def test_decomposition_check_reads_budgets_from_census(monkeypatch, tamper):
    # the budgets come from the census alone, so a census in which one
    # class breaks either budget must fail the check
    census = paths_module._census

    def broken(n):
        stats = dict(census(n))
        stats[1] = tamper(*stats[1], mu(n, 1))
        return stats

    A = [[F(1)] * 3 for _ in range(3)]
    assert numeric_decomposition_check(3, F(1), A)
    monkeypatch.setattr(paths_module, "_census", broken)
    assert not numeric_decomposition_check(3, F(1), A)


@pytest.mark.parametrize("n,A", [
    (3, [[0, 5, F(15, 2)], [1, F(13, 9), 1], [1, F(2, 3), F(11, 4)]]),
    (4, [[3, F(1, 3), 4, 4], [5, F(2, 3), F(4, 3), 4], [F(8, 9), F(4, 3), 3, F(5, 2)],
         [1, F(13, 3), F(2, 3), F(15, 4)]]),
], ids=["n3", "n4"])
def test_decomposition_check_holds_at_certified_cap(n, A):
    # p_a(A) >= 0 at the certified cap (4/3 and 4/7), and the check replays
    # the proof of that with the weight 1/nu(n,k) that the cap divides by
    a_sq, _ = certified_cap(n)
    assert verify_certificate_on_matrix(n, a_sq, A)
    assert numeric_decomposition_check(n, a_sq, A)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decomposition_check_holds_up_to_certified_cap(data):
    n = data.draw(st.integers(2, 4))
    # entries near 1 balance v(g)/nu against v(f), where a weight 1/mu fails
    entry = st.one_of(st.integers(0, 3),
                      st.fractions(min_value=0, max_value=3, max_denominator=8))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    assert numeric_decomposition_check(n, certified_cap(n)[0], A)


@pytest.mark.parametrize("check", [verify_certificate_on_matrix, numeric_decomposition_check])
def test_check_scales_its_matrix_once(monkeypatch, check):
    # B, D and every power the check reads come from one exact_powers
    calls = []

    def counted(A, top):
        calls.append(top)
        return exact_powers(A, top)

    monkeypatch.setattr(paths_module, "exact_powers", counted)
    A = [[F(1, 2), 1, F(3, 4)], [0, F(5, 3), 1], [2, F(1, 6), 0]]
    assert check(3, F(1), A) is True
    assert calls == [3]


def test_decomposition_check_rejects_negative_matrix():
    with pytest.raises(ValueError):
        numeric_decomposition_check(2, F(2), [[F(-1), F(0)], [F(0), F(0)]])


@pytest.mark.parametrize("n", range(2, 8))
def test_decomposition_plan_matches_oracle(n):
    # the runs of expanded orbit representatives against rescanning every
    # path of M_n: each path once, in a run of its class k, its edges read
    # back from their indices in B.ravel(), psi(m)'s first and the k edges
    # of the first minimal cycle at its representative's start p last
    p = paths_module._cycle_walk(n)[3].tolist()  # the plan's rows are the walk's
    got = []
    for k, rep, index in paths_module._expanded_paths(n):
        assert len(rep) == len(index) <= paths_module.CHUNK
        for i, row in zip(rep.tolist(), index.tolist()):
            edges = [divmod(e, n) for e in row]  # (s-1, t-1) of each edge s -> t
            g = edges[: n - k]
            walk = g[: p[i]] + edges[n - k :] + g[p[i] :]
            assert [s for s, _ in walk[1:]] == [t for _, t in walk[:-1]]
            got.append(((walk[0][0] + 1, *(t + 1 for _, t in walk)), (p[i], k)))
    expect = [(m, first_cycle(m, min_cycle_length(m))) for m in enumerate_monomials(n, n)]
    assert sorted(got) == expect


@pytest.mark.parametrize("n", range(2, 9))
def test_relabeling_table_strides_give_permutations(n):
    # sigma(v) is read off the image of the loop v -> v in each row; the
    # rows fix 1 and 2, map every edge s -> t to sigma(s) -> sigma(t), and
    # at stride (n-2-r)! restrict to each r-permutation of 3..n once, in
    # itertools order
    table = paths_module._decomposition_plan(n)[3]
    assert table.dtype == np.int16 and table.shape == (factorial(n - 2), n * n)
    sigma = table[:, :: n + 1] // n  # sigma(v) - 1 for v = 1..n
    assert (sigma[:, :2] == [0, 1]).all()
    assert (table == (sigma[:, :, None] * n + sigma[:, None, :]).reshape(len(table), -1)).all()
    for r in range(n - 1):
        rows = sigma[:: factorial(n - 2 - r), 2 : r + 2] + 1
        assert [tuple(row) for row in rows.tolist()] == list(
            itertools.permutations(range(3, n + 1), r))


def planned_paths(n, rows):
    """(k, psi(m), cycle) for each path m of M_n, exactly once: k its class,
    psi(m) and its first k-cycle given by the entries rows[s][t] of their
    edges s -> t.  Each representative of dfs_cycle_walk is relabeled by
    each injective map of its labels >= 3 into 3..n, one path at a time."""
    relabelings = [[(0, 1, 2, *labels)
                    for labels in itertools.permutations(range(3, n + 1), r)]
                   for r in range(n - 1)]
    for m, r, k, p in dfs_cycle_walk(n):
        edges = list(zip(m, m[1:]))
        for sigma in relabelings[r]:
            x = [rows[sigma[s]][sigma[t]] for s, t in edges]
            # m[p] == m[p+k]: edges p..p+k-1 are the cycle, psi cuts them out
            yield k, x[:p] + x[p + k :], x[p : p + k]


def decomposition_reference(n, a_sq, A):
    """numeric_decomposition_check one path at a time on Python ints: "ok"
    where the check is True, else the test that fails first: "census",
    "termwise" or "covered"."""
    D, (_, B) = exact_powers(A, 1)
    p, q = paths_module._a_sq_ratio(a_sq)
    if paths_module.census_cap(n) is None:
        return "census"
    census = paths_module._census(n)
    N = lcm(*(nu for _, _, nu in census.values()))
    wg = {k: D ** (2 * k) * (N // nu) for k, (_, _, nu) in census.items()}
    wm = {k: p * (N * D**k) ** 2 for k in census}
    total = dict.fromkeys(census, 0)
    rows = [(), *((0, *row) for row in B)]  # rows[s][t] is B_{s,t}
    for k, xg, xc in planned_paths(n, rows):
        vg = prod(xg)
        if not vg:
            continue
        c = prod(xc)
        w = wg[k] + N * c * c
        if q * w * w < wm[k] * c * c:
            return "termwise"
        total[k] += vg * w
    covered = sum(D ** (n - k) * t for k, t in total.items())
    # the positive part of entry (1,2), D^(2n) sum_{j != n} (A^j)_{1,2}
    S = D ** (2 * n) * sum(mat_pow(A, j)[0][1] for j in range(2 * n + 1) if j != n)
    return "ok" if covered <= N * S else "covered"


def census_with_nu_one(census):
    """The census with every nu(n,k) set to 1.  nu <= mu still holds, so
    census_cap accepts it at 4, but each psi image is charged once per
    pre-image, so the covered sum can pass the positive part."""
    def tampered(n):
        return {k: (count, inj, 1) for k, (count, inj, _) in census(n).items()}
    return tampered


def check_against_reference(n, scale, A, tamper):
    """(check, reference) at a_sq = scale * census_cap(n)."""
    census = paths_module._census
    with mock.patch.object(paths_module, "_census",
                           census_with_nu_one(census) if tamper else census):
        a_sq = paths_module.census_cap(n) * scale
        return (numeric_decomposition_check(n, a_sq, A),
                decomposition_reference(n, a_sq, A))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decomposition_check_matches_reference(data):
    n = data.draw(st.integers(2, 5))
    # zeros give paths with v(g) = 0, which add nothing and skip the test
    entry = st.one_of(st.just(0), st.integers(0, 3),
                      st.fractions(min_value=0, max_value=4, max_denominator=256))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    # at the cap, above it and far above it
    scale = data.draw(st.sampled_from([1, F(17, 16), 100, 10**4]))
    check, reference = check_against_reference(n, scale, A, data.draw(st.booleans()))
    event(reference)
    assert check == (reference == "ok")


@pytest.mark.parametrize("n, scale, A, tamper, reference", [
    (3, 1, [[F(1)] * 3 for _ in range(3)], False, "ok"),
    (3, 10**4, [[F(1)] * 3 for _ in range(3)], False, "termwise"),
    # psi(m) = (1, 2) for three paths m of class 2, and with nu = 1 each
    # charges v(1 -> 2) in full
    (3, 1, [[0, 1, 0], [1, 0, 0], [0, 0, 0]], True, "covered"),
    # every path with a failing cycle has v(g) = 0
    (2, 25, [[F(1), F(0)], [F(0), F(1)]], False, "ok"),
], ids=["ok", "termwise", "covered", "zero_skip"])
def test_decomposition_check_branches(n, scale, A, tamper, reference):
    assert check_against_reference(n, scale, A, tamper) == (reference == "ok", reference)


def seeded_matrices_with_zeros(n, seed, count=3):
    """count n x n matrices of small fractions, about a third of the entries 0."""
    rng = random.Random(f"{seed}:{n}")
    return [[[F(rng.randint(0, 4), rng.randint(1, 3)) if rng.random() < 0.67 else F(0)
              for _ in range(n)] for _ in range(n)] for _ in range(count)]


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("tamper", [False, True], ids=["census", "nu_one"])
def test_decomposition_check_small_chunks_match_reference(monkeypatch, n, tamper):
    # chunks of a prime number of paths cut inside class runs and across
    # label counts, and each verdict must still be the per-path reference's
    monkeypatch.setattr(paths_module, "CHUNK", 7)
    outcomes = set()
    for A in seeded_matrices_with_zeros(n, seed=29):
        for scale in (1, F(17, 16), 100, 10**4):
            check, reference = check_against_reference(n, scale, A, tamper)
            assert check == (reference == "ok"), (A, scale)
            outcomes.add(reference)
    assert "ok" in outcomes and len(outcomes) > 1


@pytest.mark.parametrize("n", range(2, 6))
def test_expanded_paths_do_not_depend_on_chunk(monkeypatch, n):
    # chunks of 7 paths give the same paths, classes and rows, in the same
    # order, as one chunk of all n^(n-1)
    def expanded():
        return [(k, i, tuple(e)) for k, rep, index in paths_module._expanded_paths(n)
                for i, e in zip(rep.tolist(), index.tolist())]

    whole = expanded()
    monkeypatch.setattr(paths_module, "CHUNK", 7)
    assert expanded() == whole and len(whole) == n ** (n - 1)


def test_decomposition_check_n6_matches_reference():
    # 7,776 paths: two chunks at the default CHUNK
    (A,) = seeded_matrices_with_zeros(6, seed=6, count=1)
    assert 6**5 > paths_module.CHUNK
    assert check_against_reference(6, 1, A, False) == (True, "ok")
    assert check_against_reference(6, 10**4, A, False) == (False, "termwise")


def test_decomposition_cap_guard_after_cached_success():
    # the census of M_10 fits, but the check would expand all 10^9 paths
    A = [[F(1)] * 10 for _ in range(10)]
    a_sq = paths_module.census_cap(10)  # computes and caches the census
    assert a_sq == F(1, 30240)
    with pytest.raises(EnumerationCapExceeded, match=r"10\^9 = 1000000000 exceeds cap"):
        numeric_decomposition_check(10, a_sq, A)


def test_decomposition_plan_not_built_for_refused_n():
    paths_module._decomposition_plan.cache_clear()
    with pytest.raises(EnumerationCapExceeded):
        numeric_decomposition_check(10, F(1), [[F(1)] * 10 for _ in range(10)])
    assert paths_module._decomposition_plan.cache_info().currsize == 0


@pytest.mark.parametrize("check", [verify_certificate_on_matrix, numeric_decomposition_check])
def test_matrix_order_must_equal_n(check):
    with pytest.raises(ValueError, match="matrix order must equal n"):
        check(4, F(1, 3), [[F(1)] * 3 for _ in range(3)])
    with pytest.raises(ValueError, match="matrix order must equal n"):
        check(2, F(2), [[F(1)] * 3 for _ in range(3)])


def test_end_to_end_membership_on_random():
    import random

    rng = random.Random(11)
    for n in (2, 3):
        cap = safe_a_squared(n)
        for _ in range(20):
            A = [[F(rng.randint(0, 12), 4) for _ in range(n)] for _ in range(n)]
            assert verify_certificate_on_matrix(n, cap, A)


def test_first_cycle_check_survives_optimize():
    # a wrong minimal length makes the leftmost cycle non-simple; the check
    # must raise even with asserts stripped by -O
    script = (
        "from nnpoly import paths\n"
        "paths.min_cycle_length = lambda m: 2\n"
        "try:\n"
        "    paths.first_cycle((1, 1, 1, 2), 2)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('non-simple cycle accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
