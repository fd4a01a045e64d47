import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nnpoly
from nnpoly.bracket import SCALE_SWEEP
from nnpoly.families import make_f_a, make_p_a
from nnpoly import witness
from nnpoly.linalg import poly_eval_matrix
from nnpoly.witness import WitnessReport, cycle_witness, family_witness
from list_kernels import horner, min_entry

F = Fraction


@pytest.mark.parametrize("n", range(2, 10))
def test_family_falsifies_p_a_at_2n(n):
    # entry (1,1) of p_{2n}(P) is 2 - 2n for the n-cycle shift P, a member
    # of the cycle family; the Jordan family, checked first, may hit sooner
    rep = family_witness(make_p_a(n, 2 * n), n)
    assert rep is not None and rep.m == n and rep.reverify()


def test_cycle_witness_n2():
    rep = cycle_witness(2, F(1), F(1))
    assert rep.m == 3
    assert rep.entry == (1, 3)
    assert rep.value == F(-1)
    assert rep.method == "structured-cycle"
    assert rep.reverify()


def test_cycle_witness_n3_fractional_a():
    rep = cycle_witness(3, F(1, 2), F(1))
    assert rep.entry == (1, 4)
    assert rep.value == F(-1, 2)
    assert rep.reverify()


def test_cycle_witness_scaling():
    rep = cycle_witness(2, F(1), F(2))
    assert rep.value == F(-4)


def test_cycle_witness_any_positive_a_and_t():
    for n in (2, 3, 4):
        for a in (F(1, 7), F(3)):
            for t in (F(1, 3), F(5, 2)):
                rep = cycle_witness(n, a, t)
                assert rep.value == -a * t**n
                assert rep.reverify()


def test_cycle_witness_rejects_bad_args():
    with pytest.raises(ValueError):
        cycle_witness(1, F(1))
    with pytest.raises(ValueError):
        cycle_witness(2, F(0))


def test_family_finds_x2_minus_1_witness():
    rep = family_witness([F(-1), F(0), F(1)], 1)
    assert (rep.matrix, rep.value, rep.method) == ([[F(0)]], F(-1), "jordan-family")
    assert rep.reverify()


def test_family_cross_checks_cycle_structure():
    # p_1 for n=2 must fail at order 3; the structured oracle says so
    rep = family_witness(make_p_a(2, F(1)), 3)
    assert rep is not None
    assert rep.reverify()
    assert cycle_witness(2, F(1)).reverify()


def test_family_no_witness_for_nonneg_coeffs():
    coeffs = [F(1), F(4), F(6), F(4), F(1)]  # (1+x)^4
    assert family_witness(coeffs, 2) is None


def test_family_witness_deterministic():
    a = family_witness(make_p_a(2, F(2)), 2)
    b = family_witness(make_p_a(2, F(2)), 2)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.to_json() == b.to_json()


def test_witness_json_reverifies():
    rep = cycle_witness(3, F(2, 3))
    j = rep.to_json()
    rebuilt = WitnessReport(
        poly=[F(c) for c in j["poly"]],
        m=j["m"],
        matrix=[[F(x) for x in row] for row in j["matrix"]],
        entry=tuple(j["entry"]),
        value=F(j["value"]),
        method=j["method"],
    )
    assert rebuilt.reverify()


def test_reverify_rejects_tampering():
    rep = cycle_witness(2, F(1))
    rep.value = F(-2)
    assert not rep.reverify()


def test_soundness_exact_value():
    rep = family_witness(make_p_a(2, F(3)), 2)
    C = poly_eval_matrix(rep.poly, rep.matrix)
    assert C[rep.entry[0] - 1][rep.entry[1] - 1] == rep.value < 0


def test_cycle_witness_check_survives_optimize():
    # a wrong evaluation must be caught even with asserts stripped by -O, by
    # _verified_report, the one check every built witness passes: all zeros
    # fails every build; one negative cell off the closed form's entry fails
    # the builds with a closed form and is family_witness's report
    script = (
        "import numpy as np\n"
        "from nnpoly import bracket, witness\n"
        "from nnpoly.families import make_p_a\n"
        "def zeros(p, A):\n"
        "    return 1, np.zeros((len(A),) * 2, dtype=object)\n"
        "def last_cell(p, A):\n"
        "    den, N = zeros(p, A)\n"
        "    N[-1, -1] = -1\n"
        "    return den, N\n"
        "shifts = [lambda: witness.cycle_witness(2, 1), lambda: bracket.bracket_optimal_a(3)]\n"
        "for fake, calls in [(zeros, shifts + [lambda: witness.family_witness([-1, 0, 1], 1)]),\n"
        "                    (last_cell, shifts)]:\n"
        "    witness.poly_eval_ratio = fake\n"
        "    for build in calls:\n"
        "        try:\n"
        "            build()\n"
        "        except AssertionError:\n"
        "            continue\n"
        "        raise SystemExit('wrong evaluation accepted')\n"
        "rep = witness.family_witness(make_p_a(2, 3), 2)\n"
        "if (rep.entry, rep.value) != ((2, 2), -1):\n"
        "    raise SystemExit('family report not at the negative cell')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def reference_report(coeffs, A):
    """(value, entry) of the first most negative entry of the Fraction
    matrix p(A), or None: the oracle for the numerator scan of
    witness._verified_report, which raises where this is None."""
    val, r, c = min_entry(poly_eval_matrix(coeffs, A))
    return (val, (r, c)) if val < 0 else None


def probe_matrices(m):
    for t in SCALE_SWEEP + [F(1, m), F(1, 2 * m)]:
        yield [[t] * m for _ in range(m)]
        yield [[t if c == (r + 1) % m else F(0) for c in range(m)] for r in range(m)]


def test_verified_report_matches_fraction_matrix_on_probes():
    rng = random.Random(0)
    polys = [make_p_a(n, a) for n in (2, 3) for a in (F(1), F(19999, 10000), F(7, 3))]
    polys += [[F(1), F(2), F(1)], [F(-1, 3), F(0), F(1, 2)]]
    polys += [[F(rng.randint(-9, 9), rng.choice([1, 2, 7])) for _ in range(rng.randint(1, 6))]
              for _ in range(20)]
    seen = set()
    for coeffs in polys:
        for m in (1, 2, 3, 4):
            for A in probe_matrices(m):
                want = reference_report(coeffs, A)
                if want is None:
                    with pytest.raises(AssertionError):
                        witness._verified_report(coeffs, A, "probe")
                    seen.add("none")
                else:
                    rep = witness._verified_report(coeffs, A, "probe")
                    assert (rep.value, rep.entry) == want, (coeffs, A)
                    assert (rep.poly, rep.m, rep.matrix) == (coeffs, m, A)
                    C = poly_eval_matrix(coeffs, A)
                    ties = sum(row.count(rep.value) for row in C)
                    seen.add("tie" if ties > 1 else "negative")
                if any(c.denominator > 1 for c in coeffs):
                    seen.add("L > 1")
    assert seen == {"tie", "negative", "none", "L > 1"}


# -- the exact families ---------------------------------------------------------


def narrow_dip_cases(count, seed):
    """Seeded (x - r)^2 - eps, some with a small x^3 term, r in [1, 4]: each
    is negative only within sqrt(eps) of r, where the x^3 term adds at most
    eps/2, so each has a witness at order 1 that a sweep of t can miss."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        r, eps = F(rng.randint(10, 40), 10), F(1, rng.choice([100, 1000]))
        cases.append([r * r - eps, -2 * r, 1, rng.choice([0, eps / 128])])
    return cases


def test_family_finds_every_narrow_dip_at_order_1():
    for coeffs in narrow_dip_cases(60, seed=0):
        rep = family_witness(coeffs, 1)
        assert rep is not None and rep.method == "jordan-family", coeffs
        assert rep.reverify()


CORPUS = json.loads((Path(__file__).parent / "data" / "falsify_corpus.json").read_text())


@pytest.mark.parametrize("part,expected", [
    ("cases", {"probe": 319, "descent": 41, None: 5}),
    ("general", {"probe": 461, "descent": 7, None: 0}),
], ids=["make_f_a", "general"])
def test_family_finds_every_corpus_witness_of_the_float_search(part, expected):
    # the corpus records the earlier float search's outcome on each case
    found = {"probe": 0, "descent": 0, None: 0}
    for case in CORPUS[part]:
        if part == "general":
            coeffs = [F(x) for x in case["coeffs"]]
        else:
            coeffs = make_f_a([F(x) for x in case["d"]], F(case["a"]))
        rep = family_witness(coeffs, case["m"])
        assert rep is not None or case["parent"] is None, case
        if rep is not None:
            assert rep.m == case["m"] and rep.reverify()
            found[case["parent"]] += 1
    assert found == expected


EPS = F(1, 10**9)


# from n = 5 on the Jordan end lies below the cycle's 2 (ROADMAP item 1's
# table has 1.98409, 1.91023 and 1.86797 at n = 5, 7, 9): a bracket of it
# in units of 10^-4
JORDAN_END = {5: (19840, 19841), 6: (19415, 19416), 7: (19102, 19103),
              8: (18864, 18866), 9: (18679, 18680)}


@pytest.mark.parametrize("n,a,falsified", [
    *[(n, a, a > 2) for n in (2, 3, 4) for a in (2 - EPS, F(2), 2 + EPS)],
    *[(n, F(a, 10000), a == hi) for n, (lo, hi) in JORDAN_END.items() for a in (lo, hi)],
])
def test_family_threshold_of_p_a_at_order_n(n, a, falsified):
    rep = family_witness(make_p_a(n, a), n)
    assert (rep is not None) == falsified
    if n >= 5 and falsified:
        assert rep.method == "jordan-family" and rep.reverify()
    if n == 5 and falsified:
        assert F(16, 100) < rep.matrix[0][0] < F(17, 100)


def test_family_witness_leaves_the_float_plateau():
    # 10^30 - x^2 is positive on [0, 10^15): the float descent never left it
    rep = family_witness([10**30, 0, -1], 1)
    assert rep.matrix[0][0] > 10**15 and rep.value < 0 and rep.reverify()


def test_family_witness_refuses_order_below_1():
    for m in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            family_witness([F(-1)], m)


def family_matrix(m, t, j=None, tail=0):
    """tI + N, or t times the path 1 -> ... -> tail + j with the edge
    tail + j -> tail + 1 closing a j-cycle."""
    if j is None:
        return [[t if c == r else F(c == r + 1) for c in range(m)] for r in range(m)]
    edges = {(r, r + 1) for r in range(tail + j - 1)} | {(tail + j - 1, tail)}
    return [[t if (r, c) in edges else F(0) for c in range(m)] for r in range(m)]


def test_family_rows_are_entries_of_p_of_the_family_matrix():
    # each row is an entry in row 1 of p(A) for its member A at every t, by
    # the generic Horner of the list kernels
    rng = random.Random(2)
    for _ in range(40):
        ints = [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))] + [0] * rng.randint(0, 2)
        m = rng.randint(1, 9)
        t = F(rng.randint(1, 9), rng.randint(1, 4))
        rows = list(witness._family_rows(ints, m))
        top = max((d for d, c in enumerate(ints) if c), default=-1)
        assert [method for method, _, _ in rows].count("jordan-family") == min(m, top + 1)
        first_rows = {}
        for method, member, row in rows:
            key = tuple(member.keywords.items())
            if key not in first_rows:
                A = member(t)
                assert A == family_matrix(m, t, **member.keywords)
                first_rows[key] = horner(ints, A)[0]
            assert sum(c * t**d for d, c in enumerate(row)) in first_rows[key]


def test_cycle_tail_drops_the_low_terms():
    # the even part 3 + t^2/3 - 48/25 t^4 + 5/3 t^6 of this p is positive,
    # so no 2-cycle falsifies it; a one-vertex tail into the 2-cycle drops
    # the constant 3, and 1/3 - 48/25 s + 5/3 s^2 < 0 at some s = t^2
    p = [F(3), F(1), F(1, 3), F(1), F(-48, 25), F(1, 3), F(5, 3), F(4)]
    assert family_witness(p, 2) is None
    rep = family_witness(p, 3)
    t = rep.matrix[0][1]
    assert rep.method == "cycle-family" and rep.matrix == family_matrix(3, t, 2, 1)
    assert rep.reverify()
