import math
from fractions import Fraction

import numpy as np
import pytest

from nnpoly.families import make_p_a
from nnpoly.niep import (
    jll_check,
    jll_report_csv,
    parse_spectrum,
    power_sum,
    transform_list,
)

F = Fraction


def test_power_sum_reals():
    assert power_sum([1, -1], 1) == 0
    assert power_sum([1, -1], 2) == 2


def test_power_sum_complex():
    assert power_sum([1, 1j, -1j], 2) == pytest.approx(-1)


def test_power_sum_rejects_k0():
    with pytest.raises(ValueError):
        power_sum([1], 0)


@pytest.mark.parametrize("k_max, m_max", [(0, 4), (4, 0), (-1, -1)])
def test_jll_rejects_empty_table(k_max, m_max):
    with pytest.raises(ValueError, match="k_max and m_max must be >= 1"):
        jll_check([1, 2], k_max=k_max, m_max=m_max)


@pytest.mark.parametrize("tol", [-1, math.nan, math.inf, -math.inf])
def test_jll_rejects_bad_tol(tol):
    # a negative or nan tol fails valid lists, an infinite one passes any list
    for values in ([1, 2], [-1]):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            jll_check(values, tol=tol)


def test_jll_fails_for_non_realizable_list():
    report = jll_check([1, 1j, -1j])
    assert not report["all_hold"]
    row = next(r for r in report["rows"] if r[0] == 1 and r[1] == 2)
    # 1^2 <= 3 * s_2 = -3 is false
    assert row[4] is False


def test_jll_equality_case():
    report = jll_check([1, 1])
    row = next(r for r in report["rows"] if r[0] == 1 and r[1] == 2)
    assert row[2] == pytest.approx(4) and row[3] == pytest.approx(4)
    assert row[4] is True


def test_jll_passes_for_nonneg_spectra():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = rng.integers(2, 6)
        A = rng.uniform(0, 1, size=(n, n))
        report = jll_check(np.linalg.eigvals(A))
        assert report["all_hold"], report


def test_jll_reports_imaginary_power_sums():
    # conjugation-asymmetric list: s_1 has an imaginary part
    report = jll_check([1j, 2])
    assert not report["s_real"]
    assert not report["all_hold"]


def test_jll_csv_shape():
    text = jll_report_csv(jll_check([1, 1], k_max=2, m_max=2))
    lines = text.strip().splitlines()
    assert lines[0] == "k,m,lhs,rhs,holds"
    assert len(lines) == 5


def test_transform_identity():
    vals = [2 + 1j, -1]
    assert transform_list([0, 1], vals) == [complex(v) for v in vals]


def test_transform_square():
    assert transform_list([0, 0, 1], [1, -1]) == [1 + 0j, 1 + 0j]


def test_transform_constant():
    assert transform_list([3], [1, 2, 5]) == [3 + 0j] * 3


def test_transform_with_p_a():
    out = transform_list(make_p_a(2, F(1)), [2, 0])
    assert out == [23 + 0j, 1 + 0j]


def test_parse_spectrum():
    assert parse_spectrum("1,i,-i") == [1 + 0j, 1j, -1j]
    assert parse_spectrum("1+2i, -0.5") == [1 + 2j, -0.5 + 0j]
    assert parse_spectrum("2i") == [2j]
    # the i of "inf" is not the imaginary unit; only a final one is
    assert parse_spectrum("inf,-inf") == [complex(math.inf), complex(-math.inf)]
    assert parse_spectrum("infi") == [complex(0, math.inf)]
    assert parse_spectrum("(1+2i)") == [1 + 2j]
    with pytest.raises(ValueError, match=r"malformed spectrum entry '1\+2k'"):
        parse_spectrum("1, 1+2k")


def test_conjugation_closed_power_sums_real():
    vals = [1 + 2j, 1 - 2j, 3]
    for k in range(1, 6):
        assert abs(power_sum(vals, k).imag) < 1e-9
