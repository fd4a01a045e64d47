import warnings
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from nnpoly.families import (
    bound_table,
    make_f_a,
    make_p_a,
    mu,
    rational_sqrt_floor,
    safe_a_squared,
)

F = Fraction


def test_make_p_a_n2():
    assert make_p_a(2, F(1)) == [F(1), F(1), F(-1), F(1), F(1)]
    # the ones are a * 0 + 1, so they take a's type
    for a, kind in ((F(1, 2), F), (2, int), (np.int64(3), np.int64)):
        coeffs = make_p_a(2, a)
        assert coeffs == [1, 1, -a, 1, 1]
        assert all(type(c) is kind for c in coeffs)
    for a in (0, np.int64(0), F(-1, 2)):
        with pytest.raises(ValueError, match="^a must be positive$"):
            make_p_a(2, a)


@pytest.mark.parametrize("a, error", [
    (float("inf"), "^a must be finite, got inf$"),
    (float("nan"), "^a must be finite, got nan$"),
    (float("-inf"), "^a must be finite, got -inf$"),
    (np.float64("inf"), "^a must be finite, got inf$"),
    (0, "^a must be positive$"),
    (F(10**400), None),
    (10**400, None),
])
def test_make_p_a_on_non_finite_zero_and_huge_a(a, error):
    # and with no RuntimeWarning from numpy's inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert make_p_a(3, a) == [1] * 3 + [-a] + [1] * 3
        else:
            with pytest.raises(ValueError, match=error):
                make_p_a(3, a)


def test_make_p_a_n3():
    assert make_p_a(3, F(2)) == [F(1)] * 3 + [F(-2)] + [F(1)] * 3


def test_make_p_a_rejects_n1():
    with pytest.raises(ValueError):
        make_p_a(1, F(1))


def test_make_f_a_all_ones_matches_p_a():
    d = [F(1)] * 7
    assert make_f_a(d, F(3, 2)) == make_p_a(3, F(3, 2))


def test_make_f_a_placement():
    assert make_f_a([F(4), F(1), F(1), F(1), F(9)], F(1)) == [F(4), F(1), F(-1), F(1), F(9)]


def test_make_f_a_rejects_zero_weight():
    with pytest.raises(ValueError):
        make_f_a([F(1), F(0), F(1), F(1), F(1)], F(1))


@pytest.mark.parametrize("a, error", [
    (float("inf"), "^a must be finite, got inf$"),
    (float("nan"), "^a must be finite, got nan$"),
    (np.float64("inf"), "^a must be finite, got inf$"),
])
def test_make_f_a_rejects_non_finite_a(a, error):
    with pytest.raises(ValueError, match=error):
        make_f_a([1] * 7, a)


@pytest.mark.parametrize("w, error", [
    (float("inf"), r"^coefficient d\[2\] must be finite, got inf$"),
    (float("nan"), r"^coefficient d\[2\] must be finite, got nan$"),
    (np.float64("-inf"), r"^coefficient d\[2\] must be finite, got -inf$"),
])
def test_make_f_a_rejects_non_finite_weight(w, error):
    with pytest.raises(ValueError, match=error):
        make_f_a([1, 1, w, 1, 1, 1, 1], 2)
    # d[n] is replaced by -a, so it is never read
    assert make_f_a([1, 1, 1, w, 1, 1, 1], 2) == [1, 1, 1, -2, 1, 1, 1]


@pytest.mark.parametrize("n,k,expected", [(2, 1, 2), (3, 2, 4), (4, 3, 12), (3, 3, 1)])
def test_mu_values(n, k, expected):
    assert mu(n, k) == expected


def test_mu_formula_and_floor():
    from math import prod

    for n in range(2, 11):
        assert mu(n, 1) == n
        assert mu(n, n) == 1
        for k in range(1, n):
            assert mu(n, k) == (n - k + 1) * prod(n - j for j in range(1, k))
            assert mu(n, k) >= 2


def test_mu_out_of_range():
    with pytest.raises(ValueError):
        mu(3, 4)
    with pytest.raises(ValueError):
        mu(3, 0)


@pytest.mark.parametrize("n,expected", [(2, F(2)), (3, F(1)), (4, F(1, 3))])
def test_safe_a_squared(n, expected):
    assert safe_a_squared(n) == expected


@pytest.mark.parametrize("n", [1, 0])
def test_safe_a_squared_rejects_small_n(n):
    with pytest.raises(ValueError, match="n must be >= 2"):
        safe_a_squared(n)


def test_safe_a_squared_dominated_by_k1_row():
    for n in range(2, 9):
        assert safe_a_squared(n) <= F(4, n)


def test_safe_a_squared_diagonal_cap():
    # the k = n row caps everything at 4*d_0*d_2n
    d = [F(9)] + [F(1)] * 5 + [F(9)]
    assert safe_a_squared(3, d) <= 4 * d[0] * d[-1]


def test_bound_table_rows():
    table = bound_table(2)
    assert [(k, m) for k, m, *_ in table.rows] == [(1, 2), (2, 1)]
    assert table.safe_a_sq == F(2)


@pytest.mark.parametrize("n", range(2, 41))
def test_bound_table_mu_matches_formula(n):
    # the rows carry the product in mu(n,k) from k to k+1
    assert [(k, m) for k, m, *_ in bound_table(n).rows] == [(k, mu(n, k)) for k in range(1, n + 1)]


def test_bound_table_rejects_n1():
    with pytest.raises(ValueError):
        bound_table(1)


def test_bound_table_with_nu():
    from nnpoly.paths import all_nu

    nus = all_nu(3)
    table = bound_table(3, nu_values=nus)
    for k, m, nu, *_ in table.rows:
        if nu is not None:
            assert 1 <= nu <= m


def test_bound_table_nu_length_mismatch():
    with pytest.raises(ValueError):
        bound_table(3, nu_values=[2])


@pytest.mark.parametrize("d", [
    [F(1), F(2)],
    [F(1)] * 9,
    [F(1), F(-1), F(1), F(1), F(1)],
    [F(1), F(1), F(5), F(1), F(0)],
])
def test_bound_table_validates_weights(d):
    with pytest.raises(ValueError):
        bound_table(2, d)
    with pytest.raises(ValueError):
        safe_a_squared(2, d)


def test_bound_table_json_shape():
    j = bound_table(2).to_json()
    assert j["safe_a_sq"] == "2"
    assert j["rows"][0] == {"k": 1, "mu": 2, "cap_sq": "2"}


def test_rational_sqrt_floor():
    # a relative bound: 7 significant digits however small c is, so a > 0
    # for every c > 0; at c >= 1 the old floor to a multiple of 10^-6
    for c in [F(2), F(1), F(4, 3), F(1, 12), F(0), F(9, 4), F(1, 10**13), F(10**30 + 1),
              F(2 * 10**30), F(1, 10461394944000), F(1, 100), F(1, 10**400)]:
        a = rational_sqrt_floor(c)
        assert a * a <= c
        if c > 0:
            assert a > 0 and c < (a * (1 + F(1, 10**6))) ** 2
        if c >= 1:
            old = F(isqrt(c.numerator * 10**12 // c.denominator), 10**6)
            assert a == old
    assert rational_sqrt_floor(F(1, 100)) == F(1, 10)
    assert rational_sqrt_floor(F(1, 10461394944000)) == F(3091755, 10**13)
