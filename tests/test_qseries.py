import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divconv.arith import sigma
from divconv.qseries import QSeries


def geometric(truncation):
    return QSeries([1] * (truncation + 1), truncation)


def sigma_series(truncation):
    # sum sigma(n) q^n with zero constant term
    return QSeries([0] + [sigma(1, n) for n in range(1, truncation + 1)], truncation)


def test_mul_geometric_inverse():
    t = 12
    assert QSeries([1, -1], 1).substitute(1) * geometric(t) == QSeries([1], 1)
    assert (QSeries([1] + [-1] + [0] * (t - 1), t) * geometric(t)) == QSeries.one(t)


def test_mul_sigma_product_q3_coefficient():
    # q^3 coefficient of (sum sigma(l) q^l)^2 is sigma(1)sigma(2)+sigma(2)sigma(1)
    s = sigma_series(8)
    assert (s * s).coeffs[3] == 6


def test_mul_identity():
    a = QSeries([2, Fraction(3, 7), 0, -4], 3)
    assert a * QSeries.one(3) == a


def test_reciprocal_geometric():
    t = 10
    assert QSeries([1, -1] + [0] * (t - 1), t).reciprocal() == geometric(t)
    assert QSeries.one(5).reciprocal() == QSeries.one(5)


def test_reciprocal_zero_constant_term():
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        QSeries([0, 1], 1).reciprocal()


def test_pow_basics():
    a = QSeries([1, 1], 1).substitute(1)
    assert a**0 == QSeries.one(1)
    b = QSeries([1, 1, 0], 2)
    assert b**2 == QSeries([1, 2, 1], 2)


def test_substitute():
    assert QSeries([1, 1], 1).substitute(2) == QSeries([1, 0, 1], 2)
    a = QSeries([1, 2, 3], 2)
    assert a.substitute(1) == a
    assert a.substitute(3, cap=4) == QSeries([1, 0, 0, 2, 0], 4)


def test_substitute_of_eisenstein_difference():
    from divconv.modforms import eisenstein_L

    l = QSeries(eisenstein_L(4))
    assert l.substitute(7).coeffs[14] == -24 * sigma(1, 2)


small_coeffs = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
series = st.lists(small_coeffs, min_size=1, max_size=12).map(QSeries)
unit_series = st.lists(small_coeffs, min_size=1, max_size=10).map(
    lambda cs: QSeries([1] + cs)
)


@given(series, series)
@settings(max_examples=60)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(series, series, series)
@settings(max_examples=40)
def test_mul_associative(a, b, c):
    t = min(a.truncation, b.truncation, c.truncation)
    assert ((a * b) * c).coeffs[: t + 1] == (a * (b * c)).coeffs[: t + 1]


@given(series, series, st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_substitute_is_multiplicative(a, b, t):
    lhs = (a * b).substitute(t)
    rhs = a.substitute(t) * b.substitute(t)
    common = min(lhs.truncation, rhs.truncation)
    assert lhs.coeffs[: common + 1] == rhs.coeffs[: common + 1]


@given(unit_series, st.integers(min_value=-6, max_value=6))
@settings(max_examples=40)
def test_pow_and_inverse_cancel(a, e):
    assert (a**e) * (a**-e) == QSeries.one(a.truncation)


@given(unit_series)
@settings(max_examples=40)
def test_reciprocal_is_right_inverse(a):
    assert a * a.reciprocal() == QSeries.one(a.truncation)


def test_json_round_trip_and_schema():
    a = QSeries([1, Fraction(-2, 3), 0, 7], 3)
    data = a.to_json_dict()
    assert data["version"] == 1 and data["kind"] == "qseries"
    assert data["truncation"] == 3 and len(data["coeffs"]) == 4
    assert data["coeffs"][1] == "-2/3"
    assert QSeries.from_json_dict(json.loads(json.dumps(data))) == a
