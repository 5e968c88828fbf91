"""q = e^(iu) expansion, GW extraction, ring membership, polynomiality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localvertex.gwtheory import (
    GWTable,
    finite_differences,
    gw_extract,
    log_z,
    polynomiality_check,
    qseries_to_u,
    tilde_pt0,
    to_u_series,
    verify_R,
)
from localvertex.qfield import QRat
from localvertex.rationality import find_exponent, fit_rational
from localvertex.series import TruncSeries
from localvertex.vertex import log_z0, z_ratios

ONE = QRat.one()
Q = QRat.q_power(1)


class TestUExpansion:
    """Coefficients C_h of a(e^(iu)) = sum_h C_h x^h with x = iu."""

    def test_exponential(self):
        got = to_u_series(Q, 3)
        assert [got[h] for h in range(4)] == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_bernoulli(self):
        got = to_u_series(ONE / (ONE - Q), 1)
        assert got[-1] == -1
        assert got[0] == Fraction(1, 2)
        assert got[1] == Fraction(-1, 12)

    def test_double_pole(self):
        got = to_u_series(Q * 2 / (ONE - Q) ** 2, 4)
        assert got.coeffs == {
            -2: 2, 0: Fraction(-1, 6), 2: Fraction(1, 120), 4: Fraction(-1, 3024)
        }

    def test_zero(self):
        assert to_u_series(QRat.zero(), 3) == TruncSeries(3)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=6).filter(lambda c: sum(c)),
        st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_pole_order_from_moments(self, coeffs, k):
        """P(q)/(1-q)^k with P(1) != 0 has a pole of order k at x = 0,
        with leading coefficient (-1)^k P(1) since 1 - e^x = -x + ..."""
        poly = QRat.zero()
        for d, c in enumerate(coeffs):
            poly = poly + QRat.q_power(d) * c
        got = to_u_series(poly / (ONE - Q) ** k, 0)
        assert got.valuation() == -k
        assert got[-k] == (-1) ** k * sum(coeffs)

    def test_transpose(self):
        series = TruncSeries(2, {1: Q * 2 / (ONE - Q) ** 2})
        got = qseries_to_u(series, 2)
        assert got[-2][1] == 2
        assert got[0][1] == Fraction(-1, 6)


class TestGWClosedForms:
    def test_fiber_genus_zero(self, gw_table_r0):
        for j in range(1, 5):
            assert gw_table_r0.value(0, 0, j) == Fraction(-2, j**3)

    def test_fiber_genus_one(self, gw_table_r0):
        for j in range(1, 5):
            assert gw_table_r0.value(1, 0, j) == Fraction(-1, 6 * j)

    def test_excluded_slot(self, gw_table_r0):
        assert (0, 0, 0) not in gw_table_r0.entries
        assert (1, 0, 0) not in gw_table_r0.entries

    def test_section_genus_zero_r0(self, gw_table_r0):
        for j in range(6):
            assert gw_table_r0.value(0, 1, j) == -2 * (j + 1)

    def test_section_genus_zero_r1(self, gw_table_r1):
        for j in range(6):
            assert gw_table_r1.value(0, 1, j) == 2 * j + 1

    def test_fiber_classes_agree_across_r(self, gw_table_r0, gw_table_r1):
        """GW of the fiber class only sees the ruling, not r."""
        for g in range(4):
            for j in range(1, 6):
                assert gw_table_r0.value(g, 0, j) == gw_table_r1.value(g, 0, j)


class TestGWTable:
    def test_column(self, gw_table_r0):
        col = gw_table_r0.column(0, 1)
        assert col[3] == -8

    def test_csv_shape(self):
        table = GWTable(r=0, g_max=0, m_max=0, j_max=1)
        table.entries[(0, 0, 1)] = Fraction(-2)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "g,m,j,value_num,value_den"
        assert lines[1] == "0,0,1,-2,1"

    def test_json_shape(self, gw_table_r0):
        doc = gw_table_r0.to_json()
        assert doc["r"] == 0
        assert {"g", "m", "j", "num", "den"} <= set(doc["entries"][0])


class TestTildeSeries:
    def test_no_poles_no_odd_powers(self, tilde_series):
        assert tilde_series.degrees() == [0, 2, 4, 6]

    def test_constant_term(self, tilde_series):
        f0 = tilde_series[0]
        assert f0 == TruncSeries(f0.order, {0: 1})

    def test_u2_coefficient_is_li(self, tilde_series):
        # c_2 * Li_{-1}(Q) with c_2 = -1/120 from 2e^{iu}/(1-e^{iu})^2
        f2 = tilde_series[2]
        for j in range(1, f2.order + 1):
            assert f2[j] == Fraction(-j, 120)

    def test_membership(self, tilde_series):
        report = verify_R(tilde_series, 0, 0, 6)
        assert report.passed
        doc = report.to_json()
        assert doc["passed"] is True
        assert set(doc["per_h"]) == {str(h) for h in range(7)}


class TestVerifyR:
    def test_single_li_function(self):
        li = TruncSeries(8, {d: Fraction(d) for d in range(9)})
        useries = TruncSeries(2, {2: li})
        report = verify_R(useries, 0, 0, 2)
        assert report.passed

    def test_zero_series(self):
        report = verify_R(TruncSeries(4), 0, 0, 4)
        assert report.passed

    def test_failure_recorded_not_fatal(self):
        geo = TruncSeries(8, {d: 1 for d in range(9)})
        report = verify_R(TruncSeries(2, {0: geo}), 0, 0, 2)
        assert not report.passed
        assert not report.per_h[0]["symmetry_ok"]


class TestPolynomiality:
    def test_finite_differences(self):
        assert finite_differences([1, 4, 9, 16], 2) == [2, 2]
        assert finite_differences([5, 5, 5], 1) == [0, 0]

    def test_constant_passes(self):
        table = GWTable(r=0, g_max=0, m_max=1, j_max=9)
        for j in range(10):
            table.entries[(0, 1, j)] = Fraction(7)
        passed, report = polynomiality_check(table, 0, 1, 2, 8)
        assert passed
        assert report["difference_order"] == 2

    def test_degree_too_high_fails(self):
        table = GWTable(r=0, g_max=0, m_max=1, j_max=9)
        for j in range(10):
            table.entries[(0, 1, j)] = Fraction(j**2)
        passed, report = polynomiality_check(table, 0, 1, 2, 8)
        assert not passed
        assert report["max_nonvanishing_difference_order"] == 2

    def test_short_window_rejected(self):
        table = GWTable(r=0, g_max=1, m_max=1, j_max=9)
        with pytest.raises(ValueError):
            polynomiality_check(table, 1, 1, 3, 5)

    def test_genus_zero_section_r0(self, gw_table_r0):
        passed, _ = polynomiality_check(gw_table_r0, 0, 1, 2, 8)
        assert passed


class TestColumnRationality:
    def test_genus_columns_fit_and_unique_exponent(self, gw_table_r0):
        for g in range(4):
            fit = fit_rational(gw_table_r0.column(g, 1), ((1, 2 + 2 * g),))
            assert fit.surplus >= 3
            assert find_exponent(fit, -8, 8) == -2


def log_z_by_powers(r, m_max, order):
    """Oracle for ``log_z``: log(1 + X) = sum_n (-1)^(n+1) X^n / n, with the
    powers of X = sum_{m>=1} x_m Q_c^m convolved in Q_c and cut at Q_c^m_max."""
    x = z_ratios(r, m_max, order)
    del x[0]
    acc = {m: TruncSeries(order) for m in range(1, m_max + 1)}
    power = dict(x)
    for n in range(1, m_max + 1):
        for m in range(n, m_max + 1):
            acc[m] = acc[m] + power[m] * Fraction((-1) ** (n + 1), n)
        product = {m: TruncSeries(order) for m in range(1, m_max + 1)}
        for m1, s1 in power.items():
            for m2, s2 in x.items():
                if m1 + m2 <= m_max:
                    product[m1 + m2] = product[m1 + m2] + s1 * s2
        power = product
    return {0: log_z0(order), **acc}


class TestLogZ:
    @pytest.mark.parametrize("r, m_max, order", [(0, 2, 7), (0, 3, 8), (1, 4, 6), (3, 3, 7)])
    def test_recurrence_matches_power_series(self, r, m_max, order):
        got = log_z(r, m_max, order)
        expected = log_z_by_powers(r, m_max, order)
        assert set(got) == set(expected)
        for m, series in expected.items():
            assert got[m].order == series.order
            assert got[m] == series
