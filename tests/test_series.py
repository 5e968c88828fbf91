"""Truncated series ring and polylogarithms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localvertex.qfield import QRat
from localvertex.series import (
    SeriesError,
    TruncSeries,
    cyclo_product,
    polylog_neg,
    polylog_series,
)

Q_ONE = QRat.one()
Q_VAR = QRat.q_power(1)


def series_of(order, *coeffs):
    return TruncSeries(order, {d: c for d, c in enumerate(coeffs) if c})


@st.composite
def rational_series(draw, order=6):
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=order + 1,
            max_size=order + 1,
        )
    )
    return TruncSeries(order, {d: c for d, c in enumerate(coeffs) if c})


class TestRing:
    def test_product_example(self):
        a = series_of(5, 1, 1)
        b = series_of(5, 1, -1)
        assert a * b == series_of(5, 1, 0, -1)

    def test_binomial_pow(self):
        base = TruncSeries(2, {0: QRat.one(), 1: -Q_VAR})
        q2 = Q_VAR * Q_VAR
        assert base.pow_int(-2) == TruncSeries(
            2, {0: QRat.one(), 1: Q_VAR * 2, 2: q2 * 3}
        )

    def test_unit(self):
        a = series_of(4, 2, 3, 5)
        assert a * TruncSeries.one(4) == a

    def test_truncate_never_extends(self):
        a = series_of(3, 1, 1)
        with pytest.raises(SeriesError):
            a.truncate(5)
        assert a.truncate(3) == a
        assert a.truncate(2).order == 2

    def test_getitem_beyond_order(self):
        a = series_of(3, 1)
        with pytest.raises(SeriesError):
            a[4]

    def test_inverse_round_trip(self):
        a = series_of(6, 1, 2, -3, 5)
        assert (a * a.inverse()) == TruncSeries.one(6)

    def test_inverse_of_positive_valuation_is_laurent(self):
        a = series_of(3, 0, 1, 1)  # Q + Q^2
        inv = a.inverse()
        assert inv.valuation() == -1
        assert (a * inv).truncate(inv.order) == TruncSeries.one(inv.order)

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(SeriesError):
            TruncSeries(3).inverse()

    @given(rational_series(), rational_series())
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    def test_shifted(self):
        a = series_of(3, 1, 2)
        assert a.shifted(1)[1] == 1
        assert a.shifted(1)[2] == 2


class TestExpLog:
    def test_exp_zero(self):
        assert TruncSeries(4).exp() == TruncSeries.one(4)

    def test_exp_geometric(self):
        # exp(Li_1(Q)) = exp(-log(1 - Q)) = 1/(1 - Q)
        assert polylog_series(1, 6).exp() == TruncSeries(6, {d: 1 for d in range(7)})

    @given(rational_series(), rational_series())
    @settings(max_examples=25, deadline=None)
    def test_exp_additive(self, a, b):
        a = a - TruncSeries(a.order, {0: a.coeffs.get(0, 0)})  # valuation >= 1
        b = b - TruncSeries(b.order, {0: b.coeffs.get(0, 0)})
        assert (a + b).exp() == a.exp() * b.exp()

    def test_exp_requires_positive_valuation(self):
        with pytest.raises(SeriesError):
            series_of(3, 1).exp()


class TestCycloProduct:
    def test_empty(self):
        assert cyclo_product({}, 3) == TruncSeries.one(3)

    def test_single_factor(self):
        got = cyclo_product({(0, 1): -2}, 2)
        q2 = Q_VAR * Q_VAR
        assert got == TruncSeries(2, {0: QRat.one(), 1: Q_VAR * 2, 2: q2 * 3})

    def test_two_factors(self):
        got = cyclo_product({(0, 1): -2, (0, 2): -4}, 2)
        assert got[1] == Q_VAR * 2 + QRat.q_power(2) * 4
        lowest, coeffs = got[2].t_expansion(8)
        assert lowest == 4
        assert coeffs[:6] == [Fraction(3), 0, Fraction(8), 0, Fraction(10), 0]


class TestPolylog:
    def test_li_zero(self):
        q = QRat.t_power(1)
        assert polylog_neg(1) == q / (QRat.one() - q)

    def test_li_minus_one(self):
        q = QRat.t_power(1)
        assert polylog_neg(2) == q / (QRat.one() - q) ** 2

    def test_li_minus_two(self):
        q = QRat.t_power(1)
        assert polylog_neg(3) == (q + q * q) / (QRat.one() - q) ** 3

    def test_inversion_identity(self):
        for n in range(2, 11):
            li = polylog_neg(n)
            assert li.invert_t() == li * (-1) ** n

    def test_series_examples(self):
        assert polylog_series(1, 3) == TruncSeries(
            3, {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 3)}
        )
        assert polylog_series(3, 2) == TruncSeries(2, {1: Fraction(1), 2: Fraction(1, 8)})
        assert polylog_series(0, 3) == TruncSeries(3, {1: 1, 2: 1, 3: 1})

    def test_series_matches_rational(self):
        for n in range(1, 6):
            li = polylog_neg(n)
            lowest, coeffs = li.t_expansion(8)
            series = polylog_series(1 - n, 7)
            for k in range(1, 8):
                pos = k - lowest
                got = coeffs[pos] if 0 <= pos < len(coeffs) else Fraction(0)
                assert got == series[k]

