"""Truncated series ring and polylogarithms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localvertex.gwtheory import _fibre
from localvertex.partitions import Partition
from localvertex.oracles import _exponent, cyclo_product, polylog_neg
from localvertex.qrat import QRat
from localvertex.series import SeriesError, TruncSeries

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


def power_iteration_exp(a):
    """exp(a) as sum_n a^n/n!, one series product per term: the oracle
    for TruncSeries.exp."""
    result = TruncSeries.one(a.order)
    term = TruncSeries.one(a.order)
    v = a.valuation()
    if v is None:
        return result
    for n in range(1, a.order // v + 1):
        term = term * a * Fraction(1, n)
        if not term:
            break
        result = result + term
    return result


def geometric_inverse(a):
    """1/a as x^-v/lead * sum_n (-rest)^n for a = lead*x^v*(1 + rest): the
    oracle for TruncSeries.inverse."""
    v = a.valuation()
    lead = a.coeffs[v]
    lead_inv = lead.reciprocal() if isinstance(lead, QRat) else 1 / Fraction(lead)
    rest = TruncSeries(
        a.order - v, {d - v: c * lead_inv for d, c in a.coeffs.items() if d != v}
    )
    geom = TruncSeries.one(a.order - v)
    power = TruncSeries.one(a.order - v)
    n = rest.valuation()
    if n is not None:
        for _ in range(0, (a.order - v) // n + 1):
            power = power * (-rest)
            if not power:
                break
            geom = geom + power
    return TruncSeries(
        a.order - 2 * v, {d - v: c * lead_inv for d, c in geom.coeffs.items()}
    )


def fibre_exponent(order, u_order):
    """The x-series sum_{h>=2} C_h x^h sum_k k^(h-1) Q^k that tilde_pt0
    exponentiates, its coefficients Q-series over Fractions."""
    return TruncSeries(u_order, {
        h: TruncSeries(order, {k: c * k ** (h - 1) for k in range(1, order + 1)})
        for h, c in _fibre(u_order).items() if h >= 2
    })


def _drop_constant(a):
    return a - TruncSeries(a.order, {0: a.coeffs.get(0, 0)})


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

    @given(rational_series(), st.integers(min_value=-2, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_inverse_matches_geometric_oracle(self, a, shift):
        if a:
            a = a.shifted(shift)
            assert a.inverse() == geometric_inverse(a)

    def test_inverse_qrat_matches_geometric_oracle(self):
        a = TruncSeries(5, {1: Q_ONE - Q_VAR, 2: Q_VAR * 3, 4: Q_ONE / (Q_ONE + Q_VAR)})
        assert a.inverse() == geometric_inverse(a)

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
        li_1 = TruncSeries(6, {k: Fraction(1, k) for k in range(1, 7)})
        assert li_1.exp() == TruncSeries(6, {d: 1 for d in range(7)})

    @given(rational_series(), rational_series())
    @settings(max_examples=25, deadline=None)
    def test_exp_additive(self, a, b):
        a = a - TruncSeries(a.order, {0: a.coeffs.get(0, 0)})  # valuation >= 1
        b = b - TruncSeries(b.order, {0: b.coeffs.get(0, 0)})
        assert (a + b).exp() == a.exp() * b.exp()

    @given(rational_series(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_exp_matches_power_iteration(self, a, shift):
        a = _drop_constant(a).shifted(shift).truncate(6)
        assert a.exp() == power_iteration_exp(a)

    def test_exp_qrat_matches_power_iteration(self):
        for mu, nu in ((Partition([1]), Partition()), (Partition([2]), Partition([1]))):
            a = _exponent(mu, nu, 4)
            assert a.exp() == power_iteration_exp(a)

    def test_exp_nested_valuation_two_matches_power_iteration(self):
        """The shape tilde_pt0 exponentiates: an x-series of valuation 2
        whose coefficients are Q-series over Fractions."""
        a = fibre_exponent(4, 6)
        assert a.valuation() == 2
        got = a.exp()
        assert got == power_iteration_exp(a)
        assert all(got.coeffs[h].order == 4 for h in got.degrees() if h)

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

    def test_series_matches_rational(self):
        """The x^h coefficient of the exceptional exponent, sum_k C_h k^(h-1) Q^k,
        is C_h Li_{1-h}(Q), the t-expansion of the rational polylog_neg(h)."""
        exponent = fibre_exponent(7, 6)
        assert exponent.degrees() == [2, 4, 6]
        for h, series in exponent.coeffs.items():
            lowest, coeffs = polylog_neg(h).t_expansion(8)
            for k in range(1, 8):
                pos = k - lowest
                got = coeffs[pos] if 0 <= pos < len(coeffs) else Fraction(0)
                assert series[k] == _fibre(6)[h] * got, (h, k)
