"""Truncated series ring and polylogarithms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localvertex.gwtheory import _fibre
from localvertex.partitions import Partition
from localvertex.qrat import QRat
from localvertex.series import SeriesError, TruncSeries
from oracles import _exponent, cyclo_product, polylog_neg

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
        """(1 - qQ)^2 (1 + 2qQ + 3q^2Q^2) = 1 through Q^2, over QRat."""
        base = TruncSeries(2, {0: QRat.one(), 1: -Q_VAR})
        q2 = Q_VAR * Q_VAR
        binomial = TruncSeries(2, {0: QRat.one(), 1: Q_VAR * 2, 2: q2 * 3})
        assert base * base * binomial == TruncSeries.one(2)

    def test_laurent_product_order(self):
        """Q^-2 moves the unknown terms of 1/(1-Q) from Q^4 down to Q^2, so
        the product is known through Q^1 only; factors of valuation >= 0
        (the zero series among them) keep min(order)."""
        laurent = TruncSeries(3, {-2: 1})
        geometric = TruncSeries(3, {k: 1 for k in range(4)})
        expected = TruncSeries(1, {-2: 1, -1: 1, 0: 1, 1: 1})
        assert laurent * geometric == expected
        assert geometric * laurent == expected
        assert (laurent * TruncSeries(5)).order == 3
        assert (series_of(4, 0, 1) * series_of(6, 1)).order == 4

    def test_unit(self):
        a = series_of(4, 2, 3, 5)
        assert a * TruncSeries.one(4) == a

    def test_getitem_beyond_order(self):
        a = series_of(3, 1)
        with pytest.raises(SeriesError):
            a[4]
        assert a != series_of(4, 1)

    def test_inverse_round_trip(self):
        """A (1 - q^k Q)^e factor times its inverse, the binomial series of
        exponent -e, is 1: products of the two signs cancel exactly."""
        for k, e in ((1, 1), (2, 3), (3, -2)):
            a = cyclo_product({(0, k): e}, 6)
            assert a * cyclo_product({(0, k): -e}, 6) == TruncSeries.one(6), (k, e)

    @given(rational_series(), rational_series())
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


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
        # times Q^shift, cut at Q^6
        a = TruncSeries(6, {d + shift: c for d, c in _drop_constant(a).coeffs.items()})
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

    def test_positive_exponent(self):
        """(1 - q^2 Q)^3 = 1 - 3q^2 Q + 3q^4 Q^2 - q^6 Q^3: the binomial
        series ends at Q^3, below the order, and is cut above it."""
        q = QRat.q_power
        assert cyclo_product({(1, 1): 3}, 5) == TruncSeries(
            5, {0: 1, 1: q(2) * -3, 2: q(4) * 3, 3: -q(6)}
        )
        assert cyclo_product({(1, 1): 3}, 2) == TruncSeries(2, {0: 1, 1: q(2) * -3, 2: q(4) * 3})

    def test_mixed_exponents(self):
        """(1 - qQ)^2 / (1 - q^3 Q) expanded by hand, and factors of one
        q-power with opposite exponents, keyed (0, 2) and (1, 1), cancel."""
        q = QRat.q_power
        got = cyclo_product({(0, 1): 2, (0, 3): -1}, 3)
        # (1 - 2qQ + q^2Q^2)(1 + q^3Q + q^6Q^2 + q^9Q^3)
        assert got == TruncSeries(3, {
            0: 1,
            1: q(3) - q(1) * 2,
            2: q(6) - q(4) * 2 + q(2),
            3: q(9) - q(7) * 2 + q(5),
        })
        assert cyclo_product({(0, 2): 3, (1, 1): -3}, 6) == TruncSeries.one(6)


class TestPolylog:
    def test_li_minus_one(self):
        q = QRat.t_power(1)
        assert polylog_neg(2) == q / (QRat.one() - q) ** 2

    def test_li_minus_two(self):
        q = QRat.t_power(1)
        assert polylog_neg(3) == (q + q * q) / (QRat.one() - q) ** 3

    def test_expansion_is_the_definition(self):
        """Li_{1-n}(Q) = sum_k k^(n-1) Q^k through Q^12 for 1 <= n <= 10: a
        sign flipped at any n shows here, where the inversion identity of
        criterion 08 holds for -Li_{1-n} too."""
        for n in range(1, 11):
            assert polylog_neg(n).t_expansion(12) == (1, [k ** (n - 1) for k in range(1, 13)]), n

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
