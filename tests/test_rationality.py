"""Rational reconstruction, functional equations, the Weyl weight."""

from fractions import Fraction
from math import factorial

import pytest

from localvertex.qfield import QRat
from localvertex.gwtheory import column_power
from localvertex.rationality import (
    FitError,
    certify_column,
    check_Q_functional,
    check_q_inversion,
    denominator_series,
    find_exponent,
    fit_rational,
    w_dot_beta,
)
from localvertex.series import TruncSeries
from localvertex.vertex import _in_t, pt_series, z_ratios


def geometric(order):
    return TruncSeries(order, {d: 1 for d in range(order + 1)})


class TestFit:
    def test_geometric(self):
        fit = fit_rational(geometric(8), ((1, 1),), window=(0, 0))
        assert fit.numerator == {0: 1}
        assert fit.surplus == 8

    def test_odd_numbers(self):
        series = TruncSeries(8, {d: 2 * d + 1 for d in range(9)})
        fit = fit_rational(series, ((1, 2),), window=(0, 1))
        assert fit.numerator == {0: 1, 1: 1}

    def test_exponential_rejected(self):
        series = TruncSeries(8, {d: Fraction(1, factorial(d)) for d in range(9)})
        with pytest.raises(FitError):
            fit_rational(series, ((1, 2),))

    def test_auto_window(self):
        series = TruncSeries(9, {d: 2 * d + 1 for d in range(10)})
        fit = fit_rational(series, ((1, 2),))
        assert fit.numerator == {0: 1, 1: 1}
        assert fit.surplus >= 3

    def test_window_needs_surplus(self):
        with pytest.raises(FitError):
            fit_rational(geometric(4), ((1, 1),), window=(0, 2))

    def test_expand_round_trip(self):
        series = TruncSeries(8, {d: (d + 1) * (d + 2) // 2 for d in range(9)})
        fit = fit_rational(series, ((1, 3),))
        assert fit.expand(8) == series

    def test_zero_series(self):
        fit = fit_rational(TruncSeries(6), ((1, 2),))
        assert fit.is_zero()
        assert check_Q_functional(fit, a=17)

    def test_denominator_series(self):
        got = denominator_series(((1, 1), (2, 1)), 4)
        assert got == TruncSeries(4, {0: 1, 1: -1, 2: -1, 3: 1})

    def test_to_json(self):
        fit = fit_rational(geometric(8), ((1, 1),))
        doc = fit.to_json()
        assert doc["denom_spec"] == [[1, 1]]
        assert doc["numerator"] == {"0": {"num": 1, "den": 1}}


class TestQFunctional:
    def test_li_minus_one_symmetric(self):
        series = TruncSeries(8, {d: d for d in range(9)})  # Q/(1-Q)^2
        fit = fit_rational(series, ((1, 2),))
        assert check_Q_functional(fit, a=0)
        assert find_exponent(fit, -4, 4) == 0

    def test_antisymmetric(self):
        series = TruncSeries(8, {0: 1, **{d: 2 for d in range(1, 9)}})  # (1+Q)/(1-Q)
        fit = fit_rational(series, ((1, 1),))
        assert check_Q_functional(fit, a=0, sign=-1)
        assert not check_Q_functional(fit, a=0)

    def test_geometric_not_symmetric(self):
        fit = fit_rational(geometric(8), ((1, 1),))
        assert not check_Q_functional(fit, a=0)

    def test_monomial_exponent(self):
        fit = fit_rational(TruncSeries(8, {2: 1}), ())
        assert find_exponent(fit, -8, 8) == 4

    def test_zero_rejected(self):
        fit = fit_rational(TruncSeries(6), ((1, 1),))
        assert find_exponent(fit, -4, 4) is None


def canonical(fraction):
    """The QRat value q^shift num(q)/den(q) of a (shift, num, den) triple."""
    shift, num, den = fraction
    return QRat(2 * shift, _in_t(num), _in_t(den))


def invert_t_oracle(fractions):
    """check_q_inversion in QRat: the first Q-degree whose canonical
    coefficient is moved by t -> 1/t."""
    for d in sorted(fractions):
        c = canonical(fractions[d])
        if c.invert_t() != c:
            return False, d
    return True, None


class TestQInversion:
    def test_constant(self):
        ok, witness = check_q_inversion({0: (0, [1], [1])})
        assert ok and witness is None

    def test_asymmetric_witness(self):
        fractions = {0: (0, [1], [1]), 1: (1, [1], [1])}  # 1 + q Q
        assert check_q_inversion(fractions) == (False, 1)
        assert invert_t_oracle(fractions) == (False, 1)

    def test_palindromic_coefficient(self):
        # 2q/(1-q)^2, also with the numerator's trailing zeros unmoved
        for fraction in ((1, [2], [1, -2, 1]), (0, [2, 0], [1, -2, 1])):
            ok, _ = check_q_inversion({1: fraction})
            assert ok

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_matches_invert_t(self, r, scache):
        """The palindrome test on numerators over (q;q)_m^2 against
        QRat.invert_t on the canonical coefficients."""
        for m, ratio in z_ratios(r, 3, 7, cache=scache).items():
            assert check_q_inversion(ratio) == invert_t_oracle(ratio) == (True, None), m
            # q times the last coefficient is asymmetric, and the only witness
            d = max(ratio)
            shift, num, den = ratio[d]
            bent = {**ratio, d: (shift, num + [0], den)}
            assert check_q_inversion(bent) == invert_t_oracle(bent) == (False, d), m


class TestNormalizedPT:
    """PT_{mc}/PT_0 is the m-th entry of z_ratios."""

    def test_constant_term_matches_numerator(self, scache):
        norm = z_ratios(0, 1, 4, cache=scache)[1]
        assert canonical(norm[0]) == pt_series(0, 1, 4, cache=scache)[0]

    def test_q_inversion_small(self, scache):
        ok, witness = check_q_inversion(z_ratios(0, 1, 5, cache=scache)[1])
        assert ok, witness


class TestWeyl:
    def test_pairing(self):
        assert w_dot_beta(1, 0, 0) == -2
        assert w_dot_beta(1, 0, 1) == -1
        assert w_dot_beta(2, 3, 0) == -10


class TestCertifyColumn:
    def test_skip_iff_no_surplus_beyond_window(self):
        # the numerator window is [0, power + max(a, 0)] = [0, 3]
        assert certify_column(geometric(5), 1, 2) is None
        fit, holds = certify_column(geometric(6), 1, 2)
        assert fit.denom_spec == ((1, 1),)
        assert not holds

    def test_power_zero_has_no_factor(self):
        fit, holds = certify_column(TruncSeries(5, {1: 1}), 0, 2)
        assert fit.denom_spec == ()
        assert holds  # Q^2 (1/Q) = Q

    def test_not_rational_raises(self):
        series = TruncSeries(8, {d: Fraction(1, factorial(d)) for d in range(9)})
        with pytest.raises(FitError):
            certify_column(series, 2, 0)

    @pytest.mark.parametrize("a, holds", [(-2, True), (-1, False), (0, False)])
    def test_r0_column_holds_only_at_its_weight(self, gw_table_r0, a, holds):
        """GW_{1, c + jb} on P1 x P1 is symmetric with weight w.c = -2 only."""
        column = gw_table_r0.column(1, 1)
        assert certify_column(column, column_power(1, 1), a)[1] is holds
