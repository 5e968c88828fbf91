"""Rational reconstruction, functional equations, the Weyl weight."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from localvertex import rationality
from localvertex.rationality import (
    FitError,
    RationalFit,
    certify_column,
    check_Q_functional,
    column_power,
    check_q_inversion,
    find_exponent,
    fit_rational,
    w_dot_beta,
)
from localvertex.oracles import _in_t, pt_series
from localvertex.qrat import QRat
from localvertex.series import TruncSeries
from localvertex.vertex import z_ratios


def geometric(order):
    return TruncSeries(order, {d: 1 for d in range(order + 1)})


class TestFit:
    def test_geometric(self):
        fit = fit_rational(geometric(8), 1, window=(0, 0))
        assert fit.numerator == {0: 1}
        assert fit.surplus == 8

    def test_odd_numbers(self):
        series = TruncSeries(8, {d: 2 * d + 1 for d in range(9)})
        fit = fit_rational(series, 2, window=(0, 1))
        assert fit.numerator == {0: 1, 1: 1}

    def test_exponential_rejected(self):
        series = TruncSeries(8, {d: Fraction(1, factorial(d)) for d in range(9)})
        with pytest.raises(FitError):
            fit_rational(series, 2)

    def test_auto_window(self):
        series = TruncSeries(9, {d: 2 * d + 1 for d in range(10)})
        fit = fit_rational(series, 2)
        assert fit.numerator == {0: 1, 1: 1}
        assert fit.surplus >= 3

    def test_window_needs_surplus(self):
        with pytest.raises(FitError):
            fit_rational(geometric(4), 1, window=(0, 2))

    def test_expand_round_trip(self):
        series = TruncSeries(8, {d: (d + 1) * (d + 2) // 2 for d in range(9)})
        fit = fit_rational(series, 3)
        assert fit.numerator == {0: 1}

    def test_zero_series(self):
        fit = fit_rational(TruncSeries(6), 2)
        assert fit.is_zero()
        assert check_Q_functional(fit, a=17)

    def test_to_json(self):
        fit = fit_rational(geometric(8), 1)
        doc = fit.to_json()
        assert doc["denom_spec"] == [[1, 1]]
        assert doc["numerator"] == {"0": {"num": 1, "den": 1}}


class TestQFunctional:
    def test_li_minus_one_symmetric(self):
        series = TruncSeries(8, {d: d for d in range(9)})  # Q/(1-Q)^2
        fit = fit_rational(series, 2)
        assert check_Q_functional(fit, a=0)
        assert find_exponent(fit, -4, 4) == 0

    def test_antisymmetric(self):
        series = TruncSeries(8, {0: 1, **{d: 2 for d in range(1, 9)}})  # (1+Q)/(1-Q)
        fit = fit_rational(series, 1)
        assert check_Q_functional(fit, a=0, sign=-1)
        assert not check_Q_functional(fit, a=0)

    def test_geometric_not_symmetric(self):
        fit = fit_rational(geometric(8), 1)
        assert not check_Q_functional(fit, a=0)

    def test_monomial_exponent(self):
        fit = fit_rational(TruncSeries(8, {2: 1}), 0)
        assert find_exponent(fit, -8, 8) == 4

    def test_zero_rejected(self):
        fit = fit_rational(TruncSeries(6), 1)
        assert find_exponent(fit, -4, 4) is None


class _Offending(FitError):
    def __init__(self, message, degree):
        super().__init__(message)
        self.degree = degree


def one_minus_q_power(power, order):
    """(1-Q)^power through Q^order by repeated products: with 1 - Q for
    power >= 0, with the geometric series sum_k Q^k for power < 0."""
    step = {0: 1, 1: -1} if power >= 0 else dict.fromkeys(range(order + 1), 1)
    result = TruncSeries.one(order)
    for _ in range(abs(power)):
        result = result * TruncSeries(order, step)
    return result


def fit_by_widening(series, power, window=None):
    """Oracle for ``fit_rational``: the numerator window as a search, and
    the series cleared by repeated products, not the binomials.
    The auto window starts at [min(valuation, 0), power] and its top is
    moved to each offending degree while a surplus of 3 remains."""
    cleared = series * one_minus_q_power(power, series.order)
    degrees = cleared.degrees()
    if not degrees:
        return RationalFit({}, power, surplus=series.order, order=series.order)

    def attempt(lo, hi):
        numerator = {}
        for d in degrees:
            if not lo <= d <= hi:
                raise _Offending(
                    "nonvanishing coefficient at Q^%d outside window [%d, %d]"
                    % (d, lo, hi),
                    d,
                )
            numerator[d] = cleared.coeffs[d]
        return RationalFit(numerator, power, series.order - hi, series.order)

    lo = min(degrees[0], 0)
    if window is not None:
        lo, hi = window
        if series.order < hi + 3:
            raise FitError(
                "truncation order %d leaves no surplus beyond window end %d"
                % (series.order, hi)
            )
        return attempt(lo, hi)
    hi = max(lo + power, degrees[0])
    last_error = None
    while series.order - hi >= 3:
        try:
            return attempt(lo, hi)
        except _Offending as err:
            last_error = err
            hi = max(hi + 1, err.degree)
    raise last_error or FitError("no admissible window leaves a surplus of 3")


def exponent_by_scan(fit, lo, hi, sign=1):
    """Oracle for ``find_exponent``: every a in [lo, hi] tried in turn."""
    if fit.is_zero():
        return None
    found = None
    for a in range(lo, hi + 1):
        if check_Q_functional(fit, a, sign=sign):
            assert found is None, "multiple exponents"
            found = a
    return found


DENOMINATORS = [0, 1, 2, 3]
NONZERO = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4)])
COEFFS = st.one_of(st.just(0), NONZERO)


@st.composite
def fit_cases(draw):
    """A series num/denominator (num Laurent, of small degree), sometimes
    with one coefficient bent, and either no window or a random one."""
    order = draw(st.integers(0, 14))
    power = draw(st.sampled_from(DENOMINATORS))
    num = draw(st.dictionaries(st.integers(-2, 9), COEFFS, max_size=5))
    series = TruncSeries(order, num) * one_minus_q_power(-power, order)
    if draw(st.booleans()):
        d = draw(st.integers(-2, order))
        series = series + TruncSeries(order, {d: draw(COEFFS)})
    window = None
    if draw(st.booleans()):
        lo = draw(st.integers(-2, 2))
        window = (lo, draw(st.integers(lo, 14)))
    return series, power, window


def _outcome(fit, *args):
    try:
        f = fit(*args)
    except FitError as err:
        return "error", str(err)
    return "fit", f.numerator, f.power, f.surplus, f.order


@st.composite
def numerators(draw):
    """A nonzero numerator, palindromic with sign +-1 about its centre in
    half of the draws."""
    num = draw(st.dictionaries(st.integers(-3, 8), NONZERO, min_size=1, max_size=5))
    if draw(st.booleans()):
        lo, hi = min(num), max(num)
        sign = draw(st.sampled_from([1, -1]))
        num = {**num, **{lo + hi - d: sign * c for d, c in num.items()}}
        num = {d: c for d, c in num.items() if c}
    return num


class TestClosedForms:
    """The closed-form window and exponent against the searches they replace."""

    @given(fit_cases())
    @settings(max_examples=400, deadline=None)
    def test_fit_matches_widening_loop(self, case):
        series, power, window = case
        got = _outcome(fit_rational, series, power, window)
        expected = _outcome(fit_by_widening, series, power, window)
        if window is None and expected[0] == "error":
            assert got[0] == "error"  # only the text may differ
        else:
            assert got == expected

    @given(numerators(), st.sampled_from(DENOMINATORS), st.sampled_from([1, -1]))
    @settings(max_examples=400, deadline=None)
    def test_exponent_matches_scan(self, num, power, sign):
        fit = RationalFit(num, power, surplus=3, order=14)
        assert find_exponent(fit, -8, 8, sign) == exponent_by_scan(fit, -8, 8, sign)

    def test_exponent_checks_once(self, monkeypatch):
        calls = []
        original = rationality.check_Q_functional
        monkeypatch.setattr(
            rationality, "check_Q_functional", lambda *a: calls.append(a) or original(*a)
        )
        fit = fit_rational(TruncSeries(8, {d: d for d in range(9)}), 2)
        assert find_exponent(fit, -8, 8) == 0
        assert len(calls) == 1
        assert find_exponent(fit, 1, 8) is None  # the candidate 0 is out of range
        assert len(calls) == 1

    def test_negative_power(self):
        """(1-Q)^2 over (1-Q)^(-2) is 1: the binomials of a negative power
        run on past k = 2, as the oracle's geometric series does."""
        series = TruncSeries(8, {0: 1, 1: -2, 2: 1})
        assert fit_rational(series, -2).numerator == {0: 1}
        for window in (None, (0, 2)):
            got = _outcome(fit_rational, series, -2, window)
            assert got == _outcome(fit_by_widening, series, -2, window)

    def test_window_messages(self):
        """The window-mode texts that the fit and verify reports carry."""
        text = r"^nonvanishing coefficient at Q\^1 outside window \[0, 0\]$"
        with pytest.raises(FitError, match=text):
            fit_rational(TruncSeries(8, {0: 1, 1: 2}), 0, window=(0, 0))
        text = r"^truncation order 4 leaves no surplus beyond window end 2$"
        with pytest.raises(FitError, match=text):
            fit_rational(geometric(4), 1, window=(0, 2))


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
        assert fit.power == 1
        assert fit.to_json()["denom_spec"] == [[1, 1]]
        assert not holds

    def test_power_zero_has_no_factor(self):
        fit, holds = certify_column(TruncSeries(5, {1: 1}), 0, 2)
        assert fit.power == 0
        assert fit.to_json()["denom_spec"] == []
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
