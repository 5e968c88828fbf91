"""Rational reconstruction, functional equations, the Weyl weight."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from helpers import canonical, certified_weights
from localvertex.rationality import FitError, certify_column, check_q_inversion
from localvertex.series import TruncSeries
from localvertex.vertex import z_ratio
from oracles import pt_series


def geometric(order):
    """1/(1-Q) through Q^order, as the map ``certify_column`` reads."""
    return {d: 1 for d in range(order + 1)}


def fit_entry(numerator, power, surplus, order):
    """The report entry of a fit, as ``certify_column`` returns it."""
    return {
        "numerator": {
            str(d): {"num": Fraction(c).numerator, "den": Fraction(c).denominator}
            for d, c in sorted(numerator.items())
        },
        "denom_spec": [[1, power]] if power else [],
        "surplus": surplus,
        "order": order,
    }


ONE = {"0": {"num": 1, "den": 1}}


class TestFit:
    def test_geometric(self):
        fit, holds = certify_column(geometric(8), 8, 1, -1)
        assert fit["numerator"] == ONE
        assert fit["surplus"] == 7  # window [0, 1]
        assert holds  # Q^-1 f(1/Q) = -f(Q) for f = 1/(1-Q)

    def test_odd_numbers(self):
        series = {d: 2 * d + 1 for d in range(9)}  # (1+Q)/(1-Q)^2
        fit, holds = certify_column(series, 8, 2, -1)
        assert fit["numerator"] == {"0": {"num": 1, "den": 1}, "1": {"num": 1, "den": 1}}
        assert holds
        assert certified_weights(series, 8, 2) == [-1]

    def test_exponential_rejected(self):
        series = {d: Fraction(1, factorial(d)) for d in range(9)}
        with pytest.raises(FitError):
            certify_column(series, 8, 2, 0)
        assert certified_weights(series, 8, 2) == []

    def test_window_needs_surplus(self):
        # the window [0, 2] of exponent 1 needs order 5
        assert certify_column(geometric(4), 4, 1, 1) is None
        assert certify_column(geometric(5), 5, 1, 1) is not None

    def test_expand_round_trip(self):
        series = {d: (d + 1) * (d + 2) // 2 for d in range(9)}  # 1/(1-Q)^3
        fit, holds = certify_column(series, 8, 3, -3)
        assert fit["numerator"] == ONE and fit["surplus"] == 5 and holds
        assert certified_weights(series, 8, 3) == [-3]

    def test_zero_series(self):
        """The zero column reports surplus = order, and every exponent holds."""
        assert certify_column({}, 25, 2, 17) == (fit_entry({}, 2, 25, 25), True)
        # every a whose window [0, 2 + max(a, 0)] leaves Q^6 a surplus of 3
        assert certified_weights({}, 6, 2) == list(range(-8, 2))

    def test_to_json(self):
        fit, _ = certify_column(geometric(8), 8, 1, 0)
        assert list(fit) == ["numerator", "denom_spec", "surplus", "order"]
        assert fit == {"numerator": ONE, "denom_spec": [[1, 1]], "surplus": 7, "order": 8}


class TestQFunctional:
    def test_li_minus_one_symmetric(self):
        series = {d: d for d in range(9)}  # Q/(1-Q)^2
        assert certify_column(series, 8, 2, 0)[1]
        assert certified_weights(series, 8, 2) == [0]

    def test_antisymmetric(self):
        series = {0: 1, **{d: 2 for d in range(1, 9)}}  # (1+Q)/(1-Q)
        assert certify_column(series, 8, 1, 0)[1]  # f(1/Q) = -f(Q)

    def test_geometric_not_symmetric(self):
        assert not certify_column(geometric(8), 8, 1, 0)[1]

    def test_monomial_exponent(self):
        """Q^2 over (1-Q)^0 certifies only at a = 4."""
        assert certify_column({2: 1}, 8, 0, 4)[1]
        assert certified_weights({2: 1}, 8, 0) == [4]


def one_minus_q_power(power, order):
    """(1-Q)^power through Q^order by repeated products: with 1 - Q for
    power >= 0, with the geometric series sum_k Q^k for power < 0."""
    step = {0: 1, 1: -1} if power >= 0 else dict.fromkeys(range(order + 1), 1)
    result = TruncSeries.one(order)
    for _ in range(abs(power)):
        result = result * TruncSeries(order, step)
    return result


class TestClosedForms:
    """What the a priori window refuses, with the text the reports carry."""

    @pytest.mark.parametrize("power", [-1, -2, -3])
    def test_negative_power_raises(self, power):
        """(1-Q)^|power| is num/(1-Q)^power, but no certificate fits over a
        negative power: it raises at any order, never certifies."""
        column = one_minus_q_power(-power, 8).coeffs
        with pytest.raises(FitError, match="^negative denominator power %d$" % power):
            certify_column(column, 8, power, -power)
        with pytest.raises(FitError):
            certify_column({}, 0, power, 0)

    def test_window_messages(self):
        """The window text that the fit and verify reports carry."""
        text = r"^nonvanishing coefficient at Q\^1 outside window \[0, 0\]$"
        with pytest.raises(FitError, match=text):
            certify_column({0: 1, 1: 2}, 8, 0, 0)


def symmetric(numerator, power, a, sign):
    """Q^a f(1/Q) = sign f(Q) for f = numerator / (1-Q)^power: 1/Q turns
    (1-Q)^power into (-1)^power Q^(-power) (1-Q)^power."""
    mirror = -sign if power % 2 else sign
    return numerator == {a + power - d: mirror * c for d, c in numerator.items()}


def certify_by_binomials(column, order, power, a):
    """Oracle for ``certify_column``: the column cleared by one product in
    the series ring with the binomials (-1)^k C(power, k), k <= order, of
    (1-Q)^power, not by differences.  Same window and error text; the
    functional equation Q^a f(1/Q) = (-1)^power f(Q) is checked on f."""
    hi = power + max(a, 0)
    if order < hi + 3:
        return None
    # c_(k+1) = -c_k (power - k)/(k + 1) is exact
    clearing, c = {}, 1
    for k in range(order + 1):
        clearing[k] = c
        c = -c * (power - k) // (k + 1)
    numerator = (TruncSeries(order, column) * TruncSeries(order, clearing)).coeffs
    outside = [d for d in sorted(numerator) if not 0 <= d <= hi]
    if outside:
        raise FitError(
            "nonvanishing coefficient at Q^%d outside window [0, %d]" % (outside[0], hi)
        )
    surplus = order - hi if numerator else order
    return fit_entry(numerator, power, surplus, order), symmetric(numerator, power, a, (-1) ** power)


NONZERO = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4)])
COEFFS = st.one_of(st.just(0), NONZERO)


@st.composite
def numerators(draw):
    """A nonzero numerator, palindromic with sign +-1 about its centre in
    half of the draws."""
    num = draw(st.dictionaries(st.integers(-3, 9), NONZERO, min_size=1, max_size=5))
    if draw(st.booleans()):
        lo, hi = min(num), max(num)
        sign = draw(st.sampled_from([1, -1]))
        num = {**num, **{lo + hi - d: sign * c for d, c in num.items()}}
        num = {d: c for d, c in num.items() if c}
    return num


@st.composite
def columns(draw):
    """A column, its order, a power in 0..10 and a weight in -4..11.  In
    half of the draws the column is a numerator over (1-Q)^power, Laurent
    or palindromic at times, cut at the order or up to two terms past it,
    so that it fits; in half a coefficient, possibly an explicit zero, is
    added in.  In half of the draws the weight is the numerator's one
    candidate lowest + highest - power, bent by -1, 0 or +1, so the
    palindromy holds as well as fails, and in half the order leaves the
    window its surplus."""
    power = draw(st.integers(0, 10))
    num = draw(st.one_of(st.just({}), numerators()))
    if num and draw(st.booleans()):
        a = min(num) + max(num) - power + draw(st.integers(-1, 1))
    else:
        a = draw(st.integers(-4, 11))
    order = draw(st.integers(0, 20))
    if draw(st.booleans()):
        order = max(order, power + max(a, 0) + 3)
    if draw(st.booleans()):
        top = order + draw(st.integers(0, 2))
        column = (TruncSeries(top, num) * one_minus_q_power(-power, top)).coeffs
    else:
        column = num
    if draw(st.booleans()):
        d = draw(st.integers(-2, order + 2))
        column = {**column, d: column.get(d, 0) + draw(COEFFS)}
    return column, order, power, a


def _outcome(fit, *args):
    try:
        return "fit", fit(*args)
    except FitError as err:
        return "error", str(err)


class TestDifferences:
    """The exact differences against one product with the binomials."""

    @given(columns())
    @settings(max_examples=600, deadline=None)
    def test_matches_binomial_product(self, case):
        column = case[0]
        kept = dict(column)
        assert _outcome(certify_column, *case) == _outcome(certify_by_binomials, *case)
        assert column == kept  # the column is read, not cleared


def invert_t_oracle(series):
    """check_q_inversion in QRat: the first Q-degree whose canonical
    coefficient is moved by t -> 1/t."""
    shift, nums, den = series
    for d in sorted(nums):
        c = canonical((shift, nums[d], den))
        if c.invert_t() != c:
            return False, d
    return True, None


class TestQInversion:
    def test_constant(self):
        ok, witness = check_q_inversion((0, {0: [1]}, [1]))
        assert ok and witness is None

    def test_asymmetric_witness(self):
        series = (0, {0: [1], 1: [1, 0]}, [1])  # 1 + q Q
        assert check_q_inversion(series) == (False, 1)
        assert invert_t_oracle(series) == (False, 1)

    def test_palindromic_coefficient(self):
        # 2q/(1-q)^2, also with the numerator's trailing zeros unmoved
        for shift, num in ((1, [2]), (0, [2, 0])):
            ok, _ = check_q_inversion((shift, {1: num}, [1, -2, 1]))
            assert ok

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_matches_invert_t(self, r, scache):
        """The palindrome test on numerators over (q;q)_m^2 against
        QRat.invert_t on the canonical coefficients, at Q-orders 5 and 7."""
        for order, m in itertools.product((5, 7), range(4)):
            ratio = z_ratio(r, m, order, scache)
            assert check_q_inversion(ratio) == invert_t_oracle(ratio) == (True, None), (order, m)
            # q times the last coefficient is asymmetric, and the only witness
            shift, nums, den = ratio
            d = max(nums)
            bent = (shift, {**nums, d: nums[d] + [0]}, den)
            assert check_q_inversion(bent) == invert_t_oracle(bent) == (False, d), (order, m)


class TestNormalizedPT:
    """PT_{mc}/PT_0 is z_ratio at m."""

    def test_constant_term_matches_numerator(self, scache):
        shift, nums, den = z_ratio(0, 1, 4, scache)
        assert canonical((shift, nums[0], den)) == pt_series(0, 1, 4, cache=scache)[0]


class TestCertifyColumn:
    def test_skip_iff_no_surplus_beyond_window(self):
        # the numerator window is [0, power + max(a, 0)] = [0, 3]
        assert certify_column(geometric(5), 5, 1, 2) is None
        fit, holds = certify_column(geometric(6), 6, 1, 2)
        assert fit["denom_spec"] == [[1, 1]]
        assert not holds

    def test_power_zero_has_no_factor(self):
        fit, holds = certify_column({1: 1}, 5, 0, 2)
        assert fit["denom_spec"] == []
        assert holds  # Q^2 (1/Q) = Q

    def test_not_rational_raises(self):
        series = {d: Fraction(1, factorial(d)) for d in range(9)}
        with pytest.raises(FitError):
            certify_column(series, 8, 2, 0)
