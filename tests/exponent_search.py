"""The window and exponent searches that the engine does without.

``rationality.certify_column`` is handed the exponent a of
Q^a f(1/Q) = (-1)^p f(Q), f = num/(1-Q)^p, the Weyl weight, and takes its
window from it.  The tests find both from the series alone, to show that
the weight is the only exponent that works.  ``find_exponent`` is that
search in closed form; test_rationality checks it against the loops it
replaces (``fit_by_widening`` and ``exponent_by_scan``).  Here the sign
of Q^a f(1/Q) = sign f(Q) stays free, and ``symmetric`` checks the
identity on f, not the numerator's palindromy: the tests pass
sign = (-1)^p to compare with ``certify_column``.
"""

from localvertex.rationality import FitError
from localvertex.series import TruncSeries


def one_minus_q_power(power, order):
    """(1-Q)^power through Q^order by repeated products: with 1 - Q for
    power >= 0, with the geometric series sum_k Q^k for power < 0."""
    step = {0: 1, 1: -1} if power >= 0 else dict.fromkeys(range(order + 1), 1)
    result = TruncSeries.one(order)
    for _ in range(abs(power)):
        result = result * TruncSeries(order, step)
    return result


def symmetric(numerator, power, a, sign=1):
    """Q^a f(1/Q) = sign f(Q) for f = numerator / (1-Q)^power: 1/Q turns
    (1-Q)^power into (-1)^power Q^(-power) (1-Q)^power."""
    mirror = -sign if power % 2 else sign
    return numerator == {a + power - d: mirror * c for d, c in numerator.items()}


def find_exponent(series, power, lo=-8, hi=8, sign=1):
    """Fit series = num(Q)/(1-Q)^power in the auto window and find the
    unique a in [lo, hi] with Q^a f(1/Q) = sign f(Q).

    The auto window is the least one that holds the cleared series and
    reaches ``power`` past its start, [v, max(v + power, top)] with
    v = min(valuation, 0); the fit needs a surplus of 3 beyond it within
    the order of the cleared series, else FitError.  Q -> 1/Q sends the
    numerator's lowest degree to its highest, so the only candidate is
    a = lowest + highest - power.

    Returns (numerator, surplus, a), with a None when no exponent in
    [lo, hi] works, always so for the zero function (every exponent fits
    it).
    """
    cleared = series * one_minus_q_power(power, series.order)
    numerator = cleared.coeffs
    if not numerator:
        return {}, cleared.order, None
    low, top = min(numerator), max(numerator)
    end = max(min(low, 0) + power, top)
    if cleared.order < end + 3:
        raise FitError("order %d leaves no surplus beyond Q^%d" % (cleared.order, end))
    a = low + top - power
    if not (lo <= a <= hi and symmetric(numerator, power, a, sign)):
        a = None
    return numerator, cleared.order - end, a
