"""Rational reconstruction from truncated series and functional equations.

A fit certifies that a truncated Q-series is the expansion of
num(Q) / prod_i (1 - Q^(a_i))^(e_i) by multiplying through and demanding
that every coefficient beyond the numerator window vanish; the count of
vanishing surplus coefficients is the confidence certificate (>= 3 for
an accepted fit).  Nothing is searched: the window is either given or
read off the cleared series, and the only exponent a for which
Q^a f(1/Q) = +-f(Q) can hold is fixed by the numerator's lowest and
highest degrees.  Fits hold the series' own Fraction (or int)
coefficients.

Functional equations in Q are checked on the reconstructed rational
function by exact numerator manipulation, never on truncations: Q -> 1/Q
is ill-defined on a one-sided expansion.
"""

from __future__ import annotations

from fractions import Fraction

from .qfield import _trailing_zeros
from .series import TruncSeries


class FitError(ArithmeticError):
    """The series is not rational with the prescribed denominator."""


class RationalFit:
    """A certified rational function num(Q)/prod (1-Q^a)^e."""

    def __init__(self, numerator: dict, denom_spec: tuple, surplus: int, order: int):
        # Q-degree -> Fraction (or int) coefficient, Laurent
        self.numerator = numerator
        self.denom_spec = denom_spec  # ((a, e), ...) meaning prod (1 - Q^a)^e
        self.surplus = surplus
        self.order = order  # truncation order of the fitted input

    def denominator_degree(self) -> int:
        return sum(a * e for a, e in self.denom_spec)

    def expand(self, order: int) -> TruncSeries:
        """Re-expand the fit as a truncated series (for certification)."""
        num = TruncSeries(order, dict(self.numerator))
        series = num
        for a, e in self.denom_spec:
            base = TruncSeries(order, {0: 1, a: -1})
            series = series * base.pow_int(-e)
        return series

    def is_zero(self) -> bool:
        return not self.numerator

    def to_json(self):
        return {
            "numerator": {str(d): _coeff_json(c) for d, c in sorted(self.numerator.items())},
            "denom_spec": [list(p) for p in self.denom_spec],
            "surplus": self.surplus,
            "order": self.order,
        }


def _coeff_json(c):
    c = Fraction(c)
    return {"num": c.numerator, "den": c.denominator}


def denominator_series(denom_spec, order: int) -> TruncSeries:
    """The polynomial prod (1 - Q^a)^e as a truncated series."""
    out = TruncSeries.one(order)
    for a, e in denom_spec:
        out = out * TruncSeries(order, {0: 1, a: -1}).pow_int(e)
    return out


def fit_rational(series: TruncSeries, denom_spec, window=None) -> RationalFit:
    """Reconstruct series = num(Q) / prod (1-Q^a)^e with a surplus certificate.

    ``window`` is the inclusive (lo, hi) degree interval allowed for the
    numerator.  When omitted, it is the least window that holds the
    cleared series and reaches the denominator degree past its start:
    lo = min(valuation, 0), hi = max(lo + deg(denominator), top degree).
    Either way the fit needs a surplus of at least 3 beyond hi.
    """
    denom_spec = tuple(sorted(tuple(p) for p in denom_spec))
    order = series.order
    cleared = series * denominator_series(denom_spec, order)
    degrees = cleared.degrees()
    if not degrees:
        return RationalFit({}, denom_spec, surplus=order, order=order)
    if window is None:
        lo = min(degrees[0], 0)
        hi = max(lo + sum(a * e for a, e in denom_spec), degrees[-1])
    else:
        lo, hi = window
    if order < hi + 3:
        raise FitError(
            "truncation order %d leaves no surplus beyond window end %d" % (order, hi)
        )
    outside = [d for d in degrees if not lo <= d <= hi]
    if outside:
        raise FitError(
            "nonvanishing coefficient at Q^%d outside window [%d, %d]"
            % (outside[0], lo, hi)
        )
    return RationalFit(dict(cleared.coeffs), denom_spec, surplus=order - hi, order=order)


def check_Q_functional(fit: RationalFit, a: int, sign: int = 1) -> bool:
    """Exact check of Q^a * f(1/Q) = sign * f(Q) on the fitted function.

    With denominator prod (1-Q^(a_i))^(e_i), substituting 1/Q multiplies
    the denominator by (-1)^E Q^(-D) with E = sum e_i, D = sum a_i e_i;
    the identity reduces to num(Q) = sign * (-1)^E * Q^(a+D) * num(1/Q),
    a finite palindromy condition on the numerator.
    """
    if fit.is_zero():
        return True
    E = sum(e for _, e in fit.denom_spec)
    D = fit.denominator_degree()
    total_sign = sign * (-1) ** E
    for d, c in fit.numerator.items():
        mirrored = fit.numerator.get(a + D - d, 0)
        if c != total_sign * mirrored:
            return False
    return True


def certify_column(column: TruncSeries, power: int, a: int, sign: int = 1):
    """Fit column = num(Q)/(1-Q)^power and check Q^a f(1/Q) = sign * f(Q).

    By the functional equation the numerator lies in degrees
    [0, power + max(a, 0)], so the fit takes that window a priori.
    Returns None when the order leaves no surplus of 3 beyond it,
    else (fit, holds); a series that is not rational with this
    denominator raises FitError.
    """
    hi = power + max(a, 0)
    if column.order < hi + 3:
        return None
    fit = fit_rational(column, ((1, power),) if power else (), window=(0, hi))
    return fit, check_Q_functional(fit, a, sign)


def find_exponent(fit: RationalFit, lo: int, hi: int, sign: int = 1):
    """The unique a in [lo, hi] with Q^a f(1/Q) = sign * f(Q), or None.

    Q -> 1/Q sends the numerator's lowest degree to its highest, so the
    only candidate is a = min + max - deg(denominator).  The zero
    function is rejected (every exponent works).
    """
    if fit.is_zero():
        return None
    a = min(fit.numerator) + max(fit.numerator) - fit.denominator_degree()
    if lo <= a <= hi and check_Q_functional(fit, a, sign):
        return a
    return None


def check_q_inversion(fractions: dict):
    """Verify every nonzero Q-coefficient q^shift num(q)/den(q) is fixed by q -> 1/q.

    den must be palindromic, den(1/q) = q^(-deg den) den(q), as (q;q)_m^2
    is with deg = m(m+1).  The check is then N(1/q) = q^(-deg den) N(q)
    for N = q^shift num: num, its trailing zeros moved into the shift,
    is a palindrome, and the degrees match.  No gcd is taken.

    Returns (True, None) or (False, first failing Q-degree).
    """
    for d in sorted(fractions):
        shift, num, den = fractions[d]
        zeros = _trailing_zeros(num)
        core = num[: len(num) - zeros]
        if core != core[::-1] or 2 * shift + len(num) - 1 + zeros != len(den) - 1:
            return False, d
    return True, None


def w_dot_beta(m: int, j: int, r_surface: int) -> int:
    """The pairing w . (m*c + j*b) = K_W . beta on F_{r_surface}.

    Uses K_W = -2c - (r+2)b and the intersection table c^2 = -r,
    b^2 = 0, b.c = 1.  For j = 0 it is the weight m(r-2) of the Weyl
    functional equation of the GW column of class m*c + j*b.
    """
    return m * (r_surface - 2) - 2 * j
