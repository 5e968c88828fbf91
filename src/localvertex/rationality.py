"""Every certificate of the engine: rational reconstruction, functional
equations, membership in R_{a,b}, polynomiality and integrality.

A fit certifies that a truncated Q-series is num(Q) / (1 - Q)^p, the
one denominator the engine needs (a GW column over (1-Q)^(4m+2g-2), the
u^h coefficient of the exceptional series over (1-Q)^(b+h)), by
multiplying through and demanding that every coefficient beyond the
numerator window vanish; the count of vanishing surplus coefficients is
the confidence certificate (>= 3 for an accepted fit).  Nothing is
searched: the window is either given or read off the cleared series, and
the only exponent a for which Q^a f(1/Q) = +-f(Q) can hold is fixed by
the numerator's lowest and highest degrees.  Fits hold the series' own
Fraction (or int) coefficients.

Functional equations in Q are checked on the reconstructed rational
function by exact numerator manipulation, never on truncations: Q -> 1/Q
is ill-defined on a one-sided expansion.

A GW genus column is certified by ``column_certificate`` (a fit over
(1-Q)^column_power(m, g) and the Weyl functional equation at weight
m(r-2)), the modified exceptional series by ``verify_R``, eventual
polynomiality in j by ``polynomiality_check``, q -> 1/q invariance of
Z_m/Z_0 by ``check_q_inversion`` and integrality of the PT coefficients
by ``check_integrality``; the first three return their report entries.
Only the ``fit`` and ``verify`` tasks import this module; the package
root, ``gwtheory`` and a ``gw`` or ``pt`` run do not.
"""

from __future__ import annotations

from fractions import Fraction

from .qfield import _trailing_zeros, expansion
from .series import TruncSeries

INTEGRALITY_Q_TERMS = 20  # q-coefficients read by check_integrality

class FitError(ArithmeticError):
    """The series is not rational with the prescribed denominator."""


class RationalFit:
    """A certified rational function num(Q)/(1-Q)^power."""

    def __init__(self, numerator: dict, power: int, surplus: int, order: int):
        # Q-degree -> Fraction (or int) coefficient, Laurent
        self.numerator = numerator
        self.power = power
        self.surplus = surplus
        self.order = order  # truncation order of the fitted input

    def is_zero(self) -> bool:
        return not self.numerator

    def to_json(self):
        return {
            "numerator": {str(d): _coeff_json(c) for d, c in sorted(self.numerator.items())},
            "denom_spec": [[1, self.power]] if self.power else [],
            "surplus": self.surplus,
            "order": self.order,
        }


def _coeff_json(c):
    c = Fraction(c)
    return {"num": c.numerator, "den": c.denominator}


def fit_rational(series: TruncSeries, power: int, window=None) -> RationalFit:
    """Reconstruct series = num(Q) / (1-Q)^power with a surplus certificate.

    The series is cleared by one product with (1-Q)^power, whose
    coefficients are the binomials (-1)^k C(power, k).  ``window`` is the
    inclusive (lo, hi) degree interval allowed for the numerator.  When
    omitted, it is the least window that holds the cleared series and
    reaches ``power`` past its start: lo = min(valuation, 0),
    hi = max(lo + power, top degree).  Either way the fit needs a surplus
    of at least 3 beyond hi.
    """
    order = series.order
    valuation = series.valuation()
    if valuation is None:
        return RationalFit({}, power, surplus=order, order=order)
    # c_(k+1) = -c_k (power - k)/(k + 1) is exact, and for power < 0 runs
    # on through the degrees the truncated product can reach
    clearing, c = {}, 1
    for k in range(order - valuation + 1):
        clearing[k] = c
        c = -c * (power - k) // (k + 1)
    cleared = series * TruncSeries(order, clearing)
    degrees = cleared.degrees()
    if window is None:
        lo = min(degrees[0], 0)
        hi = max(lo + power, degrees[-1])
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
    return RationalFit(dict(cleared.coeffs), power, surplus=order - hi, order=order)


def check_Q_functional(fit: RationalFit, a: int, sign: int = 1) -> bool:
    """Exact check of Q^a * f(1/Q) = sign * f(Q) on the fitted function.

    Substituting 1/Q multiplies the denominator (1-Q)^p by (-1)^p Q^(-p),
    so the identity reduces to num(Q) = sign * (-1)^p * Q^(a+p) * num(1/Q),
    a finite palindromy condition on the numerator.
    """
    if fit.is_zero():
        return True
    total_sign = sign * (-1) ** fit.power
    for d, c in fit.numerator.items():
        mirrored = fit.numerator.get(a + fit.power - d, 0)
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
    fit = fit_rational(column, power, window=(0, hi))
    return fit, check_Q_functional(fit, a, sign)


def find_exponent(fit: RationalFit, lo: int, hi: int, sign: int = 1):
    """The unique a in [lo, hi] with Q^a f(1/Q) = sign * f(Q), or None.

    Q -> 1/Q sends the numerator's lowest degree to its highest, so the
    only candidate is a = min + max - power.  The zero function is
    rejected (every exponent works).
    """
    if fit.is_zero():
        return None
    a = min(fit.numerator) + max(fit.numerator) - fit.power
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


def check_integrality(fractions: dict) -> bool:
    """True if every fraction (shift, num, den) of ``vertex.pt_fractions``
    q-expands with integer coefficients over the INTEGRALITY_Q_TERMS from
    its valuation (the 40 t-terms of the canonical form's t_expansion).
    num and den need not be coprime: no gcd is taken.
    """
    return all(
        c.denominator == 1
        for shift, num, den in fractions.values()
        for c in expansion(shift, num, den, INTEGRALITY_Q_TERMS)[1]
    )


def w_dot_beta(m: int, j: int, r_surface: int) -> int:
    """The pairing w . (m*c + j*b) = K_W . beta on F_{r_surface}.

    Uses K_W = -2c - (r+2)b and the intersection table c^2 = -r,
    b^2 = 0, b.c = 1.  For j = 0 it is the weight m(r-2) of the Weyl
    functional equation of the GW column of class m*c + j*b.
    """
    return m * (r_surface - 2) - 2 * j


# ---------------------------------------------------------------------------
# GW genus columns


def column_power(m: int, g: int) -> int:
    """The power of (1-Q) that clears the GW column sum_j GW_{g, m*c + j*b} Q^j."""
    return 4 * m + 2 * g - 2


def column_certificate(table, m: int, g: int):
    """Certify the GW column sum_j GW_{g, m*c + j*b} Q^j of ``table``
    (a ``gwtheory.GWTable``).

    The column is fitted over (1-Q)^column_power(m, g) and checked against
    the Weyl functional equation at weight w.(m*c) = m(r-2).  Returns
    (entry, fit): the entry is {"exponent", "passed"}, plus "skipped" when
    the Q-order leaves no surplus or "error" when the column does not fit;
    ``fit`` is the RationalFit, or None.
    """
    a = w_dot_beta(m, 0, table.r)
    entry = {"exponent": None, "passed": False}
    fit = None
    try:
        certified = certify_column(table.column(g, m), column_power(m, g), a)
        if certified is None:
            entry["passed"] = True
            entry["skipped"] = "Q-order too small for this genus"
        else:
            fit, holds = certified
            if holds:
                entry["exponent"] = a
                entry["passed"] = True
    except FitError as err:
        entry["error"] = str(err)
    return entry, fit


# ---------------------------------------------------------------------------
# Ring membership of the modified exceptional series


def verify_R(useries: TruncSeries, a: int, b: int, h_max: int) -> dict:
    """Check each u-coefficient f_h against denominator (1-Q)^(b+h) and the
    symmetry Q^a f_h(1/Q) = (-1)^h f_h(Q), by ``certify_column``.

    Returns the report entry {"a", "b", "passed", "per_h"}, with one row
    per h.  Fit failures are recorded in their row, not fatal.  A degree h
    whose Q-order leaves no surplus is marked "skipped" with the reason,
    not failed.
    """
    per_h = {}
    for h in range(min(0, useries.valuation() or 0), h_max + 1):
        coeff = useries.coeffs.get(h)
        row = per_h[str(h)] = {"fit_ok": True, "symmetry_ok": True, "error": None, "fit": None}
        if not coeff:
            continue
        power = b + h
        try:
            certified = certify_column(coeff, power, a, sign=(-1) ** h)
        except FitError as err:
            row.update(fit_ok=False, symmetry_ok=False, error=str(err))
            continue
        if certified is None:
            reason = "Q-order %d leaves no surplus for denominator power %d"
            row["skipped"] = reason % (coeff.order, power)
        else:
            fit, row["symmetry_ok"] = certified
            row["fit"] = fit.to_json()
    passed = all(row["fit_ok"] and row["symmetry_ok"] for row in per_h.values())
    return {"a": a, "b": b, "passed": passed, "per_h": per_h}


# ---------------------------------------------------------------------------
# Eventual polynomiality in j


def finite_differences(values, depth: int):
    """The depth-th forward differences of a sequence."""
    out = list(values)
    for _ in range(depth):
        out = [b - a for a, b in zip(out, out[1:])]
    return out


def polynomiality_check(table, g: int, m: int, j_lo: int, j_hi: int):
    """Check that j -> GW_{g, m*c + j*b} of ``table`` (a ``gwtheory.GWTable``)
    is a polynomial of degree < column_power(m, g) across [j_lo, j_hi], via
    vanishing finite differences.

    Returns the report entry: the difference order, the window, the
    detected polynomial degree and "passed".
    """
    depth = column_power(m, g)
    length = j_hi - j_lo + 1
    if length < depth + 1:
        raise ValueError(
            "window of length %d too short for order-%d differences"
            % (length, depth)
        )
    values = [table.value(g, m, j) for j in range(j_lo, j_hi + 1)]
    rows = [values]  # rows[k] holds the k-th differences
    while len(rows) < length:
        rows.append(finite_differences(rows[-1], 1))
    degree = max((k for k, row in enumerate(rows) if any(row)), default=None)
    return {
        "g": g,
        "m": m,
        "window": [j_lo, j_hi],
        "difference_order": depth,
        "max_nonvanishing_difference_order": degree,
        "passed": not any(rows[depth]),
    }
