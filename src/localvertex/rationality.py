"""Every certificate of the engine: rational reconstruction, functional
equations, membership in R_{a,b}, polynomiality and integrality.

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

A GW genus column is certified by ``column_certificate`` (a fit over
(1-Q)^column_power(m, g) and the Weyl functional equation at weight
m(r-2)), the modified exceptional series by ``verify_R``, eventual
polynomiality in j by ``polynomiality_check``, q -> 1/q invariance of
Z_m/Z_0 by ``check_q_inversion`` and integrality of the PT coefficients
by ``check_integrality``.  Only the ``fit`` and ``verify`` tasks import
this module; the package root, ``gwtheory`` and a ``gw`` or ``pt`` run
do not.
"""

from __future__ import annotations

from fractions import Fraction

from .qfield import _trailing_zeros, expansion
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


def check_integrality(fractions: dict, q_terms: int = 20) -> bool:
    """True if every fraction (shift, num, den) of ``vertex.pt_fractions``
    q-expands with integer coefficients over the q_terms from its valuation
    (the 40 t-terms of the canonical form's t_expansion).  num and den need
    not be coprime: no gcd is taken.
    """
    return all(
        c.denominator == 1
        for shift, num, den in fractions.values()
        for c in expansion(shift, num, den, q_terms)[1]
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


class RMembership:
    """Per-u-degree verification of membership in the ring R_{a,b}."""

    def __init__(self, a: int, b: int, per_h: dict = None):
        self.a = a
        self.b = b
        # h -> dict(fit, fit_ok, symmetry_ok)
        self.per_h = {} if per_h is None else per_h

    @property
    def passed(self) -> bool:
        return all(
            row["fit_ok"] and row["symmetry_ok"] for row in self.per_h.values()
        )

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "passed": self.passed,
            "per_h": {
                str(h): {
                    "fit_ok": row["fit_ok"],
                    "symmetry_ok": row["symmetry_ok"],
                    "error": row.get("error"),
                    "fit": row["fit"].to_json() if row.get("fit") else None,
                    **({"skipped": row["skipped"]} if "skipped" in row else {}),
                }
                for h, row in sorted(self.per_h.items())
            },
        }


def verify_R(useries: TruncSeries, a: int, b: int, h_max: int) -> RMembership:
    """Check each u-coefficient f_h against denominator (1-Q)^(b+h) and the
    symmetry Q^a f_h(1/Q) = (-1)^h f_h(Q), by ``certify_column``.

    Fit failures are recorded per h, not fatal.  A degree h whose Q-order
    leaves no surplus is marked "skipped" with the reason, not failed.
    """
    result = RMembership(a=a, b=b)
    for h in range(min(0, useries.valuation() or 0), h_max + 1):
        coeff = useries.coeffs.get(h)
        if coeff is None or not coeff:
            result.per_h[h] = {"fit_ok": True, "symmetry_ok": True, "fit": None}
            continue
        power = b + h
        row = {"fit_ok": False, "symmetry_ok": False, "fit": None}
        try:
            certified = certify_column(coeff, power, a, sign=(-1) ** h)
            if certified is None:
                reason = "Q-order %d leaves no surplus for denominator power %d"
                row = {"fit_ok": True, "symmetry_ok": True, "fit": None,
                       "skipped": reason % (coeff.order, power)}
            else:
                row["fit"], row["symmetry_ok"] = certified
                row["fit_ok"] = True
        except FitError as err:
            row["error"] = str(err)
        result.per_h[h] = row
    return result


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

    Returns (passed, report) where the report carries the difference
    order, the window, and the detected polynomial degree.
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
    passed = not any(rows[depth])
    degree = max((k for k, row in enumerate(rows) if any(row)), default=None)
    report = {
        "g": g,
        "m": m,
        "window": [j_lo, j_hi],
        "difference_order": depth,
        "max_nonvanishing_difference_order": degree,
        "passed": passed,
    }
    return passed, report
