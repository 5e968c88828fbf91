"""Every certificate of the engine: rational reconstruction, functional
equations, membership in R_{0,0}, polynomiality and integrality.

One routine, ``certify_column``, fits a series and checks its functional
equation.  It certifies that a {degree: value} map, read through a given
Q-order, is num(Q) / (1 - Q)^p, the one denominator the engine needs (a
GW column over (1-Q)^(4m+2g-2), the u^h coefficient of the exceptional
series over (1-Q)^h): p exact differences clear it, and every
coefficient beyond the numerator window must vanish; the count of
vanishing surplus coefficients is the confidence certificate (>= 3 for
an accepted fit).  Nothing is searched: the caller hands over the
exponent a of the one functional equation Q^a f(1/Q) = (-1)^p f(Q) (the
Weyl weight m(r-2) of a GW column, 0 in R_{0,0}), and the window
[0, p + max(a, 0)] follows from it a priori.  The functional equation is
checked on the numerator by exact palindromy, never on the truncation:
Q -> 1/Q is ill-defined on a one-sided expansion.  Fits hold the
column's own Fraction (or int) coefficients.

``column_certificate`` certifies a GW genus column read off
``GWTable.value`` through the task's Q-order (a fit over
(1-Q)^column_power(m, g), at the Weyl weight m(r-2)), ``verify_R`` the
exceptional series's membership in R_{0,0}, ``polynomiality_check``
eventual polynomiality in j, ``check_q_inversion`` q -> 1/q invariance
of Z_m/Z_0 and ``check_integrality`` the integrality of the rows of
``vertex.pt_invariants``; the first three return their report entries.
It imports neither ``vertex`` nor ``series``: it reads the PT rows ``pt``
prints, and coefficient maps.  Only ``fit`` and ``verify`` import it.
"""

from .qfield import _trailing_zeros


class FitError(ArithmeticError):
    """The series is not rational with the prescribed denominator."""


def certify_column(column: dict, order: int, power: int, a: int):
    """Fit column = num(Q)/(1-Q)^power and check Q^a f(1/Q) = (-1)^power f(Q).

    ``column`` is a {degree: value} map, read through ``order`` and left
    unchanged.  By the functional equation the numerator lies in degrees
    [0, power + max(a, 0)], so the fit takes that window a priori.  A copy
    is cleared in place by ``power`` backward differences c_d -= c_(d-1),
    each the exact product with 1 - Q; a coefficient outside the window,
    or a negative power, raises FitError.  Substituting 1/Q multiplies
    (1-Q)^power by (-1)^power Q^(-power), so the identity is the
    palindromy num_d = num_(a+power-d).

    Returns None when the order leaves no surplus of 3 beyond the window,
    else (fit, holds), ``fit`` the report entry {"numerator",
    "denom_spec", "surplus", "order"}; the zero column has surplus = order.
    """
    if power < 0:
        raise FitError("negative denominator power %d" % power)
    hi = power + max(a, 0)
    if order < hi + 3:
        return None
    low = min(min(column, default=0), 0)
    cleared = {d: column.get(d, 0) for d in range(low, order + 1)}
    for _ in range(power):
        for d in range(order, low, -1):
            cleared[d] -= cleared[d - 1]
    numerator = {d: c for d, c in cleared.items() if c}  # ascending degrees
    outside = [d for d in numerator if not 0 <= d <= hi]
    if outside:
        raise FitError(
            "nonvanishing coefficient at Q^%d outside window [0, %d]" % (outside[0], hi)
        )
    holds = all(c == numerator.get(a + power - d, 0) for d, c in numerator.items())
    fit = {
        "numerator": {
            str(d): {"num": c.numerator, "den": c.denominator}
            for d, c in numerator.items()
        },
        "denom_spec": [[1, power]] if power else [],
        "surplus": order - hi if numerator else order,
        "order": order,
    }
    return fit, holds


def check_q_inversion(series: tuple):
    """Verify every nonzero Q-coefficient q^shift num(q)/den(q) of a class
    series (shift, {j: num}, den) is fixed by q -> 1/q.

    den must be palindromic, den(1/q) = q^(-deg den) den(q), as (q;q)_m^2
    is with deg = m(m+1).  The check is then N(1/q) = q^(-deg den) N(q)
    for N = q^shift num: num, its trailing zeros moved into the shift,
    is a palindrome, and the degrees match.  No gcd is taken.

    Returns (True, None) or (False, first failing Q-degree).
    """
    shift, nums, den = series
    for d, num in sorted(nums.items()):
        zeros = _trailing_zeros(num)
        core = num[: len(num) - zeros]
        if core != core[::-1] or 2 * shift + len(num) - 1 + zeros != len(den) - 1:
            return False, d
    return True, None


def check_integrality(rows) -> bool:
    """True if every value of the (j, n, value) rows of
    ``vertex.pt_invariants`` is an integer: the verdict is on the numbers
    ``pt`` prints, read once.
    """
    return all(v.denominator == 1 for _, _, v in rows)


def w_dot_beta(m: int, r_surface: int) -> int:
    """The weight w . (m*c) = K_W . (m*c) = m(r-2) on F_{r_surface}: the
    exponent of the Weyl functional equation of the GW column of class
    m*c + j*b.  Uses K_W = -2c - (r+2)b and c^2 = -r, b.c = 1.
    """
    return m * (r_surface - 2)


# ---------------------------------------------------------------------------
# GW genus columns


def column_power(m: int, g: int) -> int:
    """The power of (1-Q) that clears the GW column sum_j GW_{g, m*c + j*b} Q^j."""
    return 4 * m + 2 * g - 2


def column_certificate(table, m: int, g: int, order: int):
    """Certify the GW column sum_j GW_{g, m*c + j*b} Q^j of ``table``
    (a ``gwtheory.GWTable``), read off ``table.value`` through Q^order.

    The column is fitted over (1-Q)^column_power(m, g) and checked against
    the Weyl functional equation at weight w.(m*c) = m(r-2).  Returns
    (entry, fit): the entry is {"exponent", "passed"}, plus "skipped" when
    the Q-order leaves no surplus or "error" when the column does not fit;
    ``fit`` is the fit entry of ``certify_column``, or None.
    """
    a = w_dot_beta(m, table.r)
    entry = {"exponent": None, "passed": False}
    fit = None
    try:
        column = {j: table.value(g, m, j) for j in range(order + 1)}
        certified = certify_column(column, order, column_power(m, g), a)
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


def verify_R(useries) -> dict:
    """Certify membership in R_{0,0}: each u-coefficient f_h, h up to the
    u-order of ``useries`` (``gwtheory.tilde_pt0``), is num(Q)/(1-Q)^h with
    f_h(1/Q) = (-1)^h f_h(Q), by ``certify_column`` at weight 0 on its
    coefficient map; a row h < 0 fails its fit.

    Returns the report entry {"a": 0, "b": 0, "passed", "per_h"}, a and b
    naming the ring, with one row per h.  Fit failures are recorded in
    their row, not fatal.  A degree h whose Q-order leaves no surplus is
    marked "skipped" with the reason, not failed.
    """
    per_h = {}
    for h in range(min(0, useries.valuation() or 0), useries.order + 1):
        coeff = useries.coeffs.get(h)
        row = per_h[str(h)] = {"fit_ok": True, "symmetry_ok": True, "error": None, "fit": None}
        if not coeff:
            continue
        try:
            certified = certify_column(coeff.coeffs, coeff.order, h, 0)
        except FitError as err:
            row.update(fit_ok=False, symmetry_ok=False, error=str(err))
            continue
        if certified is None:
            reason = "Q-order %d leaves no surplus for denominator power %d"
            row["skipped"] = reason % (coeff.order, h)
        else:
            row["fit"], row["symmetry_ok"] = certified
    passed = all(row["fit_ok"] and row["symmetry_ok"] for row in per_h.values())
    return {"a": 0, "b": 0, "passed": passed, "per_h": per_h}


# ---------------------------------------------------------------------------
# Eventual polynomiality in j


def polynomiality_check(table, g: int, j_lo: int, j_hi: int):
    """Check that j -> GW_{g, c + j*b} of ``table`` (a ``gwtheory.GWTable``)
    is a polynomial of degree < column_power(1, g) across [j_lo, j_hi], via
    vanishing finite differences.

    Returns the report entry: the class (g, m = 1), the difference order,
    the window, the detected polynomial degree and "passed".
    """
    depth = column_power(1, g)
    length = j_hi - j_lo + 1
    if length < depth + 1:
        raise ValueError(
            "window of length %d too short for order-%d differences"
            % (length, depth)
        )
    values = [table.value(g, 1, j) for j in range(j_lo, j_hi + 1)]
    rows = [values]  # rows[k] holds the k-th differences
    while len(rows) < length:
        row = rows[-1]
        rows.append([b - a for a, b in zip(row, row[1:])])
    degree = max((k for k, row in enumerate(rows) if any(row)), default=None)
    return {
        "g": g,
        "m": 1,
        "window": [j_lo, j_hi],
        "difference_order": depth,
        "max_nonvanishing_difference_order": degree,
        "passed": not any(rows[depth]),
    }
