"""Truncated Laurent series with exact coefficients.

The single class here is generic over the coefficient ring: coefficients
may be ints, Fractions, QRat values, or nested TruncSeries, as long as
they support ring arithmetic with each other and with ints/Fractions.
Absent degrees denote zero; all stored degrees are <= order.  There is
no complex coefficient type: the q = e^(iu) expansion in ``gwtheory``
keeps its series in x = iu over Fractions and applies i^h itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .qfield import QRat


class SeriesError(ArithmeticError):
    pass


class TruncSeries:
    """Laurent series truncated at a fixed order (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        cleaned = {}
        if coeffs:
            for d, c in coeffs.items():
                if d <= order and not _is_zero(c):
                    cleaned[d] = c
        self.coeffs = cleaned

    @classmethod
    def one(cls, order: int):
        return cls(order, {0: 1})

    def __getitem__(self, degree: int):
        if degree > self.order:
            raise SeriesError(
                "coefficient of degree %d beyond truncation order %d"
                % (degree, self.order)
            )
        return self.coeffs.get(degree, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def valuation(self):
        """Lowest stored degree; None for the zero series."""
        return min(self.coeffs) if self.coeffs else None

    def degrees(self):
        return sorted(self.coeffs)

    def truncate(self, order: int) -> "TruncSeries":
        """The same series cut at a lower (or equal) order; never extends."""
        if order > self.order:
            raise SeriesError(
                "cannot truncate order %d up to %d" % (self.order, order)
            )
        return TruncSeries(order, self.coeffs)

    def shifted(self, k: int) -> "TruncSeries":
        """Multiplication by the monomial x^k (order shifts along)."""
        return TruncSeries(self.order + k, {d + k: c for d, c in self.coeffs.items()})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = _scalar_series(other, self.order)
            if other is NotImplemented:
                return NotImplemented
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return TruncSeries(order, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, {d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            if _is_zero(other):
                return TruncSeries(self.order)
            return TruncSeries(
                self.order, {d: c * other for d, c in self.coeffs.items()}
            )
        order = min(self.order, other.order)
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if d > order:
                    continue
                prod = c1 * c2
                if d in out:
                    out[d] = out[d] + prod
                else:
                    out[d] = prod
        return TruncSeries(order, out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the lowest coefficient must be a unit."""
        v = self.valuation()
        if v is None:
            raise SeriesError("inverting the zero series")
        lead = self.coeffs[v]
        lead_inv = _coeff_inverse(lead)
        # a = lead*x^v * (1 + x), invert the unit part by geometric series
        rest = TruncSeries(
            self.order - v,
            {d - v: c * lead_inv for d, c in self.coeffs.items() if d != v},
        )
        geom = TruncSeries.one(self.order - v)
        power = TruncSeries.one(self.order - v)
        n = rest.valuation()
        if n is not None:
            for _ in range(0, (self.order - v) // n + 1):
                power = power * (-rest)
                if not power:
                    break
                geom = geom + power
        return TruncSeries(
            self.order - 2 * v, {d - v: c * lead_inv for d, c in geom.coeffs.items()}
        )

    def pow_int(self, k: int) -> "TruncSeries":
        if k == 0:
            return TruncSeries.one(self.order)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __pow__(self, k: int):
        return self.pow_int(k)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        degrees = set(self.coeffs) | set(other.coeffs)
        return all(_is_zero(self.coeffs.get(d, 0) - other.coeffs.get(d, 0)) for d in degrees)

    def __repr__(self):
        terms = ", ".join("%d: %r" % (d, self.coeffs[d]) for d in self.degrees())
        return "TruncSeries(order=%d, {%s})" % (self.order, terms)

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "TruncSeries":
        """Truncated exponential; requires valuation >= 1."""
        v = self.valuation()
        if v is not None and v < 1:
            raise SeriesError("exp requires vanishing constant term")
        result = TruncSeries.one(self.order)
        term = TruncSeries.one(self.order)
        if v is None:
            return result
        for n in range(1, self.order // v + 1):
            term = term * self * Fraction(1, n)
            if not term:
                break
            result = result + term
        return result


def _is_zero(c):
    if isinstance(c, (int, Fraction)):
        return c == 0
    return not c


def _coeff_inverse(c):
    if isinstance(c, int):
        if c in (1, -1):
            return c
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, QRat):
        return c.reciprocal()
    return c.inverse()


def _scalar_series(x, order):
    if isinstance(x, (int, Fraction, QRat)):
        return TruncSeries(order, {0: x})
    return NotImplemented


def binomial_factor(order: int, coeff, degree: int, exponent: int) -> TruncSeries:
    """(1 - coeff*x^degree)^exponent for integer exponent, truncated."""
    base = TruncSeries(order, {0: 1, degree: -coeff})
    return base.pow_int(exponent)


def cyclo_product(exponents, order: int) -> TruncSeries:
    """prod over (i, j) of (1 - q^(j+i) * Q)^e(i,j), truncated at Q^order.

    Keys of ``exponents`` are pairs (i, j) with j >= 1; values are integer
    exponents.  Factors whose linear Q-term cannot contribute below the
    truncation are skipped.
    """
    result = TruncSeries.one(order)
    for (i, j), e in sorted(exponents.items()):
        if e == 0 or order < 1:
            continue
        factor = binomial_factor(order, QRat.q_power(j + i), 1, e)
        result = result * factor
    return result


def polylog_neg(n: int) -> QRat:
    """The rational function Li_{1-n}(Q) for n >= 1, variable read as Q.

    Computed by the ladder Li_{s-1}(Q) = Q * d/dQ Li_s(Q) starting from
    Li_0(Q) = Q/(1-Q).  Writing Li_{1-n} = p_n(Q)/(1-Q)^n, the ladder
    becomes p_{n+1} = Q*(p_n'*(1-Q) + n*p_n), an integer recurrence on
    the coefficients: p_{n+1}[k+1] = (k+1)*p_n[k+1] + (n-k)*p_n[k].  The
    returned QRat reads t as Q.
    """
    if n < 1:
        raise ValueError("polylog_neg requires n >= 1")
    p = [0, 1, 0]  # p_1 = Q, ascending, with one zero of headroom
    for m in range(1, n):
        p = [0] + [(k + 1) * p[k + 1] + (m - k) * p[k] for k in range(len(p) - 1)] + [0]
    den = [comb(n, k) * (-1) ** k for k in range(n, -1, -1)]
    return QRat(0, p[::-1], den)


def polylog_series(s: int, order: int) -> TruncSeries:
    """The truncated sum_{k=1}^{order} Q^k / k^s with Fraction coefficients."""
    return TruncSeries(
        order, {k: Fraction(1, k**s) if s >= 0 else Fraction(k ** (-s)) for k in range(1, order + 1)}
    )
