"""Truncated Laurent series with exact coefficients.

The engine runs one series of this type, the nested exponential of
``gwtheory.tilde_pt0``, which imports this module inside it; the test
suite's oracles run the rest.  Coefficients may be ints, Fractions, nested TruncSeries
or ``qrat.QRat`` values (not imported here), with ring arithmetic among
themselves and with ints/Fractions; a scalar added to a series is an int
or a Fraction.  The ring has sums, products and ``exp`` only: no series
is inverted or raised to a power.  Absent degrees denote zero; all
stored degrees are <= order.  There is no complex coefficient type:
``gwtheory`` expands in x = iu over Fractions and applies i^h itself.
"""

from fractions import Fraction


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
                if d <= order and c:
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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = TruncSeries(self.order, {0: other})
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

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return TruncSeries(
                self.order, {d: c * other for d, c in self.coeffs.items()}
            )
        # a factor of negative valuation v moves the other's unknown terms
        # down by |v|; the zero series counts as valuation 0
        order = min(
            self.order + min(other.valuation() or 0, 0),
            other.order + min(self.valuation() or 0, 0),
        )
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

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        degrees = set(self.coeffs) | set(other.coeffs)
        return not any(self.coeffs.get(d, 0) - other.coeffs.get(d, 0) for d in degrees)

    def __repr__(self):
        terms = ", ".join("%d: %r" % (d, self.coeffs[d]) for d in self.degrees())
        return "TruncSeries(order=%d, {%s})" % (self.order, terms)

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "TruncSeries":
        """Truncated exponential; requires valuation >= 1.

        b = exp(a) solves b' = a'b, so b_0 = 1 and
        n*b_n = sum_{k=1..n} k*a_k*b_{n-k}: O(order^2) coefficient products.
        """
        v = self.valuation()
        if v is not None and v < 1:
            raise SeriesError("exp requires vanishing constant term")
        terms = [(k, c * k) for k, c in sorted(self.coeffs.items())]
        out = {0: 1}
        for n in range(1, self.order + 1):
            acc = 0
            for k, c in terms:
                if k > n:
                    break
                if n - k in out:
                    acc += c * out[n - k]
            if acc:
                out[n] = acc * Fraction(1, n)
        return TruncSeries(self.order, out)
