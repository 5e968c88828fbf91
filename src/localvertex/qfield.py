"""Exact arithmetic in the field Q(t), with q = t**2.

Every vertex quantity lives here.  Half-integer powers of q are realized
as odd powers of t, so the whole computation stays inside one Laurent
polynomial ring over the integers.  Values are kept in a canonical form
(coprime numerator/denominator, no shared integer content, denominator
with positive constant term) so that equality is structural and values
can serve as cache keys.

The dense polynomial kernel is sympy's low-level ``dup_*`` machinery over
ZZ.  sympy's ZZ is backed by gmpy2 only when gmpy2 is installed; without
it, ZZ elements are plain Python ints.  Lists are in sympy's convention:
highest degree first.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.densearith import (
    dup_add,
    dup_exquo,
    dup_mul,
    dup_neg,
)
from sympy.polys.densebasic import dup_degree, dup_strip
from sympy.polys.densetools import dup_eval
from sympy.polys.euclidtools import dup_gcd

_ONE = [ZZ(1)]


class QFieldError(ArithmeticError):
    """Division by zero or evaluation at a pole."""


def _trailing_zeros(p):
    """Number of trailing zero coefficients, i.e. multiplicity of t=0."""
    n = 0
    for c in reversed(p):
        if c:
            break
        n += 1
    return n


def _reverse(p):
    """Coefficient reversal; realizes p(t) -> t^deg(p) * p(1/t)."""
    return dup_strip(list(reversed(p)))


def _flip_sign_odd(p):
    """p(-t): negate coefficients of odd t-degree."""
    d = dup_degree(p)
    return dup_strip([c if (d - i) % 2 == 0 else -c for i, c in enumerate(p)])


class QRat:
    """A rational function t^shift * num(t) / den(t) in canonical form."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift=0, num=None, den=None, _canonical=False):
        if num is None:
            num = []
        if den is None:
            den = _ONE
        if _canonical:
            self.shift, self.num, self.den = shift, num, den
            return
        self.shift, self.num, self.den = self._canonicalize(shift, num, den)

    @staticmethod
    def _canonicalize(shift, num, den):
        num = dup_strip([ZZ(c) for c in num])
        den = dup_strip([ZZ(c) for c in den])
        if not den:
            raise QFieldError("zero denominator")
        if not num:
            return 0, [], _ONE
        zn = _trailing_zeros(num)
        zd = _trailing_zeros(den)
        if zn:
            num = num[:-zn]
        if zd:
            den = den[:-zd]
        shift += zn - zd
        g = dup_gcd(num, den, ZZ)
        if dup_degree(g) > 0 or g != _ONE:
            num = dup_exquo(num, g, ZZ)
            den = dup_exquo(den, g, ZZ)
        if den[-1] < 0:
            num = dup_neg(num, ZZ)
            den = dup_neg(den, ZZ)
        return shift, num, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, [], _ONE, _canonical=True)

    @classmethod
    def one(cls):
        return cls(0, _ONE, _ONE, _canonical=True)

    @classmethod
    def from_int(cls, n):
        n = ZZ(int(n))
        if not n:
            return cls.zero()
        return cls(0, [n], _ONE, _canonical=True)

    @classmethod
    def from_rational(cls, x):
        x = Fraction(x)
        if not x:
            return cls.zero()
        return cls(0, [ZZ(x.numerator)], [ZZ(x.denominator)])

    @classmethod
    def t_power(cls, k: int):
        """The monomial t^k, i.e. q^(k/2)."""
        return cls(k, _ONE, _ONE, _canonical=True)

    @classmethod
    def q_power(cls, k: int):
        """The monomial q^k = t^(2k)."""
        return cls.t_power(2 * k)

    @classmethod
    def q_monomial(cls, k_half: int):
        """q^(k_half/2) = t^k_half; the vertex half-power convention."""
        return cls.t_power(k_half)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, QRat):
            return x
        if isinstance(x, int):
            return cls.from_int(x)
        if isinstance(x, Fraction):
            return cls.from_rational(x)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        """True if the denominator is 1 (Laurent polynomial in t)."""
        return self.den == _ONE

    def has_even_t_powers(self) -> bool:
        """True iff the value lies in Q(q), i.e. is fixed by t -> -t."""
        return self.subs_neg_t() == self

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = QRat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        s = min(self.shift, other.shift)
        a = _shift_poly(self.num, self.shift - s)
        b = _shift_poly(other.num, other.shift - s)
        num = dup_add(dup_mul(a, other.den, ZZ), dup_mul(b, self.den, ZZ), ZZ)
        return QRat(s, num, dup_mul(self.den, other.den, ZZ))

    __radd__ = __add__

    def __neg__(self):
        return QRat(self.shift, dup_neg(self.num, ZZ), self.den, _canonical=True)

    def __sub__(self, other):
        other = QRat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = QRat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QRat.zero()
        # cross-cancel first; keeps intermediate products small
        g1 = dup_gcd(self.num, other.den, ZZ)
        g2 = dup_gcd(other.num, self.den, ZZ)
        n1 = dup_exquo(self.num, g1, ZZ)
        d2 = dup_exquo(other.den, g1, ZZ)
        n2 = dup_exquo(other.num, g2, ZZ)
        d1 = dup_exquo(self.den, g2, ZZ)
        return QRat(
            self.shift + other.shift,
            dup_mul(n1, n2, ZZ),
            dup_mul(d1, d2, ZZ),
        )

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero():
            raise QFieldError("division by zero")
        return QRat(-self.shift, self.den, self.num)

    def __truediv__(self, other):
        other = QRat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return QRat._coerce(other) * self.reciprocal()

    def __pow__(self, k: int):
        if k == 0:
            return QRat.one()
        base = self if k > 0 else self.reciprocal()
        result = QRat.one()
        for _ in range(abs(k)):
            result = result * base
        return result

    def __eq__(self, other):
        other = QRat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.shift == other.shift
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.shift, tuple(self.num), tuple(self.den)))

    # -- substitutions -----------------------------------------------------

    def invert_t(self):
        """The rational function a(1/t); realizes q -> 1/q."""
        if self.is_zero():
            return self
        dn, dd = dup_degree(self.num), dup_degree(self.den)
        return QRat(-self.shift - dn + dd, _reverse(self.num), _reverse(self.den))

    def subs_neg_t(self):
        """The rational function a(-t)."""
        if self.is_zero():
            return self
        num = _flip_sign_odd(self.num)
        if self.shift % 2:
            num = dup_neg(num, ZZ)
        return QRat(self.shift, num, _flip_sign_odd(self.den))

    def eval_at(self, t0) -> Fraction:
        """Exact evaluation at a rational point; raises at a pole."""
        t0 = Fraction(t0)
        den = _eval_frac(self.den, t0)
        if den == 0:
            raise QFieldError("pole at t = %s" % t0)
        num = _eval_frac(self.num, t0)
        if num == 0:
            return Fraction(0)
        if t0 == 0:
            if self.shift > 0:
                return Fraction(0)
            if self.shift < 0:
                raise QFieldError("pole at t = 0")
            return num / den
        return t0**self.shift * num / den

    def t_expansion(self, n_terms: int):
        """Power-series expansion in ascending powers of t.

        Returns (lowest_degree, [c_0, c_1, ...]) with n_terms coefficients
        as Fractions, starting at t^lowest_degree.
        """
        if self.is_zero():
            return 0, [Fraction(0)] * n_terms
        num = list(reversed(self.num))  # ascending
        den = list(reversed(self.den))
        d0 = Fraction(int(den[0]))
        coeffs = []
        state = [Fraction(int(c)) for c in num] + [Fraction(0)] * n_terms
        for k in range(n_terms):
            c = state[k] / d0
            coeffs.append(c)
            if c:
                for j in range(1, len(den)):
                    if k + j < len(state):
                        state[k + j] -= c * int(den[j])
        return self.shift, coeffs

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "num": {"off": self.shift, "coeffs": [int(c) for c in reversed(self.num)]},
            "den": {"off": 0, "coeffs": [int(c) for c in reversed(self.den)]},
        }

    @classmethod
    def from_json(cls, data):
        num = list(reversed(data["num"]["coeffs"]))
        den = list(reversed(data["den"]["coeffs"]))
        shift = data["num"]["off"] - data["den"]["off"]
        return cls(shift, num, den)

    def __repr__(self):
        if self.is_zero():
            return "QRat(0)"
        return "QRat(t^%d * %s / %s)" % (
            self.shift,
            _poly_str(self.num),
            _poly_str(self.den),
        )


def _shift_poly(p, k):
    """Multiply by t^k (k >= 0) in dense high-first representation."""
    if not p or k == 0:
        return p
    return p + [ZZ(0)] * k


def _eval_frac(p, t0: Fraction) -> Fraction:
    if t0.denominator == 1:
        return Fraction(int(dup_eval(p, ZZ(t0.numerator), ZZ)))
    acc = Fraction(0)
    for c in p:
        acc = acc * t0 + int(c)
    return acc


def _poly_str(p):
    d = dup_degree(p)
    terms = []
    for i, c in enumerate(p):
        if not c:
            continue
        e = d - i
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append("%s*t" % c)
        else:
            terms.append("%s*t^%d" % (c, e))
    return "(" + " + ".join(terms) + ")"


ZERO = QRat.zero()
ONE = QRat.one()
