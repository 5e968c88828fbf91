"""Exact arithmetic in the field Q(t), with q = t**2, and its gcd.

QRat values serve the test suite's oracles (``tests/oracles.py``, among
them ``pt_series``, one reduction per Q-coefficient) and ``symmfun``; the
PT and GW paths hold integer q-polynomials over known denominators and
use only the kernel in ``qfield``, so nothing on those paths imports this
module.  Half-integer powers of q are realized as odd powers of t, so a
QRat is t^shift times a quotient of two integer polynomials in t.
Values are kept in a canonical form (coprime numerator/denominator, no
shared integer content, denominator with positive constant term) so
that equality is structural and values can serve as cache keys.
Division is by ``reciprocal``; no series over QRat is inverted, since
``series.TruncSeries`` offers only sums, products and ``exp``.

Polynomials are the dense int lists of ``qfield``.  The gcd is the
heuristic GCD of Char, Geddes and Gonnet (1989), checked by exact
multiplication, with a primitive-PRS Euclid behind it; it uses only the
standard library.
"""

from fractions import Fraction
from math import gcd

from .qfield import (
    _add,
    _digit_words,
    _exquo,
    _mul,
    _neg,
    _norm,
    _pack,
    _strip,
    _trailing_zeros,
    _unpack,
    expansion,
)


class QFieldError(ArithmeticError):
    """Division by zero or a zero denominator in ``QRat``; the engine's
    integer kernel in ``qfield`` never raises it."""


_ONE = [1]

# evaluation points tried by the heuristic gcd before the PRS fallback
_HEU_TRIES = 4


def _interpolate(x, m):
    """The polynomial p with p(2^(64*m)) = x and balanced coefficients."""
    return _strip(_unpack(x, m, x.bit_length() // (64 * m) + 2))


def _prem(f, g):
    """Pseudo-remainder of f by g: lc(g)^(deg f - deg g + 1) f mod g."""
    r = list(f)
    lc = g[0]
    dg = len(g) - 1
    for _ in range(len(f) - dg):
        c = r[0]
        r = [lc * a - c * b for a, b in zip(r[1:], g[1:])] + [lc * a for a in r[dg + 1:]]
    return _strip(r)


def _primitive(p):
    """(content, primitive part) of a nonzero polynomial, with the sign of
    its leading coefficient moved into the content."""
    c = gcd(*p)
    if p[0] < 0:
        c = -c
    return c, (p if c == 1 else [a // c for a in p])


def _gcd_heu(f, g):
    """(h, f/h, g/h) for primitive f, g of positive degree, or None.

    At xi = 2^(64*m) >= 2*min(|f|, |g|) + 2 the GCDHEU theorem makes any
    primitive h interpolated from igcd(f(xi), g(xi)) that divides both f
    and g their gcd.  Divisibility is proved by multiplying back the
    cofactors interpolated from f(xi)/h(xi) and g(xi)/h(xi).  xi is sized
    by the larger norm, so both inputs pack digit by digit and cofactors
    no larger than their multiples interpolate at the first xi.
    """
    m = _digit_words(max(_norm(f), _norm(g)))
    for _ in range(_HEU_TRIES):
        ff, gg = _pack(f, m), _pack(g, m)
        hh = gcd(ff, gg)
        c, h = _primitive(_interpolate(hh, m))
        hh //= c
        cf = _interpolate(ff // hh, m)
        if _mul(h, cf) == f:
            cg = _interpolate(gg // hh, m)
            if _mul(h, cg) == g:
                return h, cf, cg
        m *= 2
    return None


def _gcd_prs(f, g):
    """(h, f/h, g/h) for primitive f, g by the primitive-PRS Euclid."""
    a, b = f, g
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)[1]
    h = _primitive(a)[1]
    return h, _exquo(f, h), _exquo(g, h)


def _gcd(f, g):
    """(h, f/h, g/h) with h = gcd(f, g) in Z[t], integer content included,
    and the leading coefficient of h positive."""
    if not f or not g:
        p = f or g
        if not p:
            return [], [], []
        sign = [1] if p[0] > 0 else [-1]
        h = p if p[0] > 0 else _neg(p)
        return (h, [], sign) if not f else (h, sign, [])
    cf, cg = gcd(*f), gcd(*g)
    c = gcd(cf, cg)
    if len(f) == 1 or len(g) == 1:
        if c == 1:
            return _ONE, f, g
        return [c], [a // c for a in f], [b // c for b in g]
    pf = f if cf == 1 else [a // cf for a in f]
    pg = g if cg == 1 else [b // cg for b in g]
    h, qf, qg = _gcd_heu(pf, pg) or _gcd_prs(pf, pg)
    if c != 1:
        h = [c * a for a in h]
    if cf != c:
        qf = [cf // c * a for a in qf]
    if cg != c:
        qg = [cg // c * a for a in qg]
    return h, qf, qg


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
        num = _strip([int(c) for c in num])
        den = _strip([int(c) for c in den])
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
        _, num, den = _gcd(num, den)
        if den[-1] < 0:
            num, den = _neg(num), _neg(den)
        return shift, num, den

    @classmethod
    def _coprime(cls, shift, num, den):
        """The value from coprime num, den with nonzero constant terms, for
        which canonical form only asks a positive constant term of den."""
        if den[-1] < 0:
            num, den = _neg(num), _neg(den)
        return cls(shift, num, den, _canonical=True)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, [], _ONE, _canonical=True)

    @classmethod
    def one(cls):
        return cls(0, _ONE, _ONE, _canonical=True)

    @classmethod
    def from_int(cls, n):
        n = int(n)
        if not n:
            return cls.zero()
        return cls(0, [n], _ONE, _canonical=True)

    @classmethod
    def from_rational(cls, x):
        x = Fraction(x)
        if not x:
            return cls.zero()
        return cls(0, [x.numerator], [x.denominator])

    @classmethod
    def t_power(cls, k: int):
        """The monomial t^k, i.e. q^(k/2)."""
        return cls(k, _ONE, _ONE, _canonical=True)

    @classmethod
    def q_power(cls, k: int):
        """The monomial q^k = t^(2k)."""
        return cls.t_power(2 * k)

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
        # Henrici: with g = gcd(den1, den2) = den1/d1 = den2/d2, the sum is
        # (a*d2 + b*d1) / (d1*d2*g), and a*d2 + b*d1 is coprime to d1*d2
        # because both operands are canonical; only g can cancel.
        g, d1, d2 = _gcd(self.den, other.den)
        num = _add(_mul(a, d2), _mul(b, d1))
        if not num:
            return QRat.zero()
        zn = _trailing_zeros(num)
        if zn:
            num = num[:-zn]
        _, num, g = _gcd(num, g)
        return QRat._coprime(s + zn, num, _mul(_mul(d1, d2), g))

    __radd__ = __add__

    def __neg__(self):
        return QRat(self.shift, _neg(self.num), self.den, _canonical=True)

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
        # Cross-cancel.  Both operands are canonical, so n1 and n2 are each
        # coprime to d1 and d2, and n1*n2 / (d1*d2) is already reduced.
        _, n1, d2 = _gcd(self.num, other.den)
        _, n2, d1 = _gcd(other.num, self.den)
        return QRat._coprime(self.shift + other.shift, _mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero():
            raise QFieldError("division by zero")
        return QRat._coprime(-self.shift, self.den, self.num)

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
        # canonical num and den have nonzero constant terms, so reversal
        # keeps them coprime
        shift = -self.shift - len(self.num) + len(self.den)
        return QRat._coprime(shift, self.num[::-1], self.den[::-1])

    def t_expansion(self, n_terms: int):
        """Power-series expansion in ascending powers of t.

        Returns (lowest_degree, [c_0, c_1, ...]) with n_terms coefficients
        as Fractions, starting at t^lowest_degree; see ``expansion``.
        """
        lowest, coeffs = expansion(self.shift, self.num, self.den, n_terms)
        return lowest, [Fraction(c) for c in coeffs]

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
    return p + [0] * k


def _poly_str(p):
    d = len(p) - 1
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
