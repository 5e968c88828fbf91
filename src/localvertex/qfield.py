"""Exact arithmetic in the field Q(t), with q = t**2, and its polynomial kernel.

QRat values serve ``pt_series`` (one reduction per Q-coefficient), the
polylogarithms of ``series``, ``symmfun``, the selftest and the oracles;
the engine path holds integer q-polynomials over known denominators and
uses only the kernel.  Half-integer powers of q are realized as odd
powers of t, so a QRat is t^shift times a quotient of two integer
polynomials in t.  Values are kept in a canonical form
(coprime numerator/denominator, no shared integer content, denominator
with positive constant term) so that equality is structural and values
can serve as cache keys.

The dense polynomial kernel is in this module and uses only the standard
library: a polynomial is a list of Python ints, highest degree first,
with no leading zeros ([] is zero).  Long products go through Kronecker
substitution (one big-int product, which CPython does by Karatsuba), and
the gcd is the heuristic GCD of Char, Geddes and Gonnet (1989), checked
by exact multiplication, with a primitive-PRS Euclid behind it.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd
from operator import mul

_ONE = [1]

# below this length of the shorter factor, schoolbook beats packing
_KRONECKER_MIN = 6
# evaluation points tried by the heuristic gcd before the PRS fallback
_HEU_TRIES = 4
_WORD_MASK = (1 << 64) - 1


class QFieldError(ArithmeticError):
    """Division by zero or a zero denominator."""


# -- dense integer polynomials -----------------------------------------------


def _strip(p):
    """Drop leading zeros."""
    for i, c in enumerate(p):
        if c:
            return p[i:] if i else p
    return []


def _add(f, g):
    n = len(f) - len(g)
    if n < 0:
        f, g, n = g, f, -n
    if n:
        return f[:n] + [a + b for a, b in zip(f[n:], g)]
    return _strip([a + b for a, b in zip(f, g)])


def _neg(p):
    return [-c for c in p]


def _norm(p):
    """Max-norm of a nonzero polynomial."""
    return max(max(p), -min(p))


def _digit_words(bound):
    """64-bit words per balanced digit, so that digits hold |c| <= bound."""
    return (bound.bit_length() + 64) // 64


def _struct_format(n, m):
    return ">" + ("q" + "Q" * (m - 1)) * n


def _half_digits(n, m):
    """The sum of 2^(64*m-1) * 2^(64*m*i) over i < n.

    XOR with it turns the two's-complement encodings of n digits, read
    as one unsigned integer, into the offset digits d_i + 2^(64*m-1), all
    nonnegative, of the same integer plus this constant; and back.
    """
    return int.from_bytes((b"\x80" + bytes(8 * m - 1)) * n, "big")


def _pack(p, m):
    """p(2^(64*m)), for coefficients of absolute value below 2^(64*m-1)."""
    n = len(p)
    if m == 1:
        words = p
    else:
        words = [0] * (n * m)
        words[::m] = [c >> (64 * m - 64) for c in p]
        for j in range(1, m):
            words[j::m] = [c >> (64 * (m - 1 - j)) & _WORD_MASK for c in p]
    half = _half_digits(n, m)
    return (int.from_bytes(struct.pack(_struct_format(n, m), *words), "big") ^ half) - half


def _unpack(x, m, n):
    """The n balanced base-2^(64*m) digits of x, most significant first.

    Inverts ``_pack``: x must be a sum of n digits in [-2^(64*m-1), 2^(64*m-1)).
    """
    half = _half_digits(n, m)
    words = struct.unpack(_struct_format(n, m), ((x + half) ^ half).to_bytes(8 * m * n, "big"))
    digits = list(words[::m])
    for j in range(1, m):
        digits = [d << 64 | w for d, w in zip(digits, words[j::m])]
    return digits


def _interpolate(x, m):
    """The polynomial p with p(2^(64*m)) = x and balanced coefficients."""
    return _strip(_unpack(x, m, x.bit_length() // (64 * m) + 2))


def _mul(f, g):
    if not f or not g:
        return []
    if min(len(f), len(g)) < _KRONECKER_MIN:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        return out
    m = _digit_words(min(len(f), len(g)) * _norm(f) * _norm(g))
    return _unpack(_pack(f, m) * _pack(g, m), m, len(f) + len(g) - 1)


def _exquo(f, g):
    """f / g when g divides f in Z[t], else None (g nonzero)."""
    n = len(f) - len(g) + 1
    if n <= 0:
        return None if f else []
    r = list(f)
    lc = g[0]
    q = []
    for i in range(n):
        c, m = divmod(r[i], lc)
        if m:
            return None
        q.append(c)
        if c:
            for j, b in enumerate(g[1:], i + 1):
                r[j] -= c * b
    return q if not any(r[n:]) else None


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


def _trailing_zeros(p):
    """Number of trailing zero coefficients, i.e. multiplicity of t=0."""
    n = 0
    for c in reversed(p):
        if c:
            break
        n += 1
    return n


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


def expansion(shift, num, den, n_terms):
    """The first n_terms ascending coefficients of x^shift num(x)/den(x)
    from its valuation: (valuation, [c_0, c_1, ...]); (0, zeros) for num = [].

    num and den are integer polynomials, highest first, with den(0) != 0.
    They need not be coprime, so no gcd is taken, and trailing zeros of
    num move into the valuation.  Only the window of the first n_terms
    ascending coefficients of num and den enters:
    c_k = (num_k - sum_{j=1..k} den_j c_{k-j}) / den_0.  When den_0 = 1,
    as for every vertex quantity, the recurrence runs in Python ints (and
    the c_k are ints); otherwise in Fractions.
    """
    if not num:
        return 0, [0] * n_terms
    zn = _trailing_zeros(num)
    low = num[len(num) - zn - 1::-1][:n_terms]  # ascending from the valuation
    low += [0] * (n_terms - len(low))
    den = den[::-1]
    d0, tail = den[0], den[1:n_terms]
    coeffs = []
    for k in range(n_terms):
        # tail[j-1] * coeffs[k-j] for j = 1..k; map stops at the shorter
        c = low[k] - sum(map(mul, tail, reversed(coeffs)))
        coeffs.append(c if d0 == 1 else Fraction(c, d0))
    return shift + zn, coeffs


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
