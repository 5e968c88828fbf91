"""The dense integer polynomial kernel of the engine, and ``expansion``.

A polynomial is a list of Python ints, highest degree first, with no
leading zeros ([] is zero).  Long products go through Kronecker
substitution (one big-int product, which CPython does by Karatsuba);
``_exquo`` is exact division.  ``expansion`` reads the ascending
coefficients of x^shift num(x)/den(x) with no gcd, fraction-free: the one
ascending series division of the engine, for the PT q-windows around
q = 0 and, on integer x-polynomials of moments, for the u-expansions of
``gwtheory`` around q = 1.  Every series on the PT and GW paths is an
integer numerator over a denominator known in advance, so this module,
which uses only the standard library, is all the arithmetic those paths
load.  The field Q(t) with t = q^(1/2), its canonical form and its gcd
are in ``qrat``, which serves the test suite's oracles (among them
``pt_series``) and ``symmfun`` only.
"""

import struct
from fractions import Fraction
from operator import mul

# below this length of the shorter factor, schoolbook beats packing
_KRONECKER_MIN = 6


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
        data = struct.pack(_struct_format(n, 1), *p)
    else:
        data = b"".join(c.to_bytes(8 * m, "big", signed=True) for c in p)
    half = _half_digits(n, m)
    return (int.from_bytes(data, "big") ^ half) - half


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


def _trailing_zeros(p):
    """Number of trailing zero coefficients, i.e. multiplicity of t=0."""
    n = 0
    for c in reversed(p):
        if c:
            break
        n += 1
    return n


def expansion(shift, num, den, n_terms):
    """The first n_terms ascending coefficients of x^shift num(x)/den(x)
    from its valuation: (valuation, [c_0, c_1, ...]); (0, zeros) for num = [].

    num and den are integer polynomials, highest first, with den(0) != 0.
    They need not be coprime, so no gcd is taken, and trailing zeros of
    num move into the valuation.  Only the window of the first n_terms
    ascending coefficients of num and den enters.  The one ascending
    series division of the engine, it runs fraction-free in Python ints:
    p_k = c_k d_0^(k+1) = num_k d_0^k - sum_{j=1..k} (den_j d_0^(j-1)) p_(k-j).
    When d_0 = 1, as for every vertex quantity, c_k = p_k is an int;
    otherwise c_k is the Fraction p_k / d_0^(k+1).
    """
    if not num:
        return 0, [0] * n_terms
    zn = _trailing_zeros(num)
    low = num[len(num) - zn - 1::-1][:n_terms]  # ascending from the valuation
    low += [0] * (n_terms - len(low))
    den = den[::-1]
    d0 = den[0]
    tail = [c * d0 ** j for j, c in enumerate(den[1:n_terms])]  # den_j d_0^(j-1)
    p = []
    coeffs = []
    power = 1  # d_0^k
    for k in range(n_terms):
        # tail[j-1] * p[k-j] for j = 1..k; map stops at the shorter
        p.append(low[k] * power - sum(map(mul, tail, reversed(p))))
        power *= d0
        coeffs.append(p[k] if d0 == 1 else Fraction(p[k], power))
    return shift + zn, coeffs
