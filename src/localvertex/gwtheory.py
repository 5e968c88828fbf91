"""The q = e^(iu) change of variables and Gromov-Witten extraction.

A rational function of q with a pole at q = 1 becomes a Laurent series in
u; the logarithm of the vertex partition function then exposes the
GW invariants as the coefficients of u^(2g-2) Q_c^m Q^j.  The logarithm
is log Z_0 plus log(1 + sum_m (Z_m/Z_0) Q_c^m).  log Z_0 = sum_k f(q^k) Q^k/k,
f(q) = 2q/(1-q)^2 the multiple covers of the fibre class b, is expanded
once (``_fibre``): its x^h Q^k coefficient is C_h k^(h-1), with C_h that
of f(e^x).  The Q_c^m part, m >= 1, is a class series of ``vertex``,
integer q-numerators over the one m (q;q)_m^2, with no gcd.  Every
function expanded here has integer coefficients in q, so its expansion,
``u_expansions``, runs in x = iu: the moments of num and den make them
integer x-polynomials, whose quotient ``qfield.expansion`` divides out
fraction-free, the same division that reads the PT q-windows, into
plain {h: C_h} dicts of Fractions, and the factor i^h that turns an
x^h coefficient into a u^h coefficient is applied only where values are
reported (``gw_extract``, ``tilde_pt0``).  Every extracted value is
asserted to sit on an even u-power, else ``vertex.VertexError``.

This module certifies nothing: the certificates of its tables and series
(column fits, ring membership, polynomiality) are in ``rationality``,
which it does not import.  Only ``tilde_pt0`` imports ``series``.
"""

from fractions import Fraction

from .qfield import _exquo, _mul, _neg, _strip, expansion
from .vertex import SCache, VertexError, _aligned, _product, z_ratio


# ---------------------------------------------------------------------------
# q = e^(iu) expansion of a single rational function


def _moments(poly, shift: int):
    """Yield the integer moments sum_k c_k k^n, n = 0, 1, ..., of the
    Laurent polynomial q^shift * poly(q) (dense, high-first)."""
    degree = len(poly) - 1
    terms = [(shift + degree - pos, c) for pos, c in enumerate(poly) if c]
    ks = [k for k, _ in terms]
    vals = [c for _, c in terms]
    while True:
        yield sum(vals)
        vals = [c * k for c, k in zip(vals, ks)]


def u_expansions(series: tuple, u_order: int) -> dict:
    """Expand each Q^j coefficient q^shift num(q)/den(q) of a class series
    (shift, {j: num}, den) around q = 1 with q = e^(iu), in x = iu:
    {j: {h: C_h}}, the nonzero Fraction coefficients of sum_h C_h x^h
    through x^u_order, so that the value at q = e^(iu) is
    sum_h C_h (iu)^h and the u^h coefficient is C_h * i^h.

    num and den are integer q-polynomials, highest first, and need not be
    coprime: only their moments are read, and q^k = sum_n k^n x^n/n!.  The
    pole order v at q = 1 is the index of the first nonzero moment of den
    (a zero den has none, and raises ValueError),
    and the x-coefficients through x^n, n = u_order + 2v, pin the quotient
    through x^u_order.  The one den of the class is read once.  Scaled by
    n!, num and den are integer x-polynomials, and with x^v taken out of
    den their quotient is ``qfield.expansion``'s from x^(-v).
    """
    shift, nums, den = series
    if not any(den):
        raise ValueError("u_expansions needs a nonzero denominator, got %r" % (den,))
    den_moments = _moments(den, 0)
    b = [next(den_moments)]
    while not b[-1]:
        b.append(next(den_moments))
    v = len(b) - 1
    b += [next(den_moments) for _ in range(u_order + v)]
    _scale(b)
    den_x = b[v:][::-1]  # den / x^v, highest first
    out = {}
    for j, num in nums.items():
        num_moments = _moments(num, shift)
        a = [next(num_moments) for _ in range(len(b))]
        _scale(a)
        low, coeffs = expansion(-v, _strip(a[::-1]), den_x, u_order + v + 1)
        # a num_x that vanishes at x = 0 moves the window past x^u_order, unpinned there
        out[j] = {h: Fraction(c) for h, c in enumerate(coeffs, low) if c and h <= u_order}
    return out


def _scale(moments: list):
    """Turn moments 0..n into x^i coefficients times n!: moment_i * n!/i!."""
    scale = 1
    for i in range(len(moments) - 1, -1, -1):
        moments[i] *= scale
        scale *= i


def _fibre(u_order: int) -> dict:
    """The x^h coefficients C_h, h <= u_order, of f(e^x) = 2e^x/(1-e^x)^2,
    the fibre class's multiple-cover function: f(e^(kx)) has the x^h
    coefficient k^h C_h, so the x^h Q^k coefficient of
    log Z_0 = sum_k f(q^k) Q^k/k is C_h k^(h-1)."""
    return u_expansions((1, {1: [2]}, [1, -2, 1]), u_order)[1]


def _i_power(h: int) -> int:
    """i^h for even h."""
    return -1 if h % 4 else 1


# ---------------------------------------------------------------------------
# GW tables


class GWTable:
    """Exact GW invariants GW_{g, m*c + j*b} of K_{F_r}."""

    def __init__(self, r: int, g_max: int, m_max: int, j_max: int):
        self.r = r
        self.g_max = g_max
        self.m_max = m_max
        self.j_max = j_max
        self.entries = {}  # (g, m, j) -> Fraction

    def value(self, g: int, m: int, j: int) -> Fraction:
        return self.entries.get((g, m, j), Fraction(0))

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "bounds": {"g_max": self.g_max, "m_max": self.m_max, "j_max": self.j_max},
            "entries": [
                {
                    "g": g,
                    "m": m,
                    "j": j,
                    "num": v.numerator,
                    "den": v.denominator,
                }
                for (g, m, j), v in sorted(self.entries.items())
            ],
        }


def log_z(r: int, m_max: int, order: int, cache: SCache = None) -> dict:
    """Coefficients [Q_c^m] log Z, 1 <= m <= m_max, each the class series
    (shift, {j: num}, m (q;q)_m^2) of integer q-polynomials, with no gcd:
    L = log(1 + sum_{m>=1} x_m Q_c^m) with x_m = Z_m/Z_0 = X_m/(q;q)_m^2
    from z_ratio, each m assembled once; without ``cache`` the call builds
    its S-series in a fresh SCache.  The Q_c^0 part, log Z_0, is read off
    ``_fibre`` by ``gw_extract`` and ``tilde_pt0``.

    L' (1 + sum x_m Q_c^m) = (sum x_m Q_c^m)' gives the recurrence
    m L_m = m x_m - sum_{k<m} k L_k x_{m-k}.  With Lambda_m = m (q;q)_m^2 L_m
    it is cleared of denominators,
    Lambda_m = m X_m - sum_{k<m} Lambda_k X_{m-k} [m choose k]_q^2, and
    L_m is Lambda_m over m (q;q)_m^2.  (q;q)_m^2 and the squared
    q-binomials are read off the denominators of the x_m.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    cache = cache or SCache()
    logs = {}
    x = {m: z_ratio(r, m, order, cache) for m in range(1, m_max + 1)}
    for m in range(1, m_max + 1):
        shift, nums, qq = x[m]
        terms = [(j, shift, [m * c for c in num]) for j, num in nums.items()]
        for k in range(1, m):
            binom = _neg(_exquo(qq, _mul(x[k][2], x[m - k][2])))
            s, products = _product(logs[k], x[m - k], order)
            terms += [(j, s, _mul(num, binom)) for j, num in products.items()]
        low, nums = _aligned(terms)
        logs[m] = (low, nums, [m * c for c in qq])
    return logs


def gw_extract(
    r: int, m_max: int, order: int, g_max: int, cache: SCache = None
) -> GWTable:
    """Read GW_{g, m*c + j*b} off the logarithm of the partition function.

    The coefficient of u^(2g-2) Q_c^m Q^j of log Z after q = e^(iu) is the
    invariant: C_h * i^h for the x^h coefficient C_h (x = iu), which is
    real because odd powers are rejected by a hard assertion.  The fibre
    column m = 0 is C_h k^(h-1) at Q^k from the one expansion ``_fibre``;
    each m >= 1 is u-expanded from ``log_z``.  The empty slot
    (g, beta) = (0, 0) never carries a value.
    """
    u_order = 2 * g_max - 2
    fibre = _fibre(u_order)
    columns = {0: {k: {h: c * Fraction(k) ** (h - 1) for h, c in fibre.items()}
                   for k in range(1, order + 1)}}
    for m, series in log_z(r, m_max, order, cache=cache).items():
        columns[m] = u_expansions(series, u_order)
    table = GWTable(r=r, g_max=g_max, m_max=m_max, j_max=order)
    for m, column in columns.items():
        for j, coeffs in column.items():
            for h, c in coeffs.items():
                if h % 2:
                    raise VertexError("odd u-power u^%d at Q_c^%d Q^%d" % (h, m, j))
                if h < -2:
                    raise VertexError("u-pole deeper than genus 0 at Q_c^%d Q^%d" % (m, j))
                g = (h + 2) // 2
                table.entries[(g, m, j)] = c * _i_power(h)
    return table


# ---------------------------------------------------------------------------
# The modified exceptional series


def tilde_pt0(order: int, u_order: int, cache: SCache = None):
    """PT_0(e^(iu), Q) * exp(2/u^2 Li_3(Q) + 1/6 Li_1(Q)).

    PT_0 = exp(log Z_0), so in x = iu this is exp(log Z_0 - 2/x^2 Li_3(Q)
    + 1/6 Li_1(Q)).  log Z_0 has the x^h coefficient C_h Li_{1-h}(Q), with
    C_h from ``_fibre``; the correction cancels its genus-0 and genus-1
    fibre terms, C_-2 = 2 and C_0 = -1/6, which is asserted together with
    the absence of odd powers.  The exponent is then
    sum_{h>=2} C_h x^h sum_k k^(h-1) Q^k; its exponential has the scalar 1
    at x^0, reported as the Q-series 1, and i^h is applied at the end.
    Returned as a u-series of Q-series over Fractions, the one
    ``series.TruncSeries`` this module makes.  ``cache`` is unused.
    """
    from .series import TruncSeries

    fibre = _fibre(u_order)
    stripped = {h: c for h, c in ((-2, 2), (0, Fraction(-1, 6))) if h <= u_order}
    if any(h % 2 for h in fibre) or {h: c for h, c in fibre.items() if h < 2} != stripped:
        raise VertexError("residual u-power in the exponent of tilde PT_0")
    exponent = TruncSeries(u_order, {
        h: TruncSeries(order, {k: c * k ** (h - 1) for k in range(1, order + 1)})
        for h, c in fibre.items() if h >= 2
    })
    coeffs = {**exponent.exp().coeffs, 0: TruncSeries.one(order)}
    return TruncSeries(u_order, {h: c * _i_power(h) for h, c in coeffs.items()})
