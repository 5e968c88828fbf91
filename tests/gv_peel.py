"""Gopakumar-Vafa invariants peeled off a GW table, over Fractions, or off
a one-parameter partition function, over ``qrat.QRat``.

The GV form of the GW free energy of a Calabi-Yau threefold,

    sum_g GW_(g,beta) u^(2g-2)
        = sum_(k | beta) sum_g n^g_(beta/k) (1/k) (2 sin(ku/2))^(2g-2),

is read class by class: the multiple covers k >= 2 of the classes beta/k,
peeled before beta, are subtracted, and what is left is
sum_g n^g_beta (2 sin(u/2))^(2g-2), whose g-th term starts at u^(2g-2),
so n^0, n^1, ... follow triangularly.  The n^g_beta are rationals here:
that they are integers is what the tests certify.

In q = e^(iu), (2 sin(u/2))^2 = s = 2 - q - 1/q, so a partition function
Z = exp(sum_beta sum_k sum_g n^g_beta (1/k) s(q^k)^(g-1) Q^(k beta)) is
peeled with no u-expansion: log Z class by class, the multiple covers
subtracted, and s f_beta = sum_g n^g_beta s^g read at q = 1 (s = 0) and
divided by s, exactly, one genus at a time.
"""

from fractions import Fraction
from math import factorial, gcd

from localvertex.qrat import QRat


def sine_power(e: int, order: int) -> list:
    """The coefficients of y^0 .. y^order, y = u^2, of (2 sin(u/2)/u)^e.

    2 sin(u/2)/u = sum_n p_n y^n with p_n = (-1)^n / (4^n (2n+1)!) and
    p_0 = 1, so its e-th power b, any integer e, follows J. C. P. Miller's
    recurrence n b_n = sum_(k=1..n) ((e+1) k - n) p_k b_(n-k), b_0 = 1.
    """
    p = [Fraction((-1) ** n, 4**n * factorial(2 * n + 1)) for n in range(order + 1)]
    b = [Fraction(1)]
    for n in range(1, order + 1):
        b.append(sum(((e + 1) * k - n) * p[k] * b[n - k] for k in range(1, n + 1)) / n)
    return b


def gv_invariants(table) -> dict:
    """{(m, j): [n^0, .., n^g_max]} for every class m*c + j*b of a
    ``gwtheory.GWTable`` but the zero class, peeled in increasing m, then
    j, so that every beta/k, k >= 2, comes before beta."""
    g_max = table.g_max
    # powers[g][n]: the u^(2g-2+2n) coefficient of (2 sin(u/2))^(2g-2)
    powers = [sine_power(2 * g - 2, g_max - g) for g in range(g_max + 1)]

    def covers(ns, k):
        """sum_g n^g (1/k) (2 sin(ku/2))^(2g-2) at u^(2h-2), h = 0..g_max."""
        return [
            sum(ns[g] * powers[g][h - g] for g in range(h + 1)) * Fraction(k) ** (2 * h - 3)
            for h in range(g_max + 1)
        ]

    gv = {}
    for m in range(table.m_max + 1):
        for j in range(table.j_max + 1):
            if (m, j) == (0, 0):
                continue
            rest = [table.value(h, m, j) for h in range(g_max + 1)]
            for k in range(2, gcd(m, j) + 1):
                if m % k == 0 and j % k == 0:
                    rest = [a - c for a, c in zip(rest, covers(gv[m // k, j // k], k))]
            ns = []
            for h in range(g_max + 1):
                ns.append(rest[h] - sum(ns[g] * powers[g][h - g] for g in range(h)))
            gv[m, j] = ns
    return gv


def _at_power(x, k):
    """x(q^k) for a QRat x: t -> t^k."""

    def spread(p):
        out = [0] * (k * (len(p) - 1) + 1)
        out[::k] = p
        return out

    return QRat(k * x.shift, spread(x.num), spread(x.den))


def gv_from_partition_function(z) -> dict:
    """{d: [n^0_d, .., n^g_d]}, g the top genus, for d = 1 .. len(z) - 1,
    from z = [Z_0 = 1, Z_1, ..], the QRat coefficients of Q^d of a
    one-parameter partition function.  s f_d, and each quotient by s of it
    less its value at q = 1, must be a Laurent polynomial in q."""
    s = QRat.from_int(2) - QRat.q_power(1) - QRat.q_power(-1)
    log, f, gv = [QRat.zero()], {}, {}
    for d in range(1, len(z)):
        # d L_d = d Z_d - sum_(k < d) k L_k Z_(d-k), L = log Z
        log.append(z[d] - sum((log[k] * k * z[d - k] for k in range(1, d)), QRat.zero()) / d)
        f[d] = log[d] - sum(
            (_at_power(f[d // k], k) / k for k in range(2, d + 1) if d % k == 0), QRat.zero()
        )
        rest, gv[d] = f[d] * s, []
        while rest:
            assert rest.den == [1], (d, len(gv[d]), rest)
            gv[d].append(sum(rest.num))
            rest = (rest - gv[d][-1]) / s
    return gv
