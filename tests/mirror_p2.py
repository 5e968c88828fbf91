"""Local P^2's genus-0 and genus-1 free energies from its one-parameter mirror.

An oracle that shares none of the vertex's combinatorics
(Chiang-Klemm-Yau-Zaslow hep-th/9903053, Klemm-Zaslow hep-th/9906046), in
stdlib ``Fraction`` only.  With the charge vector (-3; 1, 1, 1) the period

    w(z; rho) = sum_n z^(n + rho) Gamma(1 - 3 rho) Gamma(1 + rho)^3
                / (Gamma(1 - 3(n + rho)) Gamma(1 + n + rho)^3)

gives the mirror map t = d w|0 = log z + S(z), with
S_n = 3 (-1)^n (3n - 1)!/(n!)^3, and d^2 w|0 = t^2 - S^2 + T(z), with T
twice the rho^2 coefficient: T_n = 6 S_n (H_(3n-1) - H_n), H_k the k-th
harmonic number.  Inverted, z = Q exp(-S(z)); the genus-0 instanton part
(T - S^2)(z(Q)) has Q^d coefficient -6d GW_0(dh), and the genus-1 free
energy

    F_1 = -(7/12) log(z/Q) - (1/12) log(1 + 27z) + (1/2) log((Q dz/dQ)/Q)

(Klemm-Zaslow's -(1/12) log(z^7 Delta) + (1/2) log(dz/dt), up to a term
linear in t) has Q^d coefficient GW_1(dh).

A series is a list of ``Fraction`` coefficients, in z or in Q, cut at
``order``.  z/Q and (Q dz/dQ)/Q lose one order, so a run cut at ``order``
gives F_1 through Q^(order - 1) only.
"""

from fractions import Fraction
from math import factorial


def _harmonic(k):
    return sum(Fraction(1, i) for i in range(1, k + 1))


def frobenius(order):
    """S and T, series in z."""
    s, t = [Fraction(0)] * (order + 1), [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        s[n] = Fraction(3 * (-1) ** n * factorial(3 * n - 1), factorial(n) ** 3)
        t[n] = 6 * s[n] * (_harmonic(3 * n - 1) - _harmonic(n))
    return s, t


def _times(x, y):
    """x y, cut at the order of x."""
    out = [Fraction(0)] * len(x)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y[: len(x) - i]):
                out[i + j] += a * b
    return out


def _compose(series, z):
    """series(z(Q)), for z with no constant term."""
    out, power = [Fraction(0)] * len(z), [Fraction(1)] + [Fraction(0)] * (len(z) - 1)
    for c in series[1:]:
        power = _times(power, z)
        out = [a + c * b for a, b in zip(out, power)]
    return out


def _exp(x):
    """exp(x) for x with no constant term: e' = x' e."""
    out = [Fraction(1)] + [Fraction(0)] * (len(x) - 1)
    for k in range(1, len(x)):
        out[k] = sum(j * x[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def _log(f):
    """log(f) for f with constant term 1: f l' = f'."""
    out = [Fraction(0)] * len(f)
    for k in range(1, len(f)):
        out[k] = f[k] - sum((j * out[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k
    return out


def mirror_map(s, order):
    """z(Q) from z = Q exp(-S(z)): each step, from z = Q, makes one more
    order right."""
    q = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    z = q
    for _ in range(order):
        z = _times(q, _exp([-c for c in _compose(s, z)]))
    return z


def free_energies(order):
    """The genus-0 instanton part through Q^order and F_1 through
    Q^(order - 1), series in Q."""
    s, t = frobenius(order)
    z = mirror_map(s, order)
    s_q = _compose(s, z)
    genus_zero = [a - b for a, b in zip(_compose(t, z), _times(s_q, s_q))]
    z_over_q = z[1:]
    dz_over_q = [(n + 1) * c for n, c in enumerate(z_over_q)]
    delta = [Fraction(1)] + [27 * c for c in z[1:-1]]
    genus_one = [
        -Fraction(7, 12) * a - Fraction(1, 12) * b + Fraction(1, 2) * c
        for a, b, c in zip(_log(z_over_q), _log(delta), _log(dz_over_q))
    ]
    return genus_zero, genus_one
