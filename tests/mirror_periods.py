"""GW invariants of local toric surfaces from the GKZ periods of their mirrors.

An oracle that shares none of the vertex's combinatorics
(Hosono-Klemm-Theisen-Yau hep-th/9308122, Chiang-Klemm-Yau-Zaslow
hep-th/9903053, Klemm-Zaslow hep-th/9906046), in stdlib ``Fraction`` only,
for any charge matrix: one charge vector l^a per Mori generator, a = 1..k,
and l_i = (l^1_i, .., l^k_i) its i-th column.  The period

    w(z; rho) = sum_n z^(n + rho) prod_i Gamma(1 + l_i.rho) / Gamma(1 + l_i.(n + rho))

gives the mirror map t_a = d_a w|0 = log z_a + S_a(z), and d_a d_b w|0 =
t_a t_b - S_a S_b + T_ab(z).  Inverted, z_a = q_a exp(-S_a(z)), and the
instanton part I_ab(q) = (T_ab - S_a S_b)(z(q)) has coefficients (a linear
form in the class) GW_(0, class).  K_{F_0} and K_{F_1} pass ``charges(r)``;
F_2 is left out: l^c_0 = 0 there, and the naive Frobenius basis does not
give its flat coordinates.  Local P^2 passes ``LOCAL_P2_CHARGES``, and its
genus-1 free energy is built on the same z(Q).

A series in z, q or rho is a dict {(n_1, .., n_k): Fraction} cut at a total
degree: ``order`` in z and q, 2 in rho, where d_a d_b w reads [rho_a rho_b]
for a != b and 2 [rho_a^2] for a = b.
"""

from fractions import Fraction
from itertools import product

LOCAL_P2_CHARGES = ((-3, 1, 1, 1),)


def charges(r):
    """l^b and l^c of K_{F_r}: the fibre b, and the section c with c^2 = -r."""
    return (-2, 0, 1, 0, 1), (r - 2, 1, -r, 1, 0)


def _classes(k, order):
    """Every n in k variables of total degree <= ``order``, by total degree."""
    return sorted((n for n in product(range(order + 1), repeat=k) if sum(n) <= order), key=sum)


def _unit(a, k):
    return tuple(int(i == a) for i in range(k))


def times(x, y, order):
    """x y, cut at total degree ``order``."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            if sum(i) + sum(j) <= order:
                key = tuple(map(int.__add__, i, j))
                out[key] = out.get(key, 0) + a * b
    return out


def _combine(terms):
    """sum c x over the pairs (c, x) of ``terms``."""
    out = {}
    for c, x in terms:
        for key, a in x.items():
            out[key] = out.get(key, 0) + c * a
    return out


def _exp(x, k, order):
    """exp(x) for x in k variables with no constant term.  theta = sum_a q_a
    d/dq_a multiplies q^n by |n|, and theta y = y theta x fixes the degree-d
    part of y = exp(x) from its lower ones."""
    theta_x = {n: sum(n) * c for n, c in x.items()}
    y = {(0,) * k: Fraction(1)}
    for d in range(1, order + 1):
        y.update((n, Fraction(c, d)) for n, c in times(theta_x, y, d).items() if sum(n) == d)
    return y


def _log(f, k, order):
    """log(f) for f in k variables with constant term 1, from theta f = f
    theta y, y = log(f), as in ``_exp``."""
    y = {}
    for d in range(1, order + 1):
        lower = times({n: sum(n) * c for n, c in y.items()}, f, d)
        for n in _classes(k, d):
            if sum(n) == d:
                y[n] = f.get(n, 0) - Fraction(lower.get(n, 0), d)
    return y


def _gamma_factor(power):
    """(c_0, c_1, c_2) with Gamma(1 + A)/Gamma(1 + A + N) = c_0 + c_1 A + c_2 A^2
    + O(A^3), N = ``power``: 1/((A + 1)...(A + N)) for N >= 0, else
    A (A - 1)...(A + N + 1), which vanishes at A = 0."""
    c0, c1, c2 = Fraction(1), Fraction(0), Fraction(0)
    for k in range(1, power + 1):  # 1/(k + A) = (1 - A/k + A^2/k^2)/k
        c0, c1, c2 = c0 / k, (c1 - c0 / k) / k, (c2 - c1 / k + c0 / k**2) / k
    for k in range(-power):  # A - k
        c0, c1, c2 = -k * c0, c0 - k * c1, c1 - k * c2
    return c0, c1, c2


def frobenius(charges, order):
    """[S_1, .., S_k] and {(a, b): T_ab} for a <= b, series in z: the rho_a
    coefficient of each Gamma ratio, and its d_a d_b at rho = 0."""
    k = len(charges)
    zero, units = (0,) * k, [_unit(a, k) for a in range(k)]
    s = [{} for _ in units]
    t = {(a, b): {} for a in range(k) for b in range(a, k)}
    for n in _classes(k, order):
        ratio = {zero: Fraction(1)}
        for column in zip(*charges):
            a_i = {unit: l for unit, l in zip(units, column) if l}  # A_i = l_i.rho
            c0, c1, c2 = _gamma_factor(sum(map(int.__mul__, column, n)))
            factor = _combine([(c0, {zero: 1}), (c1, a_i), (c2, times(a_i, a_i, 2))])
            ratio = times(ratio, factor, 2)
        # w|0 = 1: every class but 0 has a negative N_i
        assert ratio.get(zero, 0) == (n == zero), n
        for a, unit in enumerate(units):
            s[a][n] = ratio.get(unit, 0)
        for a, b in t:
            t[a, b][n] = (1 + (a == b)) * ratio.get(tuple(map(int.__add__, units[a], units[b])), 0)
    return s, t


def _monomials(z, order):
    """{n: z^n} for |n| <= ``order``, z = [z_1, .., z_k]."""
    k = len(z)
    out = {(0,) * k: {(0,) * k: Fraction(1)}}
    for n in _classes(k, order)[1:]:
        a = max(i for i, m in enumerate(n) if m)
        out[n] = times(out[tuple(map(int.__sub__, n, _unit(a, k)))], z[a], order)
    return out


def _compose(series, monomials):
    """series(z) from the monomials of z, cut where they are."""
    return _combine((c, monomials[n]) for n, c in series.items() if c and n in monomials)


def mirror_map(s, order):
    """[z_1(q), .., z_k(q)] from z_a = q_a exp(-S_a(z)): each step, from z =
    q, makes one more total degree right, and runs cut at that degree."""
    k = len(s)
    z = q = [{_unit(a, k): Fraction(1)} for a in range(k)]
    for degree in range(2, order + 1):
        monomials = _monomials(z, degree - 1)
        z = [
            times(q_a, _exp(_combine([(-1, _compose(s_a, monomials))]), k, degree - 1), degree)
            for q_a, s_a in zip(q, s)
        ]
    return z


def solve(charges, order):
    """z(q) and {(a, b): I_ab} for a <= b, series in q cut at total degree
    ``order``."""
    s, t = frobenius(charges, order)
    z = mirror_map(s, order)
    monomials = _monomials(z, order)
    s_q = [_compose(s_a, monomials) for s_a in s]
    return z, {
        (a, b): _combine([(1, _compose(t_ab, monomials)), (-1, times(s_q[a], s_q[b], order))])
        for (a, b), t_ab in t.items()
    }


def local_p2_free_energies(order):
    """Local P^2's genus-0 instanton part through Q^order, whose Q^d
    coefficient is -6d GW_0(dh), and its genus-1 free energy

        F_1 = -(7/12) log(z/Q) - (1/12) log(1 + 27z) + (1/2) log((Q dz/dQ)/Q)

    (Klemm-Zaslow's -(1/12) log(z^7 Delta) + (1/2) log(dz/dt), up to a term
    linear in t) through Q^(order - 1), whose Q^d coefficient is GW_1(dh),
    as lists of coefficients in Q.  z/Q and (Q dz/dQ)/Q lose one order."""
    (z,), parts = solve(LOCAL_P2_CHARGES, order)
    z_over_q = {(d - 1,): c for (d,), c in z.items()}
    dz_over_q = {(d - 1,): d * c for (d,), c in z.items()}
    delta = {(0,): 1, **{(d,): 27 * c for (d,), c in z.items() if d < order}}
    logs = [_log(f, 1, order - 1) for f in (z_over_q, delta, dz_over_q)]
    genus_one = _combine(zip((Fraction(-7, 12), Fraction(-1, 12), Fraction(1, 2)), logs))
    genus_zero = [parts[0, 0].get((d,), 0) for d in range(order + 1)]
    return genus_zero, [genus_one.get((d,), 0) for d in range(order)]
