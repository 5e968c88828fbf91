"""Genus-0 GW invariants of K_{F_r} from the GKZ periods of its mirror.

An oracle that shares none of the vertex's combinatorics
(Hosono-Klemm-Theisen-Yau hep-th/9308122, Chiang-Klemm-Yau-Zaslow
hep-th/9903053), in stdlib ``Fraction`` only.  With the charges l^b of the
fibre b and l^c of the section c, the period

    w(z; rho) = sum_n z^(n + rho) prod_i Gamma(1 + l_i.rho) / Gamma(1 + l_i.(n + rho))

gives the mirror map t_a = d_a w|0 = log z_a + S_a(z), and d_a d_b w|0 =
t_a t_b - S_a S_b + T_ab(z).  Inverted, z_a = q_a exp(-S_a(z)), and the
instanton part I_ab(q) = (T_ab - S_a S_b)(z(q)) has coefficients (a linear
form in the class) GW_(0, class).  F_2 is left out: l^c_0 = 0 there, and
the naive Frobenius basis does not give its flat coordinates.

A series in z or q is a dict {(d_b, d_c): Fraction} cut at total degree
``order``; so is each Gamma ratio in rho = (rho_b, rho_c), cut at order 2,
where d_b^2 w reads 2 [rho_b^2], d_b d_c w reads [rho_b rho_c] and d_c^2 w
reads 2 [rho_c^2].
"""

from fractions import Fraction


def charges(r):
    """l^b and l^c of K_{F_r}: the fibre b, and the section c with c^2 = -r."""
    return (-2, 0, 1, 0, 1), (r - 2, 1, -r, 1, 0)


def _times(x, y, order):
    """x y, cut at total degree ``order``."""
    out = {}
    for (i, j), a in x.items():
        for (k, l), b in y.items():
            if i + j + k + l <= order:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
    return out


def _combine(terms):
    """sum c x over the pairs (c, x) of ``terms``."""
    out = {}
    for c, x in terms:
        for key, a in x.items():
            out[key] = out.get(key, 0) + c * a
    return out


def _gamma_ratio(n, lb, lc):
    """prod_i Gamma(1 + A_i)/Gamma(1 + A_i + N_i), A_i = l_i.rho and N_i =
    l_i.n, to order 2 in rho: 1/((A + 1)...(A + N)) for N >= 0, else
    A (A - 1)...(A + N + 1), which vanishes at rho = 0."""
    out = {(0, 0): Fraction(1)}
    for u, v in zip(lb, lc):
        power = u * n[0] + v * n[1]
        for k in range(1, power + 1):  # 1/(k + A) = (1 - A/k + A^2/k^2)/k
            k2, k3 = k * k, k ** 3
            out = _times(out, {
                (0, 0): Fraction(1, k), (1, 0): Fraction(-u, k2), (0, 1): Fraction(-v, k2),
                (2, 0): Fraction(u * u, k3), (1, 1): Fraction(2 * u * v, k3),
                (0, 2): Fraction(v * v, k3),
            }, 2)
        for k in range(-power):
            out = _times(out, {(0, 0): -k, (1, 0): u, (0, 1): v}, 2)
    return out


def _frobenius(r, order):
    """S_b, S_c and {"bb": T_bb, "bc": T_bc, "cc": T_cc}, series in z."""
    lb, lc = charges(r)
    parts = {key: {} for key in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    for nb in range(order + 1):
        for nc in range(order + 1 - nb):
            ratio = _gamma_ratio((nb, nc), lb, lc)
            # w|0 = 1: every class but 0 has a negative N_i
            assert ratio.get((0, 0), 0) == (nb == nc == 0), (nb, nc)
            for key, series in parts.items():
                series[nb, nc] = ratio.get(key, 0)
    t = {"bb": _combine([(2, parts[2, 0])]), "bc": parts[1, 1],
         "cc": _combine([(2, parts[0, 2])])}
    return parts[1, 0], parts[0, 1], t


def _monomials(z_b, z_c, order):
    """{(n_b, n_c): z_b^n_b z_c^n_c} for n_b + n_c <= order."""
    out, row = {}, {(0, 0): Fraction(1)}
    for nb in range(order + 1):
        term = row
        for nc in range(order + 1 - nb):
            out[nb, nc] = term
            term = _times(term, z_c, order)
        row = _times(row, z_b, order)
    return out


def _compose(series, monomials):
    """series(z_b, z_c) in q, from the monomials of z."""
    return _combine((c, monomials[n]) for n, c in series.items() if c)


def _exp(x, order):
    """exp(x) for x with no constant term: sum_k x^k/k!, k <= order."""
    out, term = {(0, 0): Fraction(1)}, {(0, 0): Fraction(1)}
    for k in range(1, order + 1):
        term = _combine([(Fraction(1, k), _times(term, x, order))])
        out = _combine([(1, out), (1, term)])
    return out


def _mirror_monomials(s_b, s_c, order):
    """The monomials of z(q), from z_a = q_a exp(-S_a(z)): each step, from
    z = q, makes one more total degree right."""
    z_b, z_c = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    for _ in range(order):
        monomials = _monomials(z_b, z_c, order)
        z_b = _times({(1, 0): 1}, _exp(_combine([(-1, _compose(s_b, monomials))]), order), order)
        z_c = _times({(0, 1): 1}, _exp(_combine([(-1, _compose(s_c, monomials))]), order), order)
    return _monomials(z_b, z_c, order)


def instanton_parts(r, order):
    """{"bb": I_bb, "bc": I_bc, "cc": I_cc}, series in q = (q_b, q_c) cut at
    total degree ``order``, for r = 0 or 1."""
    s_b, s_c, t = _frobenius(r, order)
    monomials = _mirror_monomials(s_b, s_c, order)
    s = {"b": _compose(s_b, monomials), "c": _compose(s_c, monomials)}
    return {
        a + b: _combine([(1, _compose(t[a + b], monomials)), (-1, _times(s[a], s[b], order))])
        for a, b in ("bb", "bc", "cc")
    }
