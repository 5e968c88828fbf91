"""Against oracles from outside the vertex: the mirror's periods at genus 0,
local P^2's published Gopakumar-Vafa invariants at genus 0 and 1, and at
degree 4 through genus 5, and its one-parameter mirror at genus 0 and 1,
run by the same GKZ solver as F_0's and F_1's periods."""

from fractions import Fraction
from math import factorial

import pytest

from gv_peel import gv_invariants
from localvertex.gwtheory import gw_extract
from mirror_periods import LOCAL_P2_CHARGES, charges, frobenius, local_p2_free_energies, solve

DEGREE = 7

# local P^2's Gopakumar-Vafa invariants n^g_d (Chiang-Klemm-Yau-Zaslow
# hep-th/9903053): d = 1..7 at genus 0 and 1, d = 1..4 above; n^3_4 = 15 is
# the Katz-Klemm-Vafa top genus (-1)^14 (14 + 1), since dim |4h| = 14
LOCAL_P2 = {
    0: [3, -6, 27, -192, 1695, -17064, 188454],
    1: [0, 0, -10, 231, -4452, 80948, -1438086],
    2: [0, 0, 0, -102],
    3: [0, 0, 0, 15],
    4: [0, 0, 0, 0],
    5: [0, 0, 0, 0],
}

# the coefficient of q_b^d_b q_c^d_c in I_ab over GW_(0, d_c c + d_b b),
# keyed (a, b) with b = 0 and c = 1
FORMS = {
    0: {(0, 0): lambda d_b, d_c: -4 * d_c, (0, 1): lambda d_b, d_c: -2 * (d_b + d_c),
        (1, 1): lambda d_b, d_c: -4 * d_b},
    1: {(0, 0): lambda d_b, d_c: -4 * d_c, (0, 1): lambda d_b, d_c: d_c - 2 * d_b,
        (1, 1): lambda d_b, d_c: 2 * d_c - 2 * d_b},
}


@pytest.mark.parametrize("r", [0, 1])
def test_genus_zero_from_mirror_periods(r, scache):
    """I_bb, I_bc and I_cc of the GKZ periods of F_r are their linear forms
    times the engine's GW_(0, class), at every class of total degree <= 7."""
    table = gw_extract(r, DEGREE, DEGREE, 0, cache=scache)
    parts = solve(charges(r), DEGREE)[1]
    classes = [(d_b, d_c) for d_b in range(DEGREE + 1) for d_c in range(DEGREE + 1 - d_b)]
    classes.remove((0, 0))
    assert len(classes) == 35
    for name, form in FORMS[r].items():
        missed = [
            (d_b, d_c) for d_b, d_c in classes
            if parts[name].get((d_b, d_c), 0) != form(d_b, d_c) * table.value(0, d_c, d_b)
        ]
        assert missed == [], (name, missed)


def test_local_p2_through_the_blow_down(scache):
    """F_1 is P^2 blown up at a point, and h = c + b its line class: the
    classes d h = d c + d b do not see the blow-up, so there the engine's
    r = 1 numbers are local P^2's.  Its GV invariants are peeled off
    GW_0(dh) = sum_(k | d) n^0_(d/k)/k^3 and GW_1(dh) = sum_(k | d)
    (n^1_(d/k) + n^0_(d/k)/12)/k, for d <= 7, by ``gv_invariants``, and
    so are the higher genera through 5 for d <= 4."""
    for degree, g_max in ((DEGREE, 1), (4, 5)):
        gv = gv_invariants(gw_extract(1, degree, degree, g_max, cache=scache))
        for g in range(g_max + 1):
            assert [gv[d, d][g] for d in range(1, degree + 1)] == LOCAL_P2[g][:degree], g


def test_local_p2_mirror(scache):
    """Local P^2's one-parameter mirror, charges (-3; 1, 1, 1), against the
    engine's r = 1 numbers in the classes d h = d c + d b, d <= 7: the Q^d
    coefficient of the genus-0 instanton part is -6d GW_0(dh), and of the
    genus-1 free energy GW_1(dh).  The mirror runs one order past the last
    class, since z/Q loses one."""
    table = gw_extract(1, DEGREE, DEGREE, 1, cache=scache)
    genus_zero, genus_one = local_p2_free_energies(DEGREE + 1)
    degrees = range(1, DEGREE + 1)
    assert [genus_zero[d] for d in degrees] == [-6 * d * table.value(0, d, d) for d in degrees]
    assert [genus_one[d] for d in degrees] == [table.value(1, d, d) for d in degrees]


def test_local_p2_frobenius_closed_forms():
    """The one GKZ solver on the charge vector (-3; 1, 1, 1) gives local
    P^2's Frobenius series in closed form for n <= 8: S_n = 3 (-1)^n
    (3n - 1)!/(n!)^3 and T_n = 6 S_n (H_(3n-1) - H_n), H_k the k-th
    harmonic number."""
    (s,), t = frobenius(LOCAL_P2_CHARGES, 8)

    def harmonic(k):
        return sum(Fraction(1, i) for i in range(1, k + 1))

    degrees = range(1, 9)
    closed = [Fraction(3 * (-1) ** n * factorial(3 * n - 1), factorial(n) ** 3) for n in degrees]
    assert [(s[n,], t[0, 0][n,]) for n in degrees] == [
        (s_n, 6 * s_n * (harmonic(3 * n - 1) - harmonic(n))) for n, s_n in zip(degrees, closed)
    ]
