"""The geometry of the surfaces, checked on the engine's GW tables: the
Gopakumar-Vafa invariants peeled off them are integers that obey
Castelnuovo's bound and the Katz-Klemm-Vafa top genus and match the
published ones and, in F_1's classes d(c + b), those of local P^2's own
toric triangle; and F_0's two rulings and the deformation of F_2 to F_0,
the geometry behind the Weyl symmetry, hold class by class."""

from fractions import Fraction

import pytest

from gv_peel import gv_from_partition_function, gv_invariants, sine_power
from localvertex.gwtheory import gw_extract
from localvertex.qrat import QRat
from oracles import ToricSurface, z_toric

G_MAX = 5

# n^0, n^1, .. of K_{F_r} at the class m*c + j*b, keyed (m, j)
# (Chiang-Klemm-Yau-Zaslow hep-th/9903053); every higher genus through
# G_MAX is 0
GOLDEN = {
    0: {
        **{(1, j): [-2 * (j + 1)] for j in range(6)},
        (2, 1): [-6], (3, 1): [-8], (2, 2): [-32, 9],
        (2, 3): [-110, 68, -12], (3, 2): [-110, 68, -12],
        (2, 4): [-288, 300, -116, 15], (3, 3): [-756, 1016, -580, 156, -16],
    },
    1: {**{(1, j): [2 * j + 1] for j in range(6)}, (3, 3): [27, -10]},
    2: {(1, 0): [-1], **{(1, j): [-2 * j] for j in range(1, 6)}, (2, 3): [-6]},
}


def arithmetic_genus(r: int, m: int, j: int) -> int:
    """p_a of the class m*c + j*b on F_r, c^2 = -r, c.b = 1, b^2 = 0:
    1 + (beta^2 + K.beta)/2 = (m-1)(j-1) - r m(m-1)/2."""
    return (m - 1) * (j - 1) - r * m * (m - 1) // 2


def linear_system_dimension(r: int, m: int, j: int) -> int:
    """d = dim |m*c + j*b| = (beta^2 - K.beta)/2 = mj + m + j - r m(m+1)/2."""
    return m * j + m + j - r * m * (m + 1) // 2


@pytest.fixture(scope="module")
def gv(scache):
    """n^g_(mc+jb) of K_{F_r}, r = 0, 1, 2, for m <= 3, j <= 5, g <= G_MAX."""
    return {r: gv_invariants(gw_extract(r, 3, 5, G_MAX, cache=scache)) for r in (0, 1, 2)}


def test_sine_power():
    """(2 sin(u/2))^(-2) = u^-2 + 1/12 + u^2/240 + u^4/6048 + ..., and
    (2 sin(u/2))^2 = u^2 - u^4/12 + u^6/360 - ..., and its 0-th power is 1."""
    assert sine_power(-2, 3) == [1, Fraction(1, 12), Fraction(1, 240), Fraction(1, 6048)]
    assert sine_power(2, 2) == [1, Fraction(-1, 12), Fraction(1, 360)]
    assert sine_power(0, 3) == [1, 0, 0, 0]


def test_integrality(gv):
    """Every n^g_beta, g <= G_MAX, of the 69 classes is an integer."""
    values = [n for r in gv for ns in gv[r].values() for n in ns]
    assert len(values) == 414
    assert [n for n in values if n.denominator != 1] == []


def test_castelnuovo_bound(gv):
    """n^g_beta = 0 above the arithmetic genus: g > max(p_a, 0)."""
    checked = [
        (r, m, j, g)
        for r in gv
        for (m, j), ns in gv[r].items()
        for g in range(max(arithmetic_genus(r, m, j), 0) + 1, G_MAX + 1)
    ]
    assert len(checked) == 299
    assert [(r, m, j, g) for r, m, j, g in checked if gv[r][m, j][g]] == []


def test_top_genus_kkv(gv):
    """Katz-Klemm-Vafa (hep-th/9910181): at the top genus g = p_a the GV
    invariant is (-1)^d (d+1), d = dim |beta|, on the classes m >= 1,
    j >= rm, which are nef, so their linear systems are base point free."""
    checked = 0
    for r in gv:
        for (m, j), ns in gv[r].items():
            top = arithmetic_genus(r, m, j)
            if m >= 1 and j >= r * m and 0 <= top <= G_MAX:
                d = linear_system_dimension(r, m, j)
                assert ns[top] == (-1) ** d * (d + 1), (r, m, j)
                checked += 1
    assert checked == 32


@pytest.mark.parametrize("r", [0, 1, 2])
def test_published_invariants(gv, r):
    """The peeled invariants are the published ones, and vanish above."""
    for (m, j), golden in GOLDEN[r].items():
        assert gv[r][m, j] == golden + [0] * (G_MAX + 1 - len(golden)), (m, j)


def test_local_p2_from_its_triangle(scache):
    """Local P^2's own toric diagram, a triangle of three two-leg vertices
    (Aganagic-Klemm-Marino-Vafa hep-th/0305132), summed by ``z_toric`` in
    Q(t), shares no code with the engine's strip formula.  Its GV
    invariants, peeled off log Z over QRat, are the ones ``gv_invariants``
    peels off the engine's r = 1 numbers in the classes dh = dc + db, at
    every genus g <= 16 and degree d <= 7, each vanishing above the
    arithmetic genus (d - 1)(d - 2)/2 of a plane curve of degree d."""
    z = z_toric(ToricSurface.projective_plane(), 7, 7)
    triangle = gv_from_partition_function([z.get((d, d), QRat.zero()) for d in range(8)])
    engine = gv_invariants(gw_extract(1, 7, 7, 16, cache=scache))
    for d in range(1, 8):
        assert len(triangle[d]) == (d - 1) * (d - 2) // 2 + 1, d
        assert triangle[d] + [0] * (17 - len(triangle[d])) == engine[d, d], d
    assert triangle[5] == [1695, -4452, 5430, -3672, 1386, -270, 21]
    assert [triangle[d][-1] for d in (5, 6, 7)] == [21, -28, -36]


def test_f0_exchanges_its_rulings(scache):
    """F_0 = P^1 x P^1 has an automorphism swapping its rulings c and b:
    GW_g(mc + jb) = GW_g(jc + mb) for g <= 3 and m, j <= 4."""
    table = gw_extract(0, 4, 6, 3, cache=scache)
    pairs = [(g, m, j) for g in range(4) for m in range(5) for j in range(5) if m or j]
    assert len(pairs) == 96
    assert [p for p in pairs if table.value(*p) != table.value(p[0], p[2], p[1])] == []


def test_f2_deforms_to_f0(scache):
    """F_2 deforms to F_0, with c = c_0 - b_0 and b = b_0: GW^(F_2)_g(mc + jb)
    is GW^(F_0)_g(mc + (j-m)b) for j >= m, and 0 for 1 <= j < m, where
    mc_0 + (j-m)b_0 is not effective; g <= 3, 1 <= m <= 4, 1 <= j <= 6.
    The one exception is the (-2)-curve c, which does not deform:
    GW_0(mc) = -1/m^3, its multiple covers."""
    f0 = gw_extract(0, 4, 6, 3, cache=scache)
    f2 = gw_extract(2, 4, 10, 3, cache=scache)
    pairs = [(g, m, j) for g in range(4) for m in range(1, 5) for j in range(1, 7)]
    assert len(pairs) == 96
    missed = [
        (g, m, j) for g, m, j in pairs
        if f2.value(g, m, j) != (f0.value(g, m, j - m) if j >= m else 0)
    ]
    assert missed == []
    assert [f2.value(0, m, 0) for m in range(1, 5)] == [Fraction(-1, m**3) for m in range(1, 5)]
