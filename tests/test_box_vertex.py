"""The two-leg vertex from boxes: an oracle that uses no Schur function.

Every route to the engine's S-series starts from the Schur-function
formula for the topological vertex, ``symmfun.w_two``.  That formula is a
theorem about counting 3D partitions (Okounkov-Reshetikhin-Vafa,
hep-th/0309208): with P_lm(q) the count of ``boxes.count_boxes`` with legs
l and m, less the boxes the legs share, and M the MacMahon function,

    P_lm(q) / M(q) = (-1)^(|l| + |m|) q^(-n(l^t) - n(m^t) - (|l| + |m|)/2) W_lm(q)

exactly.  Both sides are compared as series in t = q^(1/2), through
q^EXCESS above their lowest term.
"""

import ast
import sys

import boxes
from localvertex.partitions import Partition, partitions_up_to
from localvertex.qrat import QRat
from localvertex.symmfun import w_two

EXCESS = 8
PAIRS = [(lam, mu) for lam in partitions_up_to(2) for mu in partitions_up_to(2)]
# outside the pairs with |l|, |m| <= 3 on which the sign and the monomial were found
FRESH = [(Partition([3, 1]), Partition([1])), (Partition([2, 1, 1]), Partition([2])),
         (Partition([2, 2]), Partition([1, 1]))]


def box_side(lam, mu):
    """P_lm / M as (lowest t-degree, coefficients of t^lowest, t^(lowest+1), ...):
    the count, by volume less the boxes the legs share, times
    1/M = prod_k (1 - q^k)^k."""
    counts = {n - shared(lam, mu): c for (n,), c in boxes.count_boxes(EXCESS, lam, mu).items()}
    lowest = min(counts)
    series = [counts[lowest + d] for d in range(EXCESS + 1)]
    for k in range(1, EXCESS + 1):
        for _ in range(k):
            for d in range(EXCESS, k - 1, -1):
                series[d] -= series[d - k]
    coeffs = [0] * (2 * EXCESS + 1)
    coeffs[::2] = series
    return 2 * lowest, coeffs


def vertex_side(lam, mu, sign=True):
    """The sign, the monomial and W_lm(q), as (lowest t-degree, coefficients)."""
    size = lam.size + mu.size
    monomial = QRat.t_power(-2 * lam.conjugate().n_stat() - 2 * mu.conjugate().n_stat() - size)
    value = monomial * w_two(lam, mu)
    if sign and size % 2:
        value = -value
    return value.t_expansion(2 * EXCESS + 1)


def test_boxes_give_the_schur_vertex():
    """The identity on the 16 pairs with |l|, |m| <= 2 and on three fresh
    pairs; a transposed leg, a volume without the boxes the legs share and
    a dropped sign each break it."""
    sides = {(lam, mu): box_side(lam, mu) for lam, mu in PAIRS + FRESH}
    for (lam, mu), side in sides.items():
        assert side == vertex_side(lam, mu), (lam, mu)
    # one leg's cross-section transposed: (2) and (1, 1) trade places; a
    # lone leg counts prod 1/(1 - q^hook), the same for both
    transposed = [(lam, mu) for lam, mu in PAIRS
                  if sides[lam.conjugate(), mu] != vertex_side(lam, mu)]
    assert len(transposed) == 6  # l = (2) or (1, 1), m non-empty
    # the volume without - sum min(l_j, m_i): every term q^shared higher
    unshared = [(lam, mu) for lam, mu in PAIRS
                if shifted(sides[lam, mu], shared(lam, mu))
                != vertex_side(lam, mu)]
    assert len(unshared) == 9  # both legs non-empty
    unsigned = [(lam, mu) for lam, mu in PAIRS
                if sides[lam, mu] != vertex_side(lam, mu, sign=False)]
    assert len(unsigned) == 6  # |l| + |m| odd


def shared(lam, mu):
    """sum min(l_j, m_i): the boxes the two legs share."""
    return sum(min(a, b) for a in lam for b in mu)


def shifted(side, power):
    """A series times q^power."""
    lowest, coeffs = side
    return lowest + 2 * power, coeffs


def test_boxes_imports_only_the_standard_library():
    """The box oracle stays independent of the engine it checks: a relative
    import reads as a name that starts with a dot, which no stdlib module has."""
    with open(boxes.__file__) as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert {name.split(".")[0] for name in names} <= sys.stdlib_module_names, names
