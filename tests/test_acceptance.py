"""Acceptance gate: one test per headline criterion, all exact.

Run with -v to get one pass/fail line per criterion.
"""

import json
import os

from fractions import Fraction

from helpers import certified_weights, gw_column
from localvertex import rationality as rat
from localvertex import vertex as vx
from localvertex.partitions import partitions_up_to
from localvertex.qrat import QRat
from localvertex.symmfun import w_two
import oracles
from oracles import cyclo_product, polylog_neg


def _q_valuation_exceeds(a: QRat, bound: int) -> bool:
    """True if a = 0 or the t-expansion of a starts above t^(2*bound)."""
    if a.is_zero():
        return True
    lowest, coeffs = a.t_expansion(1)
    return lowest > 2 * bound


def test_criterion_01_pt0_product_identity(scache):
    """[Q_c^0] Z equals prod_{j>=1} (1-q^j Q)^(-2j): exactly against the
    resummed exponential form, and coefficientwise through q^8 Q^8 against
    the truncated product over j <= 8 (the factor j = k first contributes
    at q^k, so the truncation is exact in that window)."""
    from localvertex.partitions import Partition

    finite = cyclo_product({(0, j): -2 * j for j in range(1, 9)}, 8)
    s = oracles.s_closed(Partition(), Partition(), 8)
    for r in (0, 1, 2):
        z0 = oracles.pt_series(r, 0, 8, cache=scache)
        assert z0 == s * s
        for d in range(9):
            difference = z0[d] - finite[d]
            assert _q_valuation_exceeds(difference, 8), (r, d)


def test_criterion_02_w_symmetry():
    """W_{mu,nu} = W_{nu,mu} exactly for all |mu| + |nu| <= 8."""
    for total in range(9):
        for a in range(total + 1):
            from localvertex.partitions import partitions_of

            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    assert w_two(mu, nu) == w_two(nu, mu), (mu, nu)


def test_criterion_03_s_triple_agreement():
    """Closed, direct, and product forms of S agree exactly for
    |mu|, |nu| <= 3 at Q-order 6."""
    small = list(partitions_up_to(3))
    for mu in small:
        for nu in small:
            direct = oracles.s_direct(mu, nu, 6)
            assert oracles.s_closed(mu, nu, 6) == direct, (mu, nu)
            assert oracles.s_product(mu, nu, 6) == direct, (mu, nu)


def test_criterion_04_q_inversion(scache):
    """Every Q-coefficient of PT_{mc}/PT_0 is fixed by q -> 1/q, for
    r in {0,1}, m in {1,2}, j <= 8."""
    for r in (0, 1):
        for m in (1, 2):
            series = vx.z_ratio(r, m, 8, scache)
            ok, witness = rat.check_q_inversion(series)
            assert ok, (r, m, witness)


def test_criterion_05_genus_columns_r0(gw_table_r0):
    """For r = 0, m = 1, g in {0,1,2} cut at Q^10, and g in {0,1,2,3} cut
    at Q^13: the column sum_j GW_{g,c+jb} Q^j fits p(Q)/(1-Q)^(2+2g) with
    surplus >= 3 and satisfies the weight-2 functional equation
    f(1/Q) = Q^2 f(Q), the Weyl symmetry of weight |K_W . c| = 2 on
    P1 x P1, and at no other weight."""
    for order, g_max in ((10, 2), (13, 3)):
        for g in range(g_max + 1):
            column = gw_column(gw_table_r0, g, 1, order)
            # f(1/Q) = Q^2 f(Q) reads Q^(-2) f(1/Q) = f(Q) in the template
            # Q^a f(1/Q) = f(Q); of a in [-8, 8], only a = -2 = K_W . c certifies
            assert certified_weights(column, order, 2 + 2 * g) == [-2], (order, g)


def test_criterion_06_exponent_resolution_r1(gw_table_r1):
    """For r = 1, m = 1: the scan over [-8, 8] certifies a unique exponent
    per genus.  Record, per genus, how it compares with the two candidate
    weights m(2-r) = 1 and 2m = 2 (as Q-powers moved to the f(1/Q) side),
    and check the record against the checked-in exponent_resolution.json."""
    record = {"r": 1, "m": 1, "per_genus": {}}
    for g in range(4):
        column = gw_column(gw_table_r1, g, 1, gw_table_r1.j_max)
        weights = certified_weights(column, gw_table_r1.j_max, 2 + 2 * g)
        assert len(weights) == 1, (g, weights)
        (a,) = weights
        # template Q^a f(1/Q) = f(Q); weight w means f(1/Q) = Q^w f(Q)
        weight = -a
        record["per_genus"][g] = {
            "exponent": a,
            "weight": weight,
            "matches_m_times_2_minus_r": weight == 1,
            "matches_2m": weight == 2,
        }
        assert weight == 1, record
    record["conclusion"] = (
        "the functional-equation weight is m(2-r) = 1 for every computed "
        "genus; the alternative 2m = 2 matches no genus"
    )
    path = os.path.join(os.path.dirname(__file__), "..", "exponent_resolution.json")
    with open(os.path.abspath(path)) as fh:
        recorded = json.load(fh)
    # JSON turns the per-genus int keys into strings
    assert json.loads(json.dumps(record)) == recorded


def test_criterion_07_exceptional_membership(tilde_series):
    """The modified exceptional series at Q-order 12 lies in R_{0,0}
    through u^6: its nonzero coefficients are u^0, u^2, u^4 and u^6 (no
    pole, no odd power), and verify_R certifies every h from 0 to 6."""
    assert tilde_series.degrees() == [0, 2, 4, 6]
    report = rat.verify_R(tilde_series)
    assert report["passed"] is True, report
    assert set(report["per_h"]) == {str(h) for h in range(7)}


def test_criterion_08_polylog_identities():
    """Li_{1-n}(1/Q) = (-1)^n Li_{1-n}(Q) exactly for 2 <= n <= 10,
    and Li_0(Q) = Q/(1-Q)."""
    for n in range(2, 11):
        li = polylog_neg(n)
        assert li.invert_t() == li * (-1) ** n, n
    q = QRat.t_power(1)
    assert polylog_neg(1) == q / (QRat.one() - q)


def test_criterion_09_fiber_class_closed_forms(gw_table_r0):
    """GW_{0,jb} = -2/j^3 and GW_{1,jb} = -1/(6j) for j <= 4."""
    for j in range(1, 5):
        assert gw_table_r0.value(0, 0, j) == Fraction(-2, j**3), j
        assert gw_table_r0.value(1, 0, j) == Fraction(-1, 6 * j), j


def test_criterion_10_eventual_polynomiality(gw_table_r0, gw_table_r1):
    """Order 4m+2g-2 finite differences of j -> GW_{g,mc+jb} vanish on
    j in [3,9], for r in {0,1} and (g,m) in {(0,1),(1,1)}, and on j in
    [2,8] for r = 0, (g,m) = (0,1)."""
    for table in (gw_table_r0, gw_table_r1):
        for g in (0, 1):
            report = rat.polynomiality_check(table, g, 3, 9)
            assert report["passed"], report
    assert rat.polynomiality_check(gw_table_r0, 0, 2, 8)["passed"] is True
