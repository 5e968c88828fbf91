"""Schur specializations and the W functions."""

from fractions import Fraction

from helpers import P
from localvertex.partitions import Partition, partitions_up_to
from localvertex.qrat import QRat
from localvertex.symmfun import (
    det,
    h_principal,
    h_shifted,
    p_shifted,
    schur_principal,
    schur_principal_jt,
    schur_shifted,
    w_one,
    w_two,
)

ONE = QRat.one()
T = QRat.t_power(1)
Q = QRat.q_power(1)
EMPTY = Partition()


class TestPrincipal:
    def test_h_examples(self):
        assert h_principal(0) == ONE
        assert h_principal(-3) == QRat.zero()
        assert h_principal(2) == ONE / ((ONE - Q) * (ONE - Q * Q))

    def test_schur_examples(self):
        assert schur_principal(EMPTY) == ONE
        assert schur_principal(P(1)) == ONE / (ONE - Q)
        q3 = QRat.q_power(3)
        expected = Q / ((ONE - Q) ** 2 * (ONE - q3))
        assert schur_principal(P(2, 1)) == expected

    def test_jt_examples(self):
        assert schur_principal_jt(EMPTY) == ONE
        assert schur_principal_jt(P(1)) == h_principal(1)
        assert schur_principal_jt(P(2, 1)) == schur_principal(P(2, 1))

    def test_jt_agrees_with_hook_content(self):
        for mu in partitions_up_to(8):
            assert schur_principal_jt(mu) == schur_principal(mu)


class TestShifted:
    def test_p_examples(self):
        assert p_shifted(EMPTY, 1) == ONE / (Q - ONE)
        assert p_shifted(P(1), 1) == ONE + (ONE / Q) / (Q - ONE)
        assert p_shifted(EMPTY, 2) == ONE / (Q * Q - ONE)

    def test_h_examples(self):
        assert h_shifted(EMPTY, 0) == ONE
        assert h_shifted(EMPTY, 1) == ONE / (Q - ONE)

    def test_newton_identity(self):
        p1 = p_shifted(EMPTY, 1)
        p2 = p_shifted(EMPTY, 2)
        assert h_shifted(EMPTY, 2) * 2 == p1 * h_shifted(EMPTY, 1) + p2

    def test_newton_identity_general(self):
        for mu in partitions_up_to(3):
            p1 = p_shifted(mu, 1)
            p2 = p_shifted(mu, 2)
            p3 = p_shifted(mu, 3)
            h1 = h_shifted(mu, 1)
            h2 = h_shifted(mu, 2)
            assert h_shifted(mu, 3) * 3 == p1 * h2 + p2 * h1 + p3

    def test_schur_shifted_examples(self):
        for mu in partitions_up_to(3):
            assert schur_shifted(EMPTY, mu) == ONE
        assert schur_shifted(P(1), EMPTY) == ONE / (Q - ONE)
        assert schur_shifted(P(1), P(1)) == p_shifted(P(1), 1)

    def test_schur_shifted_against_power_sums(self):
        """Degree <= 3 Schur polynomials written in power sums."""
        half = Fraction(1, 2)
        third = Fraction(1, 3)
        sixth = Fraction(1, 6)
        for mu in partitions_up_to(3):
            p1 = p_shifted(mu, 1)
            p2 = p_shifted(mu, 2)
            p3 = p_shifted(mu, 3)
            assert schur_shifted(P(2), mu) == (p1 * p1 + p2) * half
            assert schur_shifted(P(1, 1), mu) == (p1 * p1 - p2) * half
            cube = p1 * p1 * p1
            assert schur_shifted(P(3), mu) == (cube + p1 * p2 * 3 + p3 * 2) * sixth
            assert schur_shifted(P(2, 1), mu) == (cube - p3) * third
            assert schur_shifted(P(1, 1, 1), mu) == (cube - p1 * p2 * 3 + p3 * 2) * sixth


class TestW:
    def test_w_one_examples(self):
        assert w_one(EMPTY) == ONE
        assert w_one(P(1)) == -T / (ONE - Q)
        t4 = QRat.t_power(4)
        assert w_one(P(2)) == t4 / ((ONE - Q) * (ONE - Q * Q))

    def test_w_two_reduces_to_w_one(self):
        assert w_two(EMPTY, EMPTY) == ONE
        for mu in partitions_up_to(4):
            assert w_two(mu, EMPTY) == w_one(mu)

    def test_w_two_symmetric_small(self):
        pairs = list(partitions_up_to(3))
        for mu in pairs:
            for nu in pairs:
                assert w_two(mu, nu) == w_two(nu, mu)


class TestDet:
    def test_two_by_two(self):
        m = [[ONE, Q], [Q, ONE]]
        assert det(m) == ONE - Q * Q

    def test_requires_pivoting(self):
        m = [[QRat.zero(), ONE], [ONE, QRat.zero()]]
        assert det(m) == -ONE

    def test_singular(self):
        m = [[ONE, ONE], [ONE, ONE]]
        assert det(m) == QRat.zero()
