"""Vertex sums, the S-series routes, partition functions, PT extraction."""

from fractions import Fraction

import pytest

from localvertex import vertex
from localvertex.partitions import Partition, partitions_up_to
from localvertex.qfield import QRat
from localvertex.series import TruncSeries
from localvertex.symmfun import p_shifted, w_one
from localvertex.vertex import (
    CacheError,
    SCache,
    ToricSurface,
    VertexError,
    _exponent,
    check_integrality,
    e_coeffs,
    log_z0,
    pt_invariants,
    pt_series,
    s_closed,
    s_direct,
    s_product,
    s_ratio_squared,
    z_ratios,
    z_toric,
)

ONE = QRat.one()
Q = QRat.q_power(1)
EMPTY = Partition()


def P(*parts):
    return Partition(parts)


class TestSRoutes:
    def test_direct_trivial(self):
        got = s_direct(EMPTY, EMPTY, 0)
        assert got == TruncSeries(0, {0: ONE})

    def test_direct_first_coefficient(self):
        # the single |lambda| = 1 term is W_{empty,(1)}^2 = q/(1-q)^2
        got = s_direct(EMPTY, EMPTY, 1)
        assert got[1] == Q / (ONE - Q) ** 2

    def test_closed_constant_term(self):
        for mu in partitions_up_to(2):
            for nu in partitions_up_to(2):
                assert s_closed(mu, nu, 2)[0] == w_one(mu) * w_one(nu)

    def test_closed_matches_direct_example(self):
        assert s_closed(P(1), EMPTY, 3) == s_direct(P(1), EMPTY, 3)

    def test_triple_agreement_small(self):
        parts = list(partitions_up_to(2))
        for mu in parts:
            for nu in parts:
                direct = s_direct(mu, nu, 4)
                assert s_closed(mu, nu, 4) == direct
                assert s_product(mu, nu, 4) == direct

    def test_empty_series_integral_structure(self):
        """Clearing (1-q^j) denominators of S leaves nonnegative integers."""
        got = s_closed(EMPTY, EMPTY, 3)
        for d in range(1, 4):
            _, coeffs = got[d].t_expansion(20)
            assert all(c >= 0 and c.denominator == 1 for c in coeffs)


def exp_route_ratio_squared(mu, nu, order):
    """The oracle: (W_mu W_nu)^2 exp(2(A_{mu,nu} - A_{empty,empty}))."""
    diff = _exponent(mu, nu, order) - _exponent(EMPTY, EMPTY, order)
    w = w_one(mu) * w_one(nu)
    return (diff * 2).exp() * (w * w)


def _bits(series):
    return series.order, {
        d: (c.shift, c.num, c.den) for d, c in sorted(series.coeffs.items())
    }


def clearing_route_e(mu, nu):
    """The oracle: (p_mu(q) p_nu(q) (1-q)^2 - 1)/(1-q)^2 in QRat, as {i: e_i}."""
    one_minus_q = ONE - Q
    cleared = p_shifted(mu, 1) * p_shifted(nu, 1) * one_minus_q**2
    e = (cleared - ONE) / one_minus_q**2
    assert e.den == [1]
    degree = len(e.num) - 1
    out = {}
    for pos, c in enumerate(e.num):
        if c:
            texp = e.shift + degree - pos
            assert texp % 2 == 0
            out[texp // 2] = c
    return out


class TestClosedForm:
    def test_e_golden(self):
        assert e_coeffs(P(2, 1), P(1)) == {-3: 1, -1: 2, 1: 1}
        assert e_coeffs(EMPTY, EMPTY) == {}

    def test_e_matches_clearing_route(self):
        pairs = [
            (mu, nu)
            for mu in partitions_up_to(8)
            for nu in partitions_up_to(8)
            if mu.size + nu.size <= 8
        ]
        assert len(pairs) == 434
        for mu, nu in pairs:
            assert e_coeffs(mu, nu) == clearing_route_e(mu, nu), (mu, nu)

    def test_reads_no_power_sums(self, monkeypatch):
        def refuse(mu, k):
            raise AssertionError("s_ratio_squared evaluated p_mu(q^k)")

        monkeypatch.setattr(vertex, "p_shifted", refuse)
        assert s_ratio_squared(P(2, 1), P(1), 4)[4]

    def test_bit_identical_to_exp_route(self):
        pairs = [
            (mu, nu)
            for mu in partitions_up_to(4)
            for nu in partitions_up_to(4)
            if mu.size + nu.size <= 4
        ]
        assert len(pairs) == 38
        for mu, nu in pairs:
            got = s_ratio_squared(mu, nu, 12)
            assert _bits(got) == _bits(exp_route_ratio_squared(mu, nu, 12)), (mu, nu)

    def test_takes_no_series_exp(self, monkeypatch):
        def refuse(self):
            raise AssertionError("s_ratio_squared took a series exp")

        monkeypatch.setattr(TruncSeries, "exp", refuse)
        assert s_ratio_squared(P(2, 1), P(1), 4)[4]


class TestSCache:
    def test_memory_reuse_and_truncation(self):
        cache = SCache()
        full = cache.get(EMPTY, EMPTY, 5)
        short = cache.get(EMPTY, EMPTY, 3)
        assert short == full.truncate(3)

    def test_disk_round_trip(self, tmp_path):
        first = SCache(str(tmp_path))
        series = first.get(P(1), EMPTY, 4)
        second = SCache(str(tmp_path))
        assert second.get(P(1), EMPTY, 4) == series
        assert second.get(P(1), EMPTY, 2) == series.truncate(2)

    def test_corrupt_file_reported(self, tmp_path):
        cache = SCache(str(tmp_path))
        cache.get(EMPTY, EMPTY, 2)
        (path,) = list(tmp_path.iterdir())
        path.write_text("not json")
        fresh = SCache(str(tmp_path))
        with pytest.raises(CacheError) as err:
            fresh.get(EMPTY, EMPTY, 2)
        assert err.value.path == str(path)
        assert not isinstance(err.value, VertexError)

    def test_stores_ratio_squared(self, tmp_path):
        cache = SCache(str(tmp_path))
        assert cache.get(P(1), EMPTY, 3) == s_ratio_squared(P(1), EMPTY, 3)
        assert cache.get(EMPTY, EMPTY, 3) == TruncSeries.one(3)


class TestPartitionFunctions:
    def test_m0_is_s_squared(self, scache):
        s = s_closed(EMPTY, EMPTY, 5)
        for r in (0, 1, 2):
            got = pt_series(r, 0, 5, cache=scache)
            assert got == (s * s).truncate(5)

    def test_toric_agreement_r0(self, scache):
        _assert_toric_agreement(0, 1, 3, scache)

    def test_toric_agreement_r1(self, scache):
        _assert_toric_agreement(1, 1, 3, scache)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_toric_agreement_m2(self, r, scache):
        _assert_toric_agreement(r, 2, 2, scache)

    def test_ratio_squared_matches_s_closed(self):
        s0 = s_closed(EMPTY, EMPTY, 3)
        for mu, nu in ((P(1), EMPTY), (P(2), P(1)), (P(1, 1), P(1))):
            s = s_closed(mu, nu, 3)
            assert s_ratio_squared(mu, nu, 3) * s0 * s0 == s * s

    def test_toric_zero_bounds(self):
        got = z_toric(ToricSurface.hirzebruch(0), 0, 0)
        assert got == {(0, 0): ONE}

    def test_surface_validation(self):
        with pytest.raises(ValueError):
            ToricSurface(divisor_classes=((0, 1),), self_intersections=(0,))
        with pytest.raises(ValueError):
            ToricSurface(divisor_classes=((0, 1),) * 4, self_intersections=(0,) * 3)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            z_ratios(-1, 0, 2)


def _assert_toric_agreement(r, c_bound, b_bound, scache):
    """The N-leg oracle z_toric against pt_series (so against z_ratios)."""
    toric = z_toric(ToricSurface.hirzebruch(r), c_bound, b_bound)
    z = [pt_series(r, m, b_bound, cache=scache) for m in range(c_bound + 1)]
    for (m, n), value in toric.items():
        assert z[m][n] == value, (r, m, n)


class TestPT:
    def test_pt0_q1_coefficient(self, scache):
        series = pt_series(0, 0, 2, cache=scache)
        assert series[1] == Q * 2 / (ONE - Q) ** 2

    def test_pt0_q2_low_q_terms(self, scache):
        lowest, coeffs = pt_series(0, 0, 2, cache=scache)[2].t_expansion(4)
        assert lowest == 4  # q^2
        assert coeffs == [Fraction(3), 0, Fraction(8), 0]

    def test_integrality(self, scache):
        assert check_integrality(pt_series(0, 0, 4, cache=scache))
        assert check_integrality(pt_series(1, 1, 4, cache=scache))

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_pt_series_is_z_hirzebruch_entry(self, r, scache):
        """pt_series(r, m) is the m-th entry of Z of K_{F_r} assembled once
        up to m_max = 2 as exp(log Z_0) times z_ratios, as verify builds it."""
        z0 = log_z0(3).exp()
        ratios = z_ratios(r, 2, 3, cache=scache)
        for m in range(3):
            assert pt_series(r, m, 3, cache=scache) == z0 * ratios[m]

    def test_integrality_detects_fractions(self):
        bad = TruncSeries(1, {1: QRat.from_rational(Fraction(1, 2))})
        assert not check_integrality(bad)

    def test_fiber_class_invariants(self, scache):
        rows = pt_invariants(0, 0, 1, cache=scache)
        values = {(j, n): v for j, n, v in rows}
        assert values[(1, 1)] == -2
        assert values[(1, 2)] == 4

    def test_section_class_first_invariant(self, scache):
        rows = pt_invariants(0, 1, 1, cache=scache)
        values = {(j, n): v for j, n, v in rows}
        assert values[(0, 1)] == -2

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            pt_series(0, -1, 2)
