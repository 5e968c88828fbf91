"""q = e^(iu) expansion, GW extraction, ring membership, polynomiality."""

import json
import os
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    canonical, certified_weights, digest, fresh_python, gw_column, qrat_series, record_calls,
    refuse,
)
from localvertex import cli, gwtheory, qfield, qrat
from localvertex.gwtheory import (
    GWTable,
    _fibre,
    _i_power,
    gw_extract,
    log_z,
    tilde_pt0,
    u_expansions,
)
from localvertex.partitions import Partition
from localvertex.qrat import QRat
from localvertex.rationality import (
    FitError, certify_column, column_power, polynomiality_check, verify_R, w_dot_beta,
)
from localvertex.series import TruncSeries
from localvertex.vertex import SCache, VertexError, z_ratio
from oracles import _exponent

ONE = QRat.one()
Q = QRat.q_power(1)


def u_series(shift, num, den, u_order):
    """``u_expansions`` of the one fraction q^shift num(q)/den(q)."""
    return u_expansions((shift, {0: num}, den), u_order)[0]


class TestUExpansion:
    """Coefficients C_h of a(e^(iu)) = sum_h C_h x^h with x = iu."""

    def test_exponential(self):
        got = u_series(1, [1], [1], 3)
        assert [got[h] for h in range(4)] == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_bernoulli(self):
        got = u_series(0, [1], [-1, 1], 1)
        assert got[-1] == -1
        assert got[0] == Fraction(1, 2)
        assert got[1] == Fraction(-1, 12)

    def test_double_pole(self):
        got = u_series(1, [2], [1, -2, 1], 4)
        assert got == {
            -2: 2, 0: Fraction(-1, 6), 2: Fraction(1, 120), 4: Fraction(-1, 3024)
        }

    def test_zero(self):
        assert u_series(0, [], [1], 3) == {}

    @pytest.mark.parametrize("den", [[], [0]], ids=["empty", "zero"])
    def test_zero_denominator_raises(self, den):
        """A zero den has no nonzero moment, so no pole order: ValueError.
        A search for one would never end, so the call runs in a fresh
        interpreter under a timeout: a regression fails the suite instead
        of stalling it."""
        code = (
            "from localvertex.gwtheory import u_expansions\n"
            "try:\n"
            "    u_expansions((0, {0: [1]}, %r), 2)\n"
            "except ValueError as err:\n"
            "    print(err)\n" % den
        )
        out = fresh_python("-c", code, timeout=10)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "u_expansions needs a nonzero denominator, got %r\n" % den

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=6).filter(lambda c: sum(c)),
        st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_pole_order_from_moments(self, coeffs, k):
        """P(q)/(1-q)^k with P(1) != 0 has a pole of order k at x = 0,
        with leading coefficient (-1)^k P(1) since 1 - e^x = -x + ..."""
        den = [1]
        for _ in range(k):
            den = qfield._mul(den, [-1, 1])
        got = u_series(0, coeffs[::-1], den, 0)
        assert min(got) == -k
        assert got[-k] == (-1) ** k * sum(coeffs)

    def test_transpose(self):
        """The x^h Q^k coefficient of log Z_0, C_h k^(h-1) from the one
        fibre expansion, is the x^h coefficient of its Q^k term
        2q^k/(k (1-q^k)^2), expanded on its own."""
        fibre = _fibre(6)
        for k in range(1, 7):
            one_minus = [-1] + [0] * (k - 1) + [1]  # 1 - q^k, highest first
            den = [k * c for c in qfield._mul(one_minus, one_minus)]
            got = u_series(k, [2], den, 6)
            assert got == {h: c * Fraction(k) ** (h - 1) for h, c in fibre.items()}, k

    def test_fibre_goldens(self):
        """C_h of 2e^x/(1-e^x)^2 is -2(2n-1) B_2n/(2n)! at h = 2n-2."""
        assert _fibre(8) == {
            -2: 2, 0: Fraction(-1, 6), 2: Fraction(1, 120), 4: Fraction(-1, 3024),
            6: Fraction(1, 86400), 8: Fraction(-1, 2661120),
        }
        bernoulli = [Fraction(1)]
        for n in range(1, 11):
            bernoulli.append(-sum(comb(n + 1, j) * bernoulli[j] for j in range(n)) / (n + 1))
        assert _fibre(8) == {
            2 * n - 2: -2 * (2 * n - 1) * bernoulli[2 * n] / factorial(2 * n) for n in range(6)
        }


class TestGWClosedForms:
    def test_fiber_genus_zero(self, gw_table_r0):
        for j in range(1, 5):
            assert gw_table_r0.value(0, 0, j) == Fraction(-2, j**3)

    def test_fiber_genus_one(self, gw_table_r0):
        for j in range(1, 5):
            assert gw_table_r0.value(1, 0, j) == Fraction(-1, 6 * j)

    def test_excluded_slot(self, gw_table_r0):
        assert (0, 0, 0) not in gw_table_r0.entries
        assert (1, 0, 0) not in gw_table_r0.entries

    def test_section_genus_zero_r0(self, gw_table_r0):
        for j in range(6):
            assert gw_table_r0.value(0, 1, j) == -2 * (j + 1)

    def test_section_genus_zero_r1(self, gw_table_r1):
        for j in range(6):
            assert gw_table_r1.value(0, 1, j) == 2 * j + 1

    def test_fiber_classes_agree_across_r(self, gw_table_r0, gw_table_r1):
        """GW of the fiber class only sees the ruling, not r."""
        for g in range(4):
            for j in range(1, 6):
                assert gw_table_r0.value(g, 0, j) == gw_table_r1.value(g, 0, j)


class TestGWTable:
    def test_column(self, gw_table_r0):
        """A column entry is read off ``value``, zero where none is stored."""
        assert gw_table_r0.value(0, 1, 3) == -8
        assert gw_table_r0.value(0, 1, gw_table_r0.j_max + 1) == 0

    def test_json_shape(self, gw_table_r0):
        doc = gw_table_r0.to_json()
        assert doc["r"] == 0
        assert {"g", "m", "j", "num", "den"} <= set(doc["entries"][0])

    @pytest.mark.parametrize("m_max", [0, 1])
    def test_rejects_negative_r(self, m_max):
        """At m_max = 0 no Z_m/Z_0 is assembled, so log_z checks r itself."""
        with pytest.raises(ValueError, match="r must be >= 0"):
            gw_extract(-1, m_max, 3, 1)


class TestTildeSeries:
    def test_no_poles_no_odd_powers(self, tilde_series):
        assert tilde_series.degrees() == [0, 2, 4, 6]

    def test_constant_term(self, tilde_series):
        f0 = tilde_series[0]
        assert f0 == TruncSeries(f0.order, {0: 1})

    def test_u2_coefficient_is_li(self, tilde_series):
        # c_2 * Li_{-1}(Q) with c_2 = -1/120 from 2e^{iu}/(1-e^{iu})^2
        f2 = tilde_series[2]
        for j in range(1, f2.order + 1):
            assert f2[j] == Fraction(-j, 120)

    def test_membership(self, tilde_series):
        doc = verify_R(tilde_series)
        assert doc["passed"] is True
        assert set(doc["per_h"]) == {str(h) for h in range(7)}


class TestVerifyR:
    def test_single_li_function(self):
        li = TruncSeries(8, {d: Fraction(d) for d in range(9)})
        useries = TruncSeries(2, {2: li})
        report = verify_R(useries)
        assert report["passed"] is True

    def test_zero_series(self):
        report = verify_R(TruncSeries(4))
        assert report["passed"] is True

    def test_failure_recorded_not_fatal(self):
        geo = TruncSeries(8, {d: 1 for d in range(9)})
        report = verify_R(TruncSeries(2, {0: geo}))
        assert report["passed"] is False
        assert report["per_h"]["0"] == {
            "fit_ok": False,
            "symmetry_ok": False,
            "error": "nonvanishing coefficient at Q^1 outside window [0, 0]",
            "fit": None,
        }
        assert report["per_h"]["1"]["fit_ok"] and report["per_h"]["2"]["fit_ok"]

    def test_negative_h_is_exact(self):
        """f_1 = (1+Q)/(3(1-Q)) satisfies f(1/Q) = -f(Q), its numerator
        1/3 + Q/3 a palindrome of exact Fractions.  R_{0,0} has no negative
        power of (1-Q), so a nonzero f_(-1) is recorded as a failed fit."""
        f = TruncSeries(8, {0: Fraction(1, 3), **{d: Fraction(2, 3) for d in range(1, 9)}})
        report = verify_R(TruncSeries(1, {1: f}))
        assert report["per_h"]["1"]["fit"]["numerator"] == {
            "0": {"num": 1, "den": 3}, "1": {"num": 1, "den": 3},
        }
        assert report["passed"] is True
        report = verify_R(TruncSeries(0, {-1: f}))
        assert report["passed"] is False
        assert report["per_h"]["-1"] == {
            "fit_ok": False,
            "symmetry_ok": False,
            "error": "negative denominator power -1",
            "fit": None,
        }

    def test_h0_row_has_no_denominator(self, tilde_series):
        row = verify_R(tilde_series)["per_h"]["0"]
        assert row["fit"] == {
            "numerator": {"0": {"num": 1, "den": 1}},
            "denom_spec": [],
            "surplus": tilde_series[0].order,
            "order": tilde_series[0].order,
        }
        assert row["error"] is None and "skipped" not in row


def finite_differences(values, depth):
    """The depth-th forward differences of a sequence."""
    for _ in range(depth):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


class TestPolynomiality:
    def test_finite_differences(self):
        """The oracle of test_one_pass_matches_recount, on known sequences."""
        assert finite_differences([1, 4, 9, 16], 2) == [2, 2]
        assert finite_differences([5, 5, 5], 1) == [0, 0]

    def test_constant_passes(self):
        table = GWTable(r=0, g_max=0, m_max=1, j_max=9)
        for j in range(10):
            table.entries[(0, 1, j)] = Fraction(7)
        report = polynomiality_check(table, 0, 2, 8)
        assert report["passed"] is True
        assert report["difference_order"] == 2

    def test_degree_too_high_fails(self):
        table = GWTable(r=0, g_max=0, m_max=1, j_max=9)
        for j in range(10):
            table.entries[(0, 1, j)] = Fraction(j**2)
        report = polynomiality_check(table, 0, 2, 8)
        assert report["passed"] is False
        assert report["max_nonvanishing_difference_order"] == 2

    @given(st.lists(st.integers(-3, 3), min_size=3, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_matches_recount(self, values):
        """The one pass of differences against finite_differences at every order."""
        table = GWTable(r=0, g_max=0, m_max=1, j_max=len(values) - 1)
        for j, v in enumerate(values):
            table.entries[(0, 1, j)] = Fraction(v)
        report = polynomiality_check(table, 0, 0, len(values) - 1)
        nonzero = [k for k in range(len(values)) if any(finite_differences(values, k))]
        assert report["max_nonvanishing_difference_order"] == max(nonzero, default=None)
        assert report["passed"] is not any(finite_differences(values, 2))

    def test_short_window_rejected(self):
        table = GWTable(r=0, g_max=1, m_max=1, j_max=9)
        with pytest.raises(ValueError):
            polynomiality_check(table, 1, 3, 5)

    def test_genus_zero_section_r0(self, gw_table_r0):
        assert polynomiality_check(gw_table_r0, 0, 2, 8)["passed"] is True

    @pytest.mark.parametrize("r", range(5))
    def test_certificate_implies_polynomiality(self, r):
        """A certified column passes polynomiality at j_lo = max(3, r - 1),
        and a value planted wrong (+1) at any j of the window fails both:
        Q^j (1-Q)^p reaches degree j + p, past the window top
        p + max(r - 2, 0).  So polynomiality never fails alone."""
        table = gw_extract(r, 1, 12, 1)
        j_lo = max(3, r - 1)
        for g in (0, 1):
            power, a = column_power(1, g), w_dot_beta(1, r)
            assert certify_column(gw_column(table, g, 1, 12), 12, power, a)[1] is True, g
            assert polynomiality_check(table, g, j_lo, j_lo + 6)["passed"] is True, g
            for j in range(j_lo, j_lo + 7):
                planted = GWTable(r, 1, 1, 12)
                planted.entries = {**table.entries, (g, 1, j): table.value(g, 1, j) + 1}
                with pytest.raises(FitError):
                    certify_column(gw_column(planted, g, 1, 12), 12, power, a)
                report = polynomiality_check(planted, g, j_lo, j_lo + 6)
                assert report["passed"] is False, (g, j)


class TestColumnRationality:
    def test_genus_columns_fit_and_unique_exponent(self, gw_table_r0):
        """Of a in [-8, 8], each column through genus 3 certifies only at
        its Weyl weight w.c = -2."""
        order = gw_table_r0.j_max
        for g in range(4):
            column = gw_column(gw_table_r0, g, 1, order)
            assert certified_weights(column, order, column_power(1, g)) == [-2], g


def engine_z_ratios_in_qrat(r, m_max, order):
    """The engine's ``z_ratio`` for m <= m_max read into QRat, the input of
    the QRat GW route: that route checks ``log_z`` and ``u_expansions``,
    not ``z_ratio`` (``test_vertex.py::qrat_z_ratios`` does, pair by pair)."""
    cache = SCache()
    return {m: qrat_series(z_ratio(r, m, order, cache), order) for m in range(m_max + 1)}


def qrat_log_z0(order):
    """The oracle for log Z_0: 2 A_{empty,empty} from the power sums."""
    return _exponent(Partition(), Partition(), order) * 2


def qrat_to_u_series(a, u_order):
    """The oracle for ``u_expansions``: the {h: C_h} of a canonical QRat
    a(t), t = e^(x/2), solved over Fractions from its x-Taylor
    coefficients moment_n/(2^n n!)."""
    if a.is_zero():
        return {}

    def moments(poly, shift, count):
        degree = len(poly) - 1
        terms = [(shift + degree - pos, c) for pos, c in enumerate(poly) if c]
        return [
            Fraction(sum(c * k**n for k, c in terms), 2**n * factorial(n)) for n in range(count)
        ]

    den = moments(a.den, 0, 40)
    v = next(n for n, c in enumerate(den) if c)
    num = moments(a.num, a.shift, u_order + 2 * v + 1)
    result, res = {}, []
    for k in range(u_order + v + 1):
        acc = num[k] - sum(den[v + j] * res[k - j] for j in range(1, k + 1))
        res.append(acc / den[v])
        if res[-1]:
            result[k - v] = res[-1]
    return result


def qrat_log_z(r, m_max, order):
    """The oracle for [Q_c^m] log Z: log Z_0 from the power sums, then
    m L_m = m x_m - sum_{k<m} k L_k x_{m-k} in QRat."""
    logs = {0: qrat_log_z0(order)}
    if m_max >= 1:
        x = engine_z_ratios_in_qrat(r, m_max, order)
        for m in range(1, m_max + 1):
            logs[m] = x[m]
            for k in range(1, m):
                logs[m] = logs[m] - logs[k] * x[m - k] * Fraction(k, m)
    return logs


def qrat_gw_extract(r, m_max, order, g_max):
    """The oracle for ``gw_extract``: the QRat log and u-expansion."""
    table = GWTable(r=r, g_max=g_max, m_max=m_max, j_max=order)
    for m, series in qrat_log_z(r, m_max, order).items():
        for j in series.degrees():
            for h, c in qrat_to_u_series(series.coeffs[j], 2 * g_max - 2).items():
                assert h % 2 == 0 and h >= -2
                table.entries[((h + 2) // 2, m, j)] = c * _i_power(h)
    return table


class TestQRatRoute:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_gw_extract_bit_identical(self, r, scache):
        for m_max, order in ((1, 9), (2, 9), (3, 9), (3, 5)):
            got = gw_extract(r, m_max, order, 3, cache=scache).to_json()
            assert got == qrat_gw_extract(r, m_max, order, 3).to_json(), (m_max, order)

    def test_u_series_reads_unreduced_fractions(self):
        """Numerator and denominator both times t^2 - 1 = q - 1: the same
        series, equal to the oracle on the reduced QRat."""
        for m, (shift, nums, den) in log_z(1, 2, 6).items():
            for num in nums.values():
                got = u_series(shift, num, den, 4)
                times = qfield._mul(num, [1, -1]), qfield._mul(den, [1, -1])
                assert got == u_series(shift, *times, 4)
                assert got == qrat_to_u_series(canonical((shift, num, den)), 4), m

    def test_denominator_read_once(self, monkeypatch):
        """gw_extract takes the moments and pole order of each class's one
        denominator once: the fibre column m = 0 first, then each m >= 1;
        and the shared denominator gives each coefficient's own expansion."""
        logs = log_z(1, 2, 7)
        for shift, nums, den in logs.values():
            expected = {j: u_series(shift, num, den, 4) for j, num in nums.items()}
            assert u_expansions((shift, nums, den), 4) == expected
        calls = record_calls(monkeypatch, gwtheory, "_moments", lambda poly, shift: poly)
        gw_extract(1, 2, 7, 3, cache=SCache())
        dens = [[1, -2, 1]] + [den for _, _, den in logs.values()]
        assert [poly for poly in calls if poly in dens] == dens
        # besides, each numerator once: the fibre's, then every Q^j of m = 1, 2
        assert len(calls) == len(dens) + 1 + sum(len(nums) for _, nums, _ in logs.values())

    @pytest.mark.parametrize(
        "run", [lambda: tilde_pt0(11, 6), lambda: gw_extract(0, 0, 13, 3)],
        ids=["tilde_pt0", "gw_fibre_column"],
    )
    def test_fibre_read_once(self, monkeypatch, run):
        """log Z_0 is expanded once, whatever its Q-order: one read of its
        denominator, one of its numerator."""
        calls = record_calls(monkeypatch, gwtheory, "_moments", lambda poly, shift: poly)
        run()
        assert calls == [[1, -2, 1], [2]]

    def test_tilde_rejects_unstripped_genus_one(self, monkeypatch):
        """A C_0 that the 1/6 Li_1 correction does not cancel raises."""
        fibre = gwtheory._fibre
        monkeypatch.setattr(
            gwtheory, "_fibre", lambda u: {**fibre(u), 0: fibre(u)[0] + Fraction(1, 6)}
        )
        with pytest.raises(VertexError, match="tilde PT_0"):
            tilde_pt0(5, 4)

    def test_fibre_column_rejects_odd_power(self, monkeypatch):
        fibre = gwtheory._fibre
        monkeypatch.setattr(gwtheory, "_fibre", lambda u: {**fibre(u), 1: Fraction(1, 2)})
        with pytest.raises(VertexError, match="odd u-power u\\^1 at Q_c\\^0"):
            gw_extract(0, 0, 5, 2)

    def test_takes_no_gcd(self, monkeypatch):
        monkeypatch.setattr(qrat, "_gcd", refuse("the GW path took a polynomial gcd"))
        table = gw_extract(1, 2, 6, 3, cache=SCache())
        assert table.value(0, 1, 2) == 5
        assert tilde_pt0(6, 4)[2][3] == Fraction(-3, 120)

    def test_benchmark_hashes(self):
        """gw_extract(r, 2, 7, 3) reproduces the benchmark's pinned gw_m2
        output hashes, read from bench/reference.json."""
        pinned = pinned_hashes("gw_m2")
        assert sorted(pinned) == ["0", "1", "2"]
        for r, pin in pinned.items():
            assert digest(gw_extract(int(r), 2, 7, 3).to_json()) == pin, r

    def test_benchmark_hashes_exceptional(self):
        """tilde_pt0(11, 6), called as bench/job.py calls it, reproduces the
        pinned exceptional hash by value."""
        pinned = pinned_hashes("exceptional")
        assert digest(series_value(tilde_pt0(11, 6, cache=SCache()))) == pinned["tilde_pt0"]

    def test_benchmark_hashes_verify(self, tmp_path):
        """verify --all --r R --m-max 1 --Q-order 9 reproduces the pinned
        report hashes, with generated_at dropped."""
        pinned = pinned_hashes("verify")
        assert sorted(pinned) == ["0", "1", "2"]
        for r, pin in pinned.items():
            out = tmp_path / ("verify_%s.json" % r)
            argv = ["verify", "--all", "--r", r, "--m-max", "1", "--Q-order", "9"]
            assert cli.main(argv + ["--out", str(out)]) == 0, r
            report = json.loads(out.read_text())
            report.pop("generated_at")
            assert digest(report) == pin, r


def pinned_hashes(workload):
    """The output hashes bench/reference.json pins for one workload."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference.json")
    with open(path) as fh:
        return json.load(fh)[workload]


def series_value(s):
    """A (nested) series by value, as the benchmark hashes it: order and
    stored coefficients, each scalar as [re_num, re_den, im_num, im_den]."""
    if isinstance(s, TruncSeries):
        return {"order": s.order, "coeffs": {str(d): series_value(c) for d, c in s.coeffs.items()}}
    c = Fraction(s)
    return [c.numerator, c.denominator, 0, 1]


def log_z_by_powers(r, m_max, order):
    """Oracle for ``log_z``: log(1 + X) = sum_n (-1)^(n+1) X^n / n, with the
    powers of X = sum_{m>=1} x_m Q_c^m convolved in Q_c and cut at Q_c^m_max."""
    x = engine_z_ratios_in_qrat(r, m_max, order)
    del x[0]
    acc = {m: TruncSeries(order) for m in range(1, m_max + 1)}
    power = dict(x)
    for n in range(1, m_max + 1):
        for m in range(n, m_max + 1):
            acc[m] = acc[m] + power[m] * Fraction((-1) ** (n + 1), n)
        product = {m: TruncSeries(order) for m in range(1, m_max + 1)}
        for m1, s1 in power.items():
            for m2, s2 in x.items():
                if m1 + m2 <= m_max:
                    product[m1 + m2] = product[m1 + m2] + s1 * s2
        power = product
    return acc


class TestLogZ:
    @pytest.mark.parametrize("r, m_max, order", [(0, 2, 7), (0, 3, 8), (1, 4, 6), (3, 3, 7)])
    def test_recurrence_matches_power_series(self, r, m_max, order):
        got = log_z(r, m_max, order)
        expected = log_z_by_powers(r, m_max, order)
        assert set(got) == set(expected)
        for m, series in expected.items():
            assert qrat_series(got[m], order) == series
