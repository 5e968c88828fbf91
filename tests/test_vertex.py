"""Vertex sums, the S-series routes, partition functions, PT extraction."""

import json
import os
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from helpers import P, canonical, qrat_series, record_calls, refuse
from localvertex import vertex
from localvertex.partitions import Partition, partitions_of, partitions_up_to
from localvertex.qfield import _digit_words, _exquo, _mul, _strip, expansion
from localvertex.qrat import QRat
from localvertex.rationality import check_integrality
from localvertex.series import TruncSeries
from localvertex.symmfun import w_one
from localvertex.vertex import (
    PT_Q_TERMS,
    CacheError,
    SCache,
    VertexError,
    e_coeffs,
    pt_invariants,
    s_ratio_squared,
    z0_windows,
    z_ratio,
)
import oracles
from oracles import (
    ToricSurface,
    _exponent,
    _in_t,
    cyclo_product,
    pt_fractions,
    pt_series,
    s_closed,
    s_direct,
    s_product,
    z0_series,
    z_toric,
)

ONE = QRat.one()
Q = QRat.q_power(1)
EMPTY = Partition()


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

    def test_product_reads_no_engine_exponents(self, monkeypatch):
        """s_product takes its a_i from p_mu p_nu (1-q)^2 in Q(t), not from
        the engine's e_i."""
        monkeypatch.setattr(vertex, "e_coeffs", refuse("s_product read vertex.e_coeffs"))
        assert "e_coeffs" not in vars(oracles)
        assert s_product(P(2, 1), P(1), 3) == s_direct(P(2, 1), P(1), 3)

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


def ratio_series(mu, nu, order):
    """s_ratio_squared as a QRat series: each numerator over (q;q)_m^2,
    m = |mu| + |nu|."""
    den = vertex._qq_squared(mu.size + nu.size)
    return TruncSeries(
        order,
        {k: canonical((s, num, den)) for k, (s, num) in enumerate(s_ratio_squared(mu, nu, order))},
    )


def qrat_z_ratios(r, m_max, order, cache):
    """The oracle: the QRat assembly of [Q_c^m] Z/Z_0 from ``ratio_series``."""
    out = {}
    for m in range(m_max + 1):
        total = TruncSeries(order)
        for a in range(m + 1):
            for mu2 in partitions_of(a):
                for mu4 in partitions_of(m - a):
                    term = ratio_series(mu2, mu4, order)
                    term = term * QRat.t_power(r * (mu2.kappa() - mu4.kappa()))
                    lift = r * mu2.size  # Q^(r|mu2|), cut at the order
                    term = TruncSeries(order, {d + lift: c for d, c in term.coeffs.items()})
                    total = total + term
        out[m] = -total if (r * m) % 2 else total
    return out


def _bits(series):
    return series.order, {
        d: (c.shift, c.num, c.den) for d, c in sorted(series.coeffs.items())
    }


def dict_route_ratio_squared(mu, nu, order):
    """The oracle: the finite product (W_mu W_nu)^2 prod_i (1 - q^(i+1) Q)^(-2 e_i)
    expanded factor by factor, each Q^k coefficient a dict {q-exponent:
    integer}, with the generalized binomials b_0 = 1,
    b_(k+1) = b_k (n + k)/(k + 1) of (1 - x)^(-n), exact for negative n too."""
    poly = [{0: 1}] + [{} for _ in range(order)]
    for i, ei in e_coeffs(mu, nu).items():
        n = 2 * ei
        binom = [1]
        for k in range(order):
            binom.append(binom[-1] * (n + k) // (k + 1))
        out = [{} for _ in range(order + 1)]
        for k, src in enumerate(poly):
            for j in range(order - k + 1):
                for qe, c in src.items():
                    key = qe + (i + 1) * j
                    out[k + j][key] = out[k + j].get(key, 0) + binom[j] * c
        poly = [{qe: c for qe, c in d.items() if c} for d in out]
    w = sum(p.kappa() + p.size + 2 * p.n_stat() for p in (mu, nu))
    return [
        (min(d) + w, [d.get(qe, 0) for qe in range(max(d), min(d) - 1, -1)]) if d else (0, [])
        for d in poly
    ]


def times_cofactor(mu, nu, coeffs):
    """Numerators over (H_mu H_nu)^2 taken over (q;q)_m^2, m = |mu| + |nu|, by
    the cofactor over the canonical denominator of the oracle's (W_mu W_nu)^2."""
    hooks_squared = ((w_one(mu) * w_one(nu)) ** 2).den[::2]
    cofactor = _exquo(vertex._qq_squared(mu.size + nu.size), hooks_squared)
    return [(shift, _mul(num, cofactor)) for shift, num in coeffs]


def clearing_route_e(mu, nu):
    """The oracle: (p_mu(q) p_nu(q) (1-q)^2 - 1)/(1-q)^2 in QRat, as {i: e_i}."""
    e = (oracles.cleared_power_sums(mu, nu) - ONE) / (ONE - Q) ** 2
    assert e.den == [1]
    degree = len(e.num) - 1
    out = {}
    for pos, c in enumerate(e.num):
        if c:
            texp = e.shift + degree - pos
            assert texp % 2 == 0
            out[texp // 2] = c
    return out


def contents_route_e(mu, nu):
    """The oracle: e = B_mu + B_nu + (1-q)^2 B_mu B_nu, the content
    polynomials B convolved box by box, then times (1-q)^2, as {i: e_i}."""
    b_mu, b_nu = (
        Counter(j - i for i, part in enumerate(p, 1) for j in range(part)) for p in (mu, nu)
    )
    product = {}
    for i, c in b_mu.items():
        for j, d in b_nu.items():
            product[i + j] = product.get(i + j, 0) + c * d
    e = {}
    for i, c in product.items():
        for k, f in ((0, 1), (1, -2), (2, 1)):
            e[i + k] = e.get(i + k, 0) + f * c
    for b in (b_mu, b_nu):
        for i, c in b.items():
            e[i] = e.get(i, 0) + c
    return {i: c for i, c in sorted(e.items()) if c}


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

    def test_e_matches_contents_route(self):
        """The closed form B_mu + B_nu + C_mu C_nu against the content
        convolution, on every ordered pair with |mu| + |nu| <= 14."""
        parts = list(partitions_up_to(14))
        pairs = [(mu, nu) for mu in parts for nu in parts if mu.size + nu.size <= 14]
        assert len(pairs) == 7567
        for mu, nu in pairs:
            want = contents_route_e(mu, nu)
            assert list(e_coeffs(mu, nu).items()) == list(want.items()), (mu, nu)

    def test_bit_identical_to_exp_route(self):
        """At Q-orders 3 and 12: the order sizes the packed digits."""
        pairs = [
            (mu, nu)
            for mu in partitions_up_to(4)
            for nu in partitions_up_to(4)
            if mu.size + nu.size <= 4
        ]
        assert len(pairs) == 38
        for order in (3, 12):
            for mu, nu in pairs:
                got = ratio_series(mu, nu, order)
                want = exp_route_ratio_squared(mu, nu, order)
                assert _bits(got) == _bits(want), (order, mu, nu)

    def test_bit_identical_to_dict_route(self):
        pairs = [
            (mu, nu)
            for mu in partitions_up_to(8)
            for nu in partitions_up_to(8)
            if mu.size + nu.size <= 8 and mu <= nu
        ]
        assert len(pairs) == 223
        for mu, nu in pairs:
            want = times_cofactor(mu, nu, dict_route_ratio_squared(mu, nu, 10))
            assert s_ratio_squared(mu, nu, 10) == want, (mu, nu)

    def test_two_word_digits(self):
        """No pair with |mu| + |nu| <= 14 at Q-order <= 30 needs more than one
        64-bit word per packed digit; (16), (16) at Q-order 24 needs two."""
        mu = P(16)
        bound = comb(2 * sum(map(abs, e_coeffs(mu, mu).values())) + 24, 24)
        assert _digit_words(bound) == 2
        assert s_ratio_squared(mu, mu, 24) == times_cofactor(
            mu, mu, dict_route_ratio_squared(mu, mu, 24)
        )

    def test_digit_rule_holds_a_signed_strip(self):
        """The rule reads order C(2 sum|e_i| + order, order): for e = {0: 38,
        1: -38} at Q-order 13 that needs 2 words a digit, where the rule
        without its factor order, or with sum(e) = 0 for sum|e_i|, gives 1,
        too few for n X_n."""
        assert _digit_words(13 * comb(2 * 76 + 13, 13)) == 2
        assert _digit_words(comb(2 * 76 + 13, 13)) == _digit_words(13 * comb(13, 13)) == 1
        assert len(vertex._exp_rows({0: 38, 1: -38}, 13, 14)) == 14

    def test_digits_one_word_short_raise(self, monkeypatch):
        """The division checks stand behind the digit rule: with one word per
        digit fewer than it gives, (16), (16) at Q-order 24, where X_24 has
        coefficients of 65 bits, raises and returns no row."""
        digit_words = vertex._digit_words
        monkeypatch.setattr(vertex, "_digit_words", lambda bound: digit_words(bound) - 1)
        with pytest.raises(VertexError, match="is not divisible by n"):
            s_ratio_squared(P(16), P(16), 24)

    def test_monomial_and_hooks(self):
        """(W_mu W_nu)^2 = q^w cofactor/(q;q)_m^2, w read off the diagrams and
        the cofactor (q;q)_m^2/(H_mu H_nu)^2 the Q^0 numerator."""
        for mu, nu in ((P(2, 1), P(1)), (P(3), P(1, 1)), (EMPTY, P(2, 2))):
            shift, num = s_ratio_squared(mu, nu, 0)[0]
            value = QRat(2 * shift, _in_t(num), _in_t(vertex._qq_squared(mu.size + nu.size)))
            assert value == (w_one(mu) * w_one(nu)) ** 2, (mu, nu)


def pair_term(r, mu2, mu4, q, Q):
    """The pair's summand term_r(mu2, mu4) of Z_m/Z_0 at the rationals (q, Q),
    built from ``e_coeffs``, ``kappa`` and ``hooks`` alone: (-1)^(rm)
    q^(r(k2 - k4)/2) Q^(r|mu2|) q^w (H_mu2 H_mu4)^(-2) prod_i (1 - q^(i+1) Q)^(-2 e_i),
    w = sum_i mu2_i^2 + sum_k mu4_k^2, H_mu = prod_hooks (1 - q^h)."""
    m = mu2.size + mu4.size
    value = (-1) ** (r * m) * q ** (r * (mu2.kappa() - mu4.kappa()) // 2) * Q ** (r * mu2.size)
    value *= q ** sum(part * part for p in (mu2, mu4) for part in p)
    for h in mu2.hooks() + mu4.hooks():
        value /= (1 - q**h) ** 2
    for i, c in e_coeffs(mu2, mu4).items():
        value /= (1 - q ** (i + 1) * Q) ** (2 * c)
    return value


class TestDihedralGenerators:
    """The paper's two generators act pair by pair on the vertex's integer
    data: the spherical twist, the Weyl reflection Q -> 1/Q at weight
    m(2 - r), maps (mu2, mu4) to (mu4^t, mu2^t), and the derived dual q -> 1/q
    maps it to (mu2^t, mu4^t).  Their product is the swap that ``SCache``
    shares, since the S-ratio is symmetric."""

    def test_integer_identities(self):
        """On every ordered pair with |mu| + |nu| <= 14: e(nu^t, mu^t)_j =
        e(mu, nu)_(-j-2), k(mu) + k(nu) = 2 sum_i (i + 1) e_i(mu, nu), sum_i
        e_i = |mu| + |nu|, and mu and mu^t have one hook multiset.  Together
        these give both functional equations of each term."""
        parts = list(partitions_up_to(14))
        for mu in parts:
            assert sorted(mu.hooks()) == sorted(mu.conjugate().hooks()), mu
        pairs = [(mu, nu) for mu in parts for nu in parts if mu.size + nu.size <= 14]
        assert len(pairs) == 7567
        for mu, nu in pairs:
            e = e_coeffs(mu, nu)
            reflected = {-j - 2: c for j, c in e.items()}
            assert e_coeffs(nu.conjugate(), mu.conjugate()) == reflected, (mu, nu)
            assert mu.kappa() + nu.kappa() == 2 * sum((i + 1) * c for i, c in e.items()), (mu, nu)
            assert sum(e.values()) == mu.size + nu.size, (mu, nu)

    def test_functional_equations_at_a_rational_point(self):
        """Exactly at (q, Q) = (3/7, 5/11), for r <= 4 and every ordered pair
        with m = |mu2| + |mu4| <= 6: term_r(mu4^t, mu2^t)(q, Q) = Q^(-m(2-r))
        term_r(mu2, mu4)(q, 1/Q) and term_r(mu2^t, mu4^t)(q, Q) =
        term_r(mu2, mu4)(1/q, Q).  One point is evidence for the sums, the
        integer identities above are the proof."""
        q, Q = Fraction(3, 7), Fraction(5, 11)
        terms = 0
        for r in range(5):
            for m in range(7):
                for a in range(m + 1):
                    for mu2 in partitions_of(a):
                        for mu4 in partitions_of(m - a):
                            t2, t4 = mu2.conjugate(), mu4.conjugate()
                            assert pair_term(r, t4, t2, q, Q) == (
                                Q ** (m * (r - 2)) * pair_term(r, mu2, mu4, q, 1 / Q)
                            ), (r, mu2, mu4)
                            assert pair_term(r, t2, t4, q, Q) == pair_term(r, mu2, mu4, 1 / q, Q)
                            terms += 1
        assert terms == 695


class TestSCache:
    def test_memory_reuse_and_truncation(self):
        cache = SCache()
        full = cache.get(P(1), EMPTY, 5)
        short = cache.get(P(1), EMPTY, 3)
        assert len(full) == 6 and short == full[:4]

    def test_disk_round_trip(self, tmp_path):
        first = SCache(str(tmp_path))
        series = first.get(P(1), EMPTY, 4)
        second = SCache(str(tmp_path))
        assert second.get(P(1), EMPTY, 4) == series
        assert second.get(P(1), EMPTY, 2) == series[:3]

    def test_file_name_pinned(self, tmp_path):
        """A file is named by its sorted pair, "_" between the parts and "-"
        between the partitions, with no format version in it."""
        cache = SCache(str(tmp_path))
        for mu, nu in [(P(2, 1), P(1)), (P(1), EMPTY), (EMPTY, EMPTY), (P(12), P(3, 1, 1))]:
            cache.get(mu, nu, 2)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "s_-.json", "s_-1.json", "s_1-2_1.json", "s_3_1_1-12.json"
        ]

    @pytest.mark.parametrize(
        "pair", [{"nu": [1, 1, 1]}, {"mu": [2, 1], "nu": [1]}, {"mu": None}],
        ids=["other", "swapped", "none"],
    )
    def test_other_pair_reported(self, tmp_path, pair):
        """A document must name the pair its file is named for; one naming
        another, the same pair unsorted, or none is corrupt."""
        SCache(str(tmp_path)).get(P(1), P(2, 1), 3)
        (path,) = list(tmp_path.iterdir())
        path.write_text(json.dumps({**json.loads(path.read_text()), **pair}))
        with pytest.raises(CacheError) as err:
            SCache(str(tmp_path)).get(P(2, 1), P(1), 3)
        assert str(err.value) == (
            "corrupt cache file: %s\ndelete %s or run without --cache-dir" % (path, path)
        )

    # nested past json.load's recursion limit (Python 3.13 parses 1000 levels)
    @pytest.mark.parametrize("text", ["not json", "[" * 100_000], ids=["text", "nested"])
    def test_corrupt_file_reported(self, tmp_path, text):
        cache = SCache(str(tmp_path))
        cache.get(EMPTY, EMPTY, 2)
        (path,) = list(tmp_path.iterdir())
        path.write_text(text)
        fresh = SCache(str(tmp_path))
        with pytest.raises(CacheError) as err:
            fresh.get(EMPTY, EMPTY, 2)
        assert str(err.value).splitlines()[-1] == "delete %s or run without --cache-dir" % path
        assert not isinstance(err.value, VertexError)

    def test_file_removed_before_open_is_a_miss(self, tmp_path, monkeypatch):
        """A file another process removes just before the open is not there:
        a miss, not a corrupt file naming a path that is gone, and the entry
        is built and stored again, the same bytes."""
        SCache(str(tmp_path)).get(P(1), EMPTY, 3)
        (path,) = list(tmp_path.iterdir())
        stored = path.read_text()

        def removed_before_open(name, mode="r", *args, **kwargs):
            if mode != "r":
                return open(name, mode, *args, **kwargs)
            os.remove(name)
            raise FileNotFoundError(name)

        monkeypatch.setattr(vertex, "open", removed_before_open, raising=False)
        assert SCache(str(tmp_path))._load(EMPTY, P(1)) is None
        assert not path.exists()
        path.write_text(stored)
        builds = record_calls(monkeypatch, vertex, "s_ratio_squared")
        series = SCache(str(tmp_path)).get(P(1), EMPTY, 3)
        assert builds == [(EMPTY, P(1), 3)]
        assert path.read_text() == stored
        assert series == vertex.s_ratio_squared(EMPTY, P(1), 3)

    @pytest.mark.parametrize("bad", [7.9, True, "3"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["shift", "numerator"])
    def test_non_integer_entry_reported(self, tmp_path, field, bad):
        """Only JSON integers are read: int() would turn 7.9, true and "3"
        into other numbers and a different table."""
        SCache(str(tmp_path)).get(P(1), EMPTY, 3)
        (path,) = list(tmp_path.iterdir())
        doc = json.loads(path.read_text())
        shift, num = doc["coeffs"][1]
        assert num
        if field == "shift":
            doc["coeffs"][1][0] = bad
        else:
            num[0] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError) as err:
            SCache(str(tmp_path)).get(P(1), EMPTY, 3)
        assert str(err.value).splitlines()[-1] == "delete %s or run without --cache-dir" % path
        assert "corrupt cache file" in str(err.value)

    def test_directory_under_a_file_reported(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(CacheError) as err:
            SCache(str(blocker / "sub"))
        assert str(err.value).endswith("; name another or run without --cache-dir")
        assert str(blocker / "sub") in str(err.value)

    def test_failed_store_reported(self, tmp_path):
        """A cache directory that stops being writable after it was made."""
        directory = tmp_path / "scache"
        cache = SCache(str(directory))
        directory.rmdir()
        directory.write_text("")
        with pytest.raises(CacheError) as err:
            cache.get(EMPTY, EMPTY, 2)
        assert str(err.value).endswith("; name another or run without --cache-dir")
        assert str(directory) in str(err.value)

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A rename that fails, as on a full disk, removes the temp file it
        was to move and raises the same CacheError."""

        def full(src, dst):
            raise OSError(28)

        cache = SCache(str(tmp_path))
        monkeypatch.setattr(vertex.os, "replace", full)
        with pytest.raises(CacheError) as err:
            cache.get(P(1), EMPTY, 2)
        assert str(err.value) == (
            "cannot write cache directory %r: 28; name another or run without --cache-dir"
            % str(tmp_path)
        )
        assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []

    def test_stores_ratio_squared(self, tmp_path):
        cache = SCache(str(tmp_path))
        assert cache.get(P(1), EMPTY, 3) == s_ratio_squared(P(1), EMPTY, 3)
        assert cache.get(EMPTY, EMPTY, 3) == [(0, [1]), (0, []), (0, []), (0, [])]

    def test_pair_order_shares_one_entry(self, tmp_path, monkeypatch):
        """(mu, nu) and (nu, mu) give the same ratio, so SCache builds and
        stores the pair once."""
        builds = record_calls(monkeypatch, vertex, "s_ratio_squared")
        cache = SCache(str(tmp_path))
        first = cache.get(P(2, 1), P(1), 4)
        assert cache.get(P(1), P(2, 1), 4) == first == s_ratio_squared(P(1), P(2, 1), 4)
        assert len(builds) == 1 and len(list(tmp_path.iterdir())) == 1
        assert SCache(str(tmp_path)).get(P(1), P(2, 1), 3) == first[:4]
        assert len(builds) == 1

    @pytest.mark.parametrize("version", [2, 3])
    def test_old_format_rebuilt(self, tmp_path, version):
        """A file of another format version is ignored and rewritten as format
        4: format 2 held QRat series, and format 3 held numerators over
        (H_mu H_nu)^2, never to be read as numerators over (q;q)_m^2."""
        mu, nu = P(1), P(2, 1)  # cofactor (1 + q)^4 (1 + q^2)^2
        SCache(str(tmp_path)).get(mu, nu, 3)
        (path,) = list(tmp_path.iterdir())
        doc = json.loads(path.read_text())
        assert doc["version"] == 4
        old = {2: "QRat series", 3: dict_route_ratio_squared(mu, nu, 3)}[version]
        assert json.loads(json.dumps(old)) != doc["coeffs"]
        path.write_text(json.dumps({**doc, "version": version, "coeffs": old}))
        assert SCache(str(tmp_path)).get(mu, nu, 3) == s_ratio_squared(mu, nu, 3)
        assert json.loads(path.read_text()) == doc

    def test_long_held_entry_opens_no_file(self, tmp_path, monkeypatch):
        """A held entry long enough for the order serves it, truncated: the
        file is never opened and nothing is built."""
        cache = SCache(str(tmp_path))
        first = cache.get(P(2, 1), P(1), 4)
        builds = record_calls(monkeypatch, vertex, "s_ratio_squared")
        monkeypatch.setattr(
            vertex, "open", refuse("SCache opened a file for a held entry"), raising=False
        )
        assert cache.get(P(1), P(2, 1), 4) == first
        assert cache.get(P(2, 1), P(1), 2) == first[:3]
        assert builds == []

    def test_short_held_entry_served_from_longer_file(self, tmp_path, monkeypatch):
        """A held entry too short for the order, with a longer file that
        another cache wrote since, is served from the file with no build."""
        short = SCache(str(tmp_path))
        short.get(P(1), P(2, 1), 2)
        longer = SCache(str(tmp_path)).get(P(1), P(2, 1), 6)
        builds = record_calls(monkeypatch, vertex, "s_ratio_squared")
        assert short.get(P(2, 1), P(1), 6) == longer
        assert short.get(P(1), P(2, 1), 5) == longer[:6]
        assert builds == []

    def test_short_file_rebuilt_and_overwritten(self, tmp_path, monkeypatch):
        """A file too short for the order is rebuilt once and overwritten
        with the longer entry, which then serves a fresh cache."""
        SCache(str(tmp_path)).get(P(1), P(2, 1), 2)
        (path,) = list(tmp_path.iterdir())
        builds = record_calls(monkeypatch, vertex, "s_ratio_squared")
        longer = SCache(str(tmp_path)).get(P(1), P(2, 1), 6)
        assert longer == s_ratio_squared(P(1), P(2, 1), 6) and len(builds) == 1
        assert json.loads(path.read_text())["coeffs"] == json.loads(json.dumps(longer))
        assert SCache(str(tmp_path)).get(P(1), P(2, 1), 6) == longer
        assert len(builds) == 1 and list(tmp_path.iterdir()) == [path]


class TestPartitionFunctions:
    def test_toric_agreement_r0(self, scache):
        _assert_toric_agreement(0, 1, 3, scache)

    def test_toric_agreement_r1(self, scache):
        _assert_toric_agreement(1, 1, 3, scache)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_toric_agreement_m2(self, r, scache):
        _assert_toric_agreement(r, 2, 2, scache)

    def test_toric_zero_bounds(self):
        got = z_toric(ToricSurface.hirzebruch(0), 0, 0)
        assert got == {(0, 0): ONE}

    def test_surface_validation(self):
        with pytest.raises(ValueError):
            ToricSurface(divisor_classes=((0, 1),), self_intersections=(0,))
        with pytest.raises(ValueError):
            ToricSurface(divisor_classes=((0, 1),) * 4, self_intersections=(0,) * 3)

    def test_toric_zero_class_rejected(self):
        surface = ToricSurface(((0, 1), (0, 0), (1, 0)), (0, 0, 0))
        with pytest.raises(ValueError, match="zero class"):
            z_toric(surface, 1, 1)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            z_ratio(-1, 0, 2, SCache())


def _assert_toric_agreement(r, c_bound, b_bound, scache):
    """The N-leg oracle z_toric against pt_series (so against z_ratio)."""
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

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_pt_series_is_z_hirzebruch_entry(self, r, scache):
        """pt_series(r, m) for m <= 3 at Q-order 9 is, bit for bit, the m-th
        entry of Z of K_{F_r} assembled once as the oracle Z_0 = S_{empty,empty}^2
        (W_empty = 1) times z_ratio."""
        s = s_closed(EMPTY, EMPTY, 9)
        z0 = s * s
        ratios = qrat_z_ratios(r, 3, 9, scache)
        for m in range(4):
            assert _bits(pt_series(r, m, 9, cache=scache)) == _bits(z0 * ratios[m]), m

    def test_integrality_detects_fractions(self):
        bad = (0, {1: [1]}, [2])  # 1/2 Q
        assert not check_integrality(pt_invariants(bad, 1))

    def test_fiber_class_invariants(self, scache):
        rows = pt_rows(0, 0, 1, scache)
        values = {(j, n): v for j, n, v in rows}
        assert values[(1, 1)] == -2
        assert values[(1, 2)] == 4

    def test_section_class_first_invariant(self, scache):
        rows = pt_rows(0, 1, 1, scache)
        values = {(j, n): v for j, n, v in rows}
        assert values[(0, 1)] == -2

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            pt_series(0, -1, 2)


def canonical_integrality(series, t_terms=40):
    """The oracle: every canonical coefficient's t_expansion is integral."""
    return all(
        c.denominator == 1
        for d in series.degrees()
        for c in series.coeffs[d].t_expansion(t_terms)[1]
    )


def pt_rows(r, m, order, cache):
    """The rows ``pt_invariants`` reads off Z_m, assembled as ``pt`` does."""
    return pt_invariants(z_ratio(r, m, order, cache), order)


def whole_rows(series):
    """The (j, n, value) rows of a whole class series, as ``pt`` prints
    them: PT_Q_TERMS + 1 terms of each Q^j row from its valuation, each
    with the (-q)^n sign; a reader apart from the engine's windows."""
    shift, nums, den = series
    rows = []
    for j, num in nums.items():
        lowest, coeffs = expansion(shift, num, den, PT_Q_TERMS + 1)
        rows += [(j, n, c if n % 2 == 0 else -c) for n, c in enumerate(coeffs, lowest) if c]
    return rows


def oracle_rows(ratio, order):
    """The rows of the oracle's whole Z_m."""
    return whole_rows(pt_fractions(ratio, z0_series(order)))


class TestKnownDenominators:
    def test_z0_bit_identical_to_exp_route(self):
        """Every Q^n coefficient of z0_series(13), and the last of each
        z0_series(n), canonicalises to the exp route's S_{empty,empty}^2, bit
        for bit."""
        shift, nums, den = z0_series(13)
        s = s_closed(EMPTY, EMPTY, 13)
        oracle = s * s
        assert shift == 0 and sorted(nums) == list(range(14))
        assert den == vertex._qq_squared(13)
        for n in range(14):
            _, short, short_den = z0_series(n)
            want = oracle[n]
            for got in (canonical((0, nums[n], den)), canonical((0, short[n], short_den))):
                assert (got.shift, got.num, got.den) == (want.shift, want.num, want.den), n

    def test_z0_golden(self):
        # Z_0 = 1 + 2q/(q;q)_1^2 Q + (3q^2 + 2q^3 + 3q^4)/(q;q)_2^2 Q^2 + ...,
        # each numerator lifted to (q;q)_2^2 by ((q;q)_2/(q;q)_n)^2
        qq = [1, -2, -1, 4, -1, -2, 1]
        assert vertex._qq_squared(2) == qq
        assert z0_series(2) == (0, {0: qq, 1: [2, 0, -4, 0, 2, 0], 2: [3, 2, 3, 0, 0]}, qq)

    def test_inexact_division_raises(self, monkeypatch, fresh_z0):
        """n Y_n must be divisible by n digit by digit: a stray factor
        (1 + q) in every step a_k of Z_0's recurrence breaks it at n = 3 (the
        steps have even coefficients, so n = 2 divides)."""
        plant_one_plus_q(monkeypatch)
        with pytest.raises(VertexError, match="n = 3"):
            z0_windows(4, PT_Q_TERMS + 1)

    def test_inexact_division_raises_in_s_build(self, monkeypatch):
        """The same stray (1 + q) in the steps of an S-ratio's recurrence."""
        plant_one_plus_q(monkeypatch)
        with pytest.raises(VertexError, match="n = 3"):
            s_ratio_squared(P(2, 1), P(1), 4)

    def test_signed_exponents_under_a_mask(self):
        """The recurrence on signed e_i: masked at a narrow width, each row
        is the low digits of the unmasked row, which is the Q^n coefficient
        of the binomial-series product of ``cyclo_product``."""
        e, order = {0: -1, 2: 3, 5: -2}, 6
        whole = vertex._exp_rows(e, order, 5 * order + 1)
        product = cyclo_product({(i, 1): -2 * c for i, c in e.items()}, order)
        for n, row in enumerate(whole):
            assert canonical((n, _strip(row), [1])) == product[n], n
        for width in (1, 4, 9):
            masked = vertex._exp_rows(e, order, width)
            assert masked == [row[-width:] for row in whole], width
            assert any(c < 0 for row in masked for c in row), width

    def test_takes_no_series_exp(self, monkeypatch, scache):
        monkeypatch.setattr(TruncSeries, "exp", refuse("Z_0 was built by a series exp"))
        assert pt_series(1, 2, 5, cache=scache)[5]
        assert check_integrality(pt_rows(1, 2, 5, scache))

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_ratio_denominators_divide_qq_squared(self, r, scache):
        """Every coefficient of Z_m/Z_0 is one integer numerator over
        (q;q)_m^2, and canonicalised it is, bit for bit, the QRat assembly."""
        ratios = [z_ratio(r, m, 9, scache) for m in range(4)]
        oracle = qrat_z_ratios(r, 3, 9, scache)
        for m in range(4):
            qq = ONE
            for k in range(1, m + 1):
                qq = qq * (ONE - QRat.q_power(k)) ** 2
            assert canonical((0, [1], ratios[m][2])) == ONE / qq, m
            assert _bits(qrat_series(ratios[m], 9)) == _bits(oracle[m]), m

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_foreign_denominator_raises(self, m, monkeypatch):
        """A planted hook (1 - q^(m+1)) that does not divide (q;q)_m^2 is
        fatal in the S-build of a pair of class m: through z_ratio for
        m >= 1, and for m = 0, whose z_ratio is 1 and fetches no pair, in
        the build of (empty, empty) itself."""
        hooks = Partition.hooks
        monkeypatch.setattr(Partition, "hooks", lambda mu: hooks(mu) + [m + 1])
        with pytest.raises(VertexError, match="does not divide"):
            if m:
                z_ratio(1, m, 6, SCache())
            else:
                SCache().get(EMPTY, EMPTY, 6)

    def test_pt_assembles_only_its_class(self, monkeypatch):
        """pt_series(0, 6, .) reads the 65 S-ratios of |mu2| + |mu4| = 6,
        not the 139 of every m <= 6."""
        calls = record_calls(monkeypatch, SCache, "get", lambda self, *args: args)
        pt_series(0, 6, 4)
        assert len(calls) == 65
        assert all(mu2.size + mu4.size == 6 for mu2, mu4, _ in calls)

    def test_fetches_only_pairs_below_the_order(self, monkeypatch):
        """z_ratio(7, 4, 3) reads only the 5 pairs of |mu2| = 0: every other
        pair starts at Q^(7|mu2|), past Q^3."""
        calls = record_calls(monkeypatch, SCache, "get", lambda self, *args: args)
        z_ratio(7, 4, 3, SCache())
        assert len(calls) == 5
        assert all(mu2.size == 0 for mu2, _, _ in calls)

    def test_class_zero_fetches_no_pair(self, monkeypatch):
        """Z_0/Z_0 = 1: z_ratio at m = 0 is the unit class series, and asks
        the cache for no S-entry, not even (empty, empty)."""
        monkeypatch.setattr(SCache, "get", refuse("z_ratio at m = 0 fetched an S-entry"))
        for r in (0, 1, 2, 5):
            assert z_ratio(r, 0, 9, SCache()) == (0, {0: [1]}, [1]), r

    def test_z_ratio_is_a_shift_and_a_sum(self, monkeypatch):
        """Each cofactor is divided once per sorted pair, in its S-build, at
        half degree: 11 pairs with |mu| + |nu| = 4 for r = 0, 1, 2, each
        dividing (q;q)_4 of length 11, not (q;q)_4^2 of length 21; and a warm
        z_ratio neither divides nor multiplies."""
        counts = {"_exquo": 0, "_mul": 0}
        dividends = []

        def counted(name):
            op = getattr(vertex, name)

            def call(*args):
                counts[name] += 1
                if name == "_exquo":
                    dividends.append(len(args[0]))
                return op(*args)

            return call

        for name in counts:
            monkeypatch.setattr(vertex, name, counted(name))
        cache = SCache()
        for r in (0, 1, 2):
            z_ratio(r, 4, 6, cache)
        assert counts["_exquo"] == 11
        assert dividends == [11] * 11
        counts.update(_exquo=0, _mul=0)
        z_ratio(1, 4, 6, cache)
        assert counts == {"_exquo": 0, "_mul": 0}

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_verdict_matches_canonical(self, r, scache):
        """The q-window of each fraction holds the even t-terms of the
        canonical t_expansion(40), whose odd t-terms are zero; so the two
        integrality verdicts agree."""
        z0 = z0_series(9)
        for m in range(3):
            ratio = z_ratio(r, m, 9, scache)
            fractions = pt_fractions(ratio, z0)
            series = qrat_series(fractions, 9)
            assert check_integrality(whole_rows(fractions)) == canonical_integrality(series)
            assert check_integrality(pt_invariants(ratio, 9)) is True
            shift, nums, den = fractions
            for j, num in nums.items():
                low, window = expansion(shift, num, den, 20)
                t_low, t_window = series[j].t_expansion(40)
                assert (2 * low, window) == (t_low, t_window[::2])
                assert not any(t_window[1::2])

    @pytest.mark.parametrize(
        "fraction",
        [
            (3, [1, 4], [3, 2]),  # q^3 (q + 4)/(3q + 2), non-integral at q^4
            (0, [1] + [0] * 18 + [2], [2]),  # 1 + q^19/2
            # q^5 (1 + q^19/2): non-integral only at q^24, inside the window
            # from the valuation q^5 but outside one from q^0
            (0, [1] + [0] * 18 + [2] + [0] * 5, [2]),
        ],
    )
    def test_negative_goldens(self, fraction):
        shift, num, den = fraction
        assert not check_integrality(pt_invariants((shift, {0: num}, den), 0))
        assert not canonical_integrality(TruncSeries(0, {0: canonical(fraction)}))

    def test_window_starts_at_valuation(self):
        """Trailing zeros of an integral numerator move into the valuation."""
        fraction = (-2, [3, 0, 0, 0], [1, 0, 1, 0, 1])  # 3 q/(1 + q^2 + q^4)
        low, window = expansion(*fraction, 4)
        assert (low, window) == (1, [3, 0, -3, 0])
        assert check_integrality(pt_invariants((-2, {0: fraction[1]}, fraction[2]), 0))


def plant_one_plus_q(monkeypatch):
    """n R_n in ``vertex._exp_rows``, so every a_k, times a stray (1 + q)."""
    divide = vertex._divide
    monkeypatch.setattr(
        vertex, "_divide",
        lambda total, n, words, width: divide(total * (1 + (1 << 64 * words)), n, words, width),
    )


class TestWindows:
    """Z_0 and Z_m read in their q-windows, against the oracles that build
    them whole, ``oracles.z0_series`` and ``oracles.pt_fractions``."""

    @pytest.mark.parametrize("width", [1, PT_Q_TERMS + 1, 80])
    def test_z0_matches_oracle(self, width):
        """Each window, highest first, is the expansion of N_n/(q;q)_n^2
        from q^n."""
        for order in (0, 1, 6, 13):
            _, nums, den = z0_series(order)
            windows = z0_windows(order, width)
            assert len(windows) == order + 1
            for n, window in enumerate(windows):
                assert expansion(0, nums[n], den, width) == (n, window[::-1]), (order, n)

    def test_held_table_is_built_once(self, fresh_z0):
        """z0_windows holds the last table it built: a repeated (order,
        width) builds nothing, and each table is the windows of z0_series,
        highest first."""
        calls = [(3, 30), (3, 30), (6, 10), (6, 10), (6, 10), (0, 1), (3, 30)]
        for order, width in calls:
            _, nums, den = z0_series(order)
            want = [expansion(0, nums[n], den, width)[1][::-1] for n in range(order + 1)]
            assert z0_windows(order, width) == want, (order, width)
        assert z0_windows.cache_info().misses == 4

    def test_bounds_behind_the_windows(self):
        """Two bounds on Z_0: N_n = (q;q)_n^2 [Q^n] Z_0 has degree n^2 at
        most, the bound past which pt_invariants stops widening a window;
        and Z_0 at Q = 1 is below 2^7 at q = 1/2, so 2^(e + 7) bounds its
        q^e coefficient.  Only the first is behind the windows: ``_exp_rows``
        sizes its digits from the exponents e alone, so the second checks
        the window values of z0_windows against a bound of its own."""
        for n in range(13):
            assert len(z0_series(n)[1][n]) - 1 <= n * n, n
        at_half = 1.0
        for j in range(1, 80):
            at_half *= (1 - 0.5**j) ** (-2 * j)
        assert at_half < 101
        for n, window in enumerate(z0_windows(12, 40)):
            assert all(0 <= c < 2 ** (n + i + 7) for i, c in enumerate(window[::-1])), n

    @pytest.mark.parametrize("r", range(6))
    def test_bit_identical_to_oracle_route(self, r, scache):
        """pt_invariants of the window route is the oracle route's, row for
        row and bit for bit, for m <= 4 and Q-orders 4, 6, 8 and 12."""
        for order in (4, 6, 8, 12):
            for m in range(5):
                ratio = z_ratio(r, m, order, scache)
                rows = pt_invariants(ratio, order)
                assert rows == oracle_rows(ratio, order), (m, order)

    def test_row_windows_start_at_the_valuation(self, scache):
        """The two windows that the ``pt_invariants`` docstring states, each
        row PT_Q_TERMS + 1 = 25 slots n from its valuation at Q-order 3: at
        j = 0, n = 6..30 for r = 0, m = 6; at every j, n = -26..-2 for r = 7,
        m = 4."""
        rows = pt_invariants(z_ratio(0, 6, 3, scache), 3)
        assert [n for j, n, _ in rows if j == 0] == list(range(6, 31))
        rows = pt_invariants(z_ratio(7, 4, 3, scache), 3)
        assert [(j, n) for j, n, _ in rows] == [(j, n) for j in range(4) for n in range(-26, -1)]

    def test_bit_identical_at_q_order_24(self, scache):
        ratio = z_ratio(0, 6, 24, scache)
        assert pt_invariants(ratio, 24) == oracle_rows(ratio, 24)

    def test_cancelling_row_widens(self, monkeypatch):
        """Z_0 (1 + (q^30 - 2q/(1-q)^2) Q): the low terms of the Q^1 row
        cancel and leave q^30, so the window widens past its first 25 terms
        from q^1, and Z_0's with it, after the first build at 25."""
        dm = vertex._qq_squared(1)  # (1 - q)^2
        ratio = (0, {0: dm, 1: [1, -2, 1] + [0] * 28 + [-2, 0]}, dm)
        widths = record_calls(monkeypatch, vertex, "z0_windows", lambda order, width: width)
        rows = pt_invariants(ratio, 3)
        assert [row for row in rows if row[0] == 1] == [(1, 30, 1)]
        assert rows == oracle_rows(ratio, 3)
        assert widths == [25, 50, 54]

    def test_zero_row_stops_widening(self, monkeypatch):
        """Z_0 (1 - N_5/(q;q)_5^2 Q^5): the two live terms of the Q^5 row
        cancel exactly, so it widens until its window passes the degree
        bound 5 * 6 + 30 and is dropped, as the oracle drops it."""
        n5 = z0_series(5)[1][5]
        dm = vertex._qq_squared(5)
        ratio = (0, {0: dm, 5: [-c for c in n5]}, dm)
        widths = record_calls(monkeypatch, vertex, "z0_windows", lambda order, width: width)
        rows = pt_invariants(ratio, 5)
        assert {j for j, _, _ in rows} == {0, 1, 2, 3, 4}
        assert widths == [25, 50, 100]
        assert rows == oracle_rows(ratio, 5)
