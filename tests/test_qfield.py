"""Exact rational-function field in t = q^(1/2)."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localvertex.qfield import _add, _exquo, _mul, _pack, _unpack, expansion
from localvertex.qrat import QFieldError, QRat, _gcd, _gcd_prs

T = QRat.t_power(1)
Q = QRat.q_power(1)
ONE = QRat.one()
ZERO = QRat.zero()


def _polys():
    return st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)


@st.composite
def qrats(draw):
    """Random elements built from small integer polynomials in t."""
    num = draw(_polys())
    den = draw(_polys().filter(lambda p: any(p)))
    shift = draw(st.integers(min_value=-3, max_value=3))
    a = ZERO
    for k, c in enumerate(num):
        a = a + QRat.t_power(k) * c
    b = ZERO
    for k, c in enumerate(den):
        b = b + QRat.t_power(k) * c
    return QRat.t_power(shift) * a / b


class TestConstructorsAndExamples:
    def test_additive_inverse(self):
        a = ONE / (ONE - Q)
        assert a + (-a) == ZERO

    def test_multiplicative_inverse(self):
        a = T / (ONE - Q)
        assert a * ((ONE - Q) / T) == ONE

    def test_denominator_product(self):
        left = (ONE / (ONE - Q)) * (ONE / (ONE - Q * Q))
        right = ONE / ((ONE - Q) * (ONE - Q * Q))
        assert left == right

    def test_from_rational(self):
        assert QRat.from_rational(Fraction(3, 2)) * 2 == QRat.from_int(3)

    def test_int_coercion(self):
        assert ONE + 1 == QRat.from_int(2)
        assert 2 * T == T + T


class TestInversion:
    def test_monomial(self):
        assert QRat.t_power(2).invert_t() == QRat.t_power(-2)

    def test_geometric(self):
        a = ONE / (ONE - Q)
        assert a.invert_t() == Q / (Q - ONE)

    def test_palindromic_fixed_point(self):
        a = Q + ONE / Q
        assert a.invert_t() == a

    def test_pt_style_coefficient_fixed(self):
        a = Q * 2 / ((ONE - Q) * (ONE - Q))
        assert a.invert_t() == a

    @given(qrats())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, a):
        assert a.invert_t().invert_t() == a

    @given(qrats(), qrats())
    @settings(max_examples=40, deadline=None)
    def test_ring_morphism(self, a, b):
        assert (a + b).invert_t() == a.invert_t() + b.invert_t()
        assert (a * b).invert_t() == a.invert_t() * b.invert_t()


class TestFieldAxioms:
    @given(qrats(), qrats(), qrats())
    @settings(max_examples=40, deadline=None)
    def test_associativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(qrats())
    @settings(max_examples=40, deadline=None)
    def test_inverse_round_trip(self, a):
        if not a.is_zero():
            assert a * a.reciprocal() == ONE
            assert (ONE / a) * a == ONE

    @given(qrats())
    @settings(max_examples=40, deadline=None)
    def test_canonical_uniqueness_by_cross_multiplication(self, a):
        b = a * 3 / 3
        assert b == a
        assert (b.shift, b.num, b.den) == (a.shift, a.num, a.den)

    def test_division_by_zero(self):
        with pytest.raises(QFieldError):
            ONE / ZERO

    def test_pow(self):
        assert (ONE - Q) ** 2 == (ONE - Q) * (ONE - Q)
        assert (ONE - Q) ** -1 == ONE / (ONE - Q)
        assert T ** 0 == ONE


def _fields(a):
    return a.shift, a.num, a.den


class TestCanonicalShortcuts:
    """Results built without a gcd equal the fully canonicalised ones."""

    @given(qrats())
    @settings(max_examples=60, deadline=None)
    def test_invert_t(self, a):
        b = a.invert_t()
        shift = -a.shift - len(a.num) + len(a.den)
        assert _fields(b) == _fields(QRat(shift, a.num[::-1], a.den[::-1]))

    @given(qrats())
    @settings(max_examples=60, deadline=None)
    def test_reciprocal(self, a):
        if not a.is_zero():
            assert _fields(a.reciprocal()) == _fields(QRat(-a.shift, a.den, a.num))

    @given(qrats(), qrats())
    @settings(max_examples=60, deadline=None)
    def test_add(self, a, b):
        s = min(a.shift, b.shift)
        num_a = a.num + [0] * (a.shift - s)
        num_b = b.num + [0] * (b.shift - s)
        full = QRat(s, _add(_mul(num_a, b.den), _mul(num_b, a.den)), _mul(a.den, b.den))
        assert _fields(a + b) == _fields(full)

    @given(qrats(), qrats())
    @settings(max_examples=60, deadline=None)
    def test_mul(self, a, b):
        full = QRat(a.shift + b.shift, _mul(a.num, b.num), _mul(a.den, b.den))
        assert _fields(a * b) == _fields(full)


class TestEvaluation:
    def test_t_expansion_geometric(self):
        lowest, coeffs = (ONE / (ONE - Q)).t_expansion(6)
        assert lowest == 0
        assert coeffs == [Fraction(1), 0, 1, 0, 1, 0]

    def test_t_expansion_with_shift(self):
        lowest, coeffs = (T / (ONE - Q)).t_expansion(4)
        assert lowest == 1
        assert coeffs == [Fraction(1), 0, 1, 0]

    @given(qrats())
    @settings(max_examples=30, deadline=None)
    def test_expansion_matches_evaluation(self, a):
        """Partial t-sums at a small t converge toward the exact value.

        The series coefficients grow at most geometrically with ratio
        bounded by the denominator's coefficient size, so t = 1/100
        leaves a comfortable tail bound.
        """
        t0 = Fraction(1, 100)
        den = _horner(a.den, t0)
        if den == 0:
            return
        exact = t0**a.shift * _horner(a.num, t0) / den
        lowest, coeffs = a.t_expansion(30)
        approx = sum(c * t0 ** (lowest + i) for i, c in enumerate(coeffs))
        assert abs(exact - approx) < Fraction(1, 10) ** 20


def _horner(p, t0):
    """A dense high-first polynomial evaluated at t0."""
    acc = Fraction(0)
    for c in p:
        acc = acc * t0 + c
    return acc


def long_division_expansion(a, n_terms):
    """The t-expansion of a by long division over Fraction, with a state
    spanning the whole numerator and steps walking the whole denominator:
    the oracle for QRat.t_expansion."""
    if a.is_zero():
        return 0, [Fraction(0)] * n_terms
    num = list(reversed(a.num))  # ascending
    den = list(reversed(a.den))
    d0 = Fraction(den[0])
    coeffs = []
    state = [Fraction(c) for c in num] + [Fraction(0)] * n_terms
    for k in range(n_terms):
        c = state[k] / d0
        coeffs.append(c)
        if c:
            for j in range(1, len(den)):
                if k + j < len(state):
                    state[k + j] -= c * den[j]
    return a.shift, coeffs


@st.composite
def raw_qrats(draw, unit_den=False):
    """Values canonicalised from raw integer lists of up to 12 coefficients,
    so num and den can be longer or shorter than the expansion; with
    ``unit_den`` the denominator's constant term is 1."""
    coeff = st.integers(min_value=-20, max_value=20)
    num = draw(st.lists(coeff, max_size=12))
    den = draw(st.lists(coeff, min_size=1, max_size=12).filter(any))  # ascending
    if unit_den:
        den[0] = 1
    shift = draw(st.integers(min_value=-5, max_value=5))
    return QRat(shift, num[::-1], den[::-1])


class TestTExpansionOracle:
    """The windowed t-expansion against full-length long division."""

    @staticmethod
    def _check(a, n_terms):
        got = a.t_expansion(n_terms)
        assert got == long_division_expansion(a, n_terms)
        assert all(type(c) is Fraction for c in got[1])

    @given(raw_qrats(), st.integers(min_value=0, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_any_denominator(self, a, n_terms):
        self._check(a, n_terms)

    @given(raw_qrats(unit_den=True), st.integers(min_value=0, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_integer_path(self, a, n_terms):
        assert a.is_zero() or a.den[-1] == 1
        self._check(a, n_terms)

    @given(
        st.fractions(max_denominator=50).filter(lambda x: x.denominator > 1),
        raw_qrats(unit_den=True),
        st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_from_rational_scaling(self, x, a, n_terms):
        """Rational multiples: the denominator's constant term need not be 1."""
        self._check(QRat.from_rational(x), n_terms)
        self._check(QRat.from_rational(x) * a, n_terms)

    def test_window_shorter_than_num_and_den(self):
        a = QRat(3, [5, 0, -2, 7, 1], [2, 0, 1, -3, 1])
        assert len(a.num) > 2 and len(a.den) > 2
        self._check(a, 2)
        self._check(a, 0)


def fraction_long_division(num, den, n_terms):
    """The first n_terms ascending coefficients of num(x)/den(x) (lists
    highest first) by plain long division over Fraction."""
    num, den = num[::-1], den[::-1]
    state = [Fraction(c) for c in num] + [Fraction(0)] * n_terms
    coeffs = []
    for k in range(n_terms):
        c = state[k] / den[0]
        coeffs.append(c)
        for j, d in enumerate(den[1:], k + 1):
            if j < len(state):
                state[j] -= c * d
    return coeffs


class TestExpansionNonUnitDenominator:
    """``expansion`` on raw integer lists, not canonical QRat values: den(0)
    negative and not a unit, a shift, and numerators that vanish at 0."""

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10).filter(any),
        st.lists(st.integers(min_value=-9, max_value=9), max_size=10),
        st.integers(min_value=-7, max_value=-2),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_long_division(self, num, den_high, d0, shift, n_terms):
        den = den_high + [d0]
        low, got = expansion(shift, num, den, n_terms)
        zeros = low - shift  # trailing zeros of num move into the valuation
        expected = fraction_long_division(num, den, zeros + n_terms)
        assert expected[:zeros] == [0] * zeros and got == expected[zeros:]
        assert all(type(c) is Fraction for c in got)

    def test_shifted_example(self):
        """x^-3 (2x^2 + x^3)/(-3 + x^2) = -2/3 x^-1 - 1/3 - 2/9 x - 1/9 x^2 - ..."""
        got = expansion(-3, [1, 2, 0, 0], [1, 0, -3], 5)
        assert got == (-1, [Fraction(-2, 3), Fraction(-1, 3), Fraction(-2, 9),
                            Fraction(-1, 9), Fraction(-2, 27)])


@pytest.fixture(scope="module")
def zz():
    """sympy's dense arithmetic over ZZ, the oracle for the kernel."""
    pytest.importorskip("sympy")
    from types import SimpleNamespace

    from sympy.polys import densearith, euclidtools, factortools
    from sympy.polys.domains import ZZ
    from sympy.polys.polyerrors import ExactQuotientFailed

    def exquo(f, g):
        try:
            return densearith.dup_exquo(f, g, ZZ)
        except ExactQuotientFailed:
            return None

    return SimpleNamespace(
        mul=lambda f, g: densearith.dup_mul(f, g, ZZ),
        exquo=exquo,
        gcd=lambda f, g: euclidtools.dup_gcd(f, g, ZZ),
        inner_gcd=lambda f, g: euclidtools.dup_inner_gcd(f, g, ZZ),
        cyclotomic=lambda d: factortools.dup_zz_cyclotomic_poly(d, ZZ),
    )


def _int_polys(min_size=0, max_size=30, bits=40):
    """Dense integer polynomials, highest degree first, no leading zeros."""
    coeffs = st.integers(min_value=-(2**bits), max_value=2**bits)
    return st.lists(coeffs, min_size=min_size, max_size=max_size).map(
        lambda p: list(itertools.dropwhile(lambda c: c == 0, p))
    )


def _nonzero_polys(**kw):
    return _int_polys(min_size=1, **kw).filter(bool)


@st.composite
def _cyclotomic_pairs(draw):
    """Orders of cyclotomic factors (shared, only in f, only in g) and a
    small numerator-like factor of f; f and g come out near degree 360, the
    size of the denominators the engine meets."""
    orders = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8)
    return draw(orders), draw(orders), draw(orders), draw(_nonzero_polys(max_size=12, bits=30))


def _cyclotomic_product(zz, orders, degree):
    p = [1]
    for d in itertools.cycle(orders):
        if len(p) > degree:
            return p
        p = zz.mul(p, zz.cyclotomic(d))


class TestKernelOracle:
    """The dense kernel against sympy's dup_* arithmetic."""

    @given(_int_polys(), _int_polys())
    @settings(max_examples=80, deadline=None)
    def test_mul_random(self, zz, f, g):
        assert _mul(f, g) == zz.mul(f, g)

    @given(_int_polys(), _nonzero_polys())
    @settings(max_examples=80, deadline=None)
    def test_exquo_random(self, zz, f, g):
        assert _exquo(f, g) == zz.exquo(f, g)
        assert _exquo(zz.mul(f, g), g) == f

    @given(_int_polys(max_size=12), _int_polys(max_size=12), _int_polys(max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_gcd_random(self, zz, a, b, c):
        f, g = zz.mul(a, c), zz.mul(b, c)
        assert _gcd(f, g) == tuple(zz.inner_gcd(f, g))
        assert _gcd(f, g)[0] == zz.gcd(f, g)

    @given(_cyclotomic_pairs())
    @settings(max_examples=20, deadline=None)
    def test_cyclotomic_products(self, zz, drawn):
        common, only_f, only_g, extra = drawn
        shared = _cyclotomic_product(zz, common, 180)
        f = zz.mul(zz.mul(shared, _cyclotomic_product(zz, only_f, 180)), extra)
        g = zz.mul(shared, _cyclotomic_product(zz, only_g, 180))
        assert _mul(f, g) == zz.mul(f, g)
        assert _exquo(f, shared) == zz.exquo(f, shared)
        assert _exquo(g, extra) == zz.exquo(g, extra)
        assert _gcd(f, g) == tuple(zz.inner_gcd(f, g))

    @given(_nonzero_polys(max_size=10, bits=20), _nonzero_polys(max_size=10, bits=20),
           _nonzero_polys(max_size=10, bits=20))
    @settings(max_examples=60, deadline=None)
    def test_prs_fallback(self, zz, a, b, c):
        """The Euclid the heuristic falls back to, called directly on
        primitive inputs of either leading sign."""
        f, g = zz.mul(a, c), zz.mul(b, c)
        f, g = [x // math.gcd(*f) for x in f], [x // math.gcd(*g) for x in g]
        assert _gcd_prs(f, g) == tuple(zz.inner_gcd(f, g))


@st.composite
def _digit_rows(draw):
    """m in 1..4 and a row of balanced base-2^(64m) digits, drawn often at
    the bounds -2^(64m-1) and 2^(64m-1) - 1."""
    m = draw(st.integers(1, 4))
    lo, hi = -(1 << (64 * m - 1)), (1 << (64 * m - 1)) - 1
    digit = st.one_of(st.sampled_from([lo, lo + 1, -1, 0, 1, hi - 1, hi]), st.integers(lo, hi))
    return m, draw(st.lists(digit, min_size=1, max_size=12))


class TestPacking:
    """Kronecker packing, single- and multiword."""

    @given(_digit_rows())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, drawn):
        m, p = drawn
        x = _pack(p, m)
        assert x == sum(c << (64 * m * k) for k, c in enumerate(reversed(p)))
        assert _unpack(x, m, len(p)) == p
