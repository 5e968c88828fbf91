"""Independent oracles for the engine, in the field Q(t) of ``qrat``.

Each route here recomputes a quantity that the engine computes over known
denominators, by the definitions or by another formula, and the tests
compare the two exactly:

- S_{mu,nu} three ways: the defining partition sum (``s_direct``), the
  exponential closed form (``s_closed``, from the exponent ``_exponent``)
  and the resummed infinite product (``s_product``); the engine's
  ``vertex.s_ratio_squared`` is the finite product of their squared
  ratios, its numerators over (q;q)_m^2, m = |mu| + |nu|.
- The general N-leg toric vertex sum (``z_toric``, over ``ToricSurface``)
  against the Hirzebruch partition function, and on local P^2's own
  triangle against the engine's F_1 numbers in the classes d(c + b).
- ``z0_series`` and ``pt_fractions``: Z_0 and Z_m = Z_0 (Z_m/Z_0) whole,
  as integer numerators over (q;q)_J^2 (q;q)_m^2, against the q-windows
  of ``vertex.z0_windows`` and ``vertex.pt_invariants``.
- ``pt_series``: the PT series as canonical QRat values, against the
  exp route of log Z_0 and ``z_toric``.
- ``cyclo_product`` and ``polylog_neg``: products of (1 - q^k Q) factors,
  each expanded as its binomial series, independent of the engine's one exp
  recurrence ``vertex._exp_rows`` (the S-ratios and Z_0 alike), and
  Li_{1-n}(Q) as rational functions.

The module sits beside the tests that run it, outside the installed
package, so no CLI task can import it.  Apart from the tests, it is all
that calls ``symmfun``.
"""

import itertools
from fractions import Fraction
from math import comb

from localvertex.partitions import Partition, partitions_of, partitions_up_to
from localvertex.qfield import _add, _exquo, _mul
from localvertex.qrat import QRat
from localvertex.series import TruncSeries
from localvertex.symmfun import p_shifted, w_one, w_two
from localvertex.vertex import SCache, VertexError, _product, _times_one_minus_q_power, z_ratio


# ---------------------------------------------------------------------------
# S_{mu,nu} three ways


def s_direct(mu: Partition, nu: Partition, order: int) -> TruncSeries:
    """S_{mu,nu} summed over its definition: sum_lambda W_{mu,lambda} W_{nu,lambda} Q^|lambda|.

    Brute force; the independent oracle for the closed and product forms.
    """
    coeffs = {}
    for lam in partitions_up_to(order):
        term = w_two(mu, lam) * w_two(nu, lam)
        d = lam.size
        coeffs[d] = coeffs.get(d, QRat.zero()) + term
    return TruncSeries(order, coeffs)


def _exponent(mu: Partition, nu: Partition, order: int) -> TruncSeries:
    """A_{mu,nu} = sum_{k<=order} p_mu(q^k) p_nu(q^k) (qQ)^k / k.

    Higher k sit above Q^order, so the truncated sum is exact.
    """
    return TruncSeries(
        order,
        {
            k: p_shifted(mu, k) * p_shifted(nu, k) * QRat.q_power(k) * Fraction(1, k)
            for k in range(1, order + 1)
        },
    )


def s_closed(mu: Partition, nu: Partition, order: int) -> TruncSeries:
    """S_{mu,nu} = W_mu W_nu exp(A_{mu,nu}); the oracle the other routes
    are compared against (the partition function uses only A)."""
    return _exponent(mu, nu, order).exp() * (w_one(mu) * w_one(nu))


def s_product(mu: Partition, nu: Partition, order: int) -> TruncSeries:
    """S_{mu,nu} via the infinite product over (1 - q^(j+i) Q)^(-j a_i), with
    sum_i a_i q^i = p_mu(q) p_nu(q) (1-q)^2, read off ``symmfun.p_shifted``.

    Truncating the product in j is not exact in q (every factor touches
    every Q-degree), so the j-product is resummed in closed form:

        log prod_{j>=1} (1 - q^(j+i) Q)^(-j)
            = sum_{k>=1} q^((i+1)k) / (k (1-q^k)^2) * Q^k.

    The a_i enter linearly in the exponent (exp of a_i times the log).
    """
    cleared = p_shifted(mu, 1) * p_shifted(nu, 1) * (QRat.one() - QRat.q_power(1)) ** 2
    # a Laurent polynomial in q = t^2: its even t-coefficients, ascending
    a = {cleared.shift // 2 + k: c for k, c in enumerate(cleared.num[::-2]) if c}
    arg = TruncSeries(order)
    for i, c in a.items():
        coeffs = {}
        for k in range(1, order + 1):
            den = (QRat.one() - QRat.q_power(k)) ** 2
            coeffs[k] = QRat.q_power((i + 1) * k) / den * Fraction(c, k)
        arg = arg + TruncSeries(order, coeffs)
    return arg.exp() * (w_one(mu) * w_one(nu))


# ---------------------------------------------------------------------------
# The general toric sum and the PT series in Q(t)


class ToricSurface:
    """A smooth toric surface given by its cycle of toric divisors.

    divisor_classes holds (c_coeff, b_coeff) pairs expressing each D_j in
    the H_2 basis {c, b}; self_intersections holds the s_j = D_j^2.
    """

    def __init__(self, divisor_classes: tuple, self_intersections: tuple):
        if len(divisor_classes) < 3:
            raise ValueError("a toric surface needs at least 3 divisors")
        if len(divisor_classes) != len(self_intersections):
            raise ValueError("divisor/self-intersection length mismatch")
        self.divisor_classes = divisor_classes
        self.self_intersections = self_intersections

    @classmethod
    def hirzebruch(cls, r: int) -> "ToricSurface":
        """F_r with D_1 = b = D_3, D_2 = c + r*b, D_4 = c; s = (0, r, 0, -r)."""
        return cls(
            divisor_classes=((0, 1), (1, r), (0, 1), (1, 0)),
            self_intersections=(0, r, 0, -r),
        )

    @classmethod
    def projective_plane(cls) -> "ToricSurface":
        """P^2 with D_1 = D_2 = D_3 = h, h^2 = 1, h written c + b: F_1 is P^2
        blown up at a point, and its class c + b is the pull-back of h, so
        the classes (d, d) of ``z_toric`` read dh."""
        return cls(((1, 1),) * 3, (1, 1, 1))


def z_toric(surface: ToricSurface, c_bound: int, b_bound: int) -> dict:
    """The general N-leg vertex sum, truncated by (c, b) multidegree.

    Returns a map (m, n) -> QRat for the coefficient of Q_c^m Q^n.  Used
    as a cross-check of pt_series on the Hirzebruch preset; the raw
    product-sum is exponential in N and meant for small bounds only.
    """
    classes = surface.divisor_classes
    if not all(any(cls) for cls in classes):
        raise ValueError("divisor with zero class; degree bound impossible")
    bounds = (c_bound, b_bound)
    limits = [min(bound // x for bound, x in zip(bounds, cls) if x) for cls in classes]
    out = {}
    for sizes in itertools.product(*(range(k + 1) for k in limits)):
        degree = tuple(sum(s * cls[k] for s, cls in zip(sizes, classes)) for k in (0, 1))
        if degree[0] > c_bound or degree[1] > b_bound:
            continue
        for chosen in itertools.product(*map(partitions_of, sizes)):
            value = QRat.one()
            for i, mu in enumerate(chosen):
                sj = surface.self_intersections[i]
                sign = -1 if (sj * mu.size) % 2 else 1
                value = value * sign * QRat.t_power(mu.kappa() * sj)
                value = value * w_two(mu, chosen[(i + 1) % len(chosen)])
            out[degree] = out.get(degree, QRat.zero()) + value
    return out


def _in_t(p):
    """A q-polynomial as a t-polynomial, q = t^2."""
    out = [0] * (2 * len(p) - 1)
    out[::2] = p
    return out


def _times_factor_squared(p, k):
    """p(q) (1 - q^k)^2 for k >= 1."""
    return _times_one_minus_q_power(_times_one_minus_q_power(p, k), k)


def z0_series(order: int) -> tuple:
    """Z_0 = sum_n N_n/(q;q)_n^2 Q^n up to Q^J, J = order, as the class
    series (0, {n: N_n ((q;q)_J/(q;q)_n)^2}, (q;q)_J^2).

    Z_0 = prod_{j>=1} (1 - q^j Q)^(-2j) = exp(log Z_0), and the exp
    recurrence n b_n = sum_k k a_k b_{n-k}, with k a_k = 2 q^k/(1-q^k)^2
    the k-th term of log Z_0 times k, cleared of denominators reads

        n N_n = sum_{k=1..n} 2 q^k P_{n,k}^2 N_{n-k},
        P_{n,k} = prod_{l=n-k+1..n} (1 - q^l) / (1 - q^k),

    a polynomial because one of those l is a multiple of k.  No gcd is
    taken; a division by n that leaves a remainder raises VertexError.
    """
    nums = [[1]]
    for n in range(1, order + 1):
        total = []
        f = [1]  # prod_{l=n-k+1..n} (1 - q^l)
        for k in range(1, n + 1):
            f = _times_one_minus_q_power(f, n - k + 1)
            p = _exquo(f, _times_one_minus_q_power([1], k))
            total = _add(total, _mul(_mul(p, p), nums[n - k]) + [0] * k)
        quotients = [divmod(2 * c, n) for c in total]
        if any(rem for _, rem in quotients):
            raise VertexError("n N_n is not divisible by n = %d" % n)
        nums.append([c for c, _ in quotients])
    lifts = [[1]]  # lifts[J - n] = ((q;q)_J/(q;q)_n)^2 takes N_n over (q;q)_J^2
    for n in range(order, 0, -1):
        lifts.append(_times_factor_squared(lifts[-1], n))
    return 0, {n: _mul(num, lifts[order - n]) for n, num in enumerate(nums)}, lifts[-1]


def pt_fractions(ratio: tuple, z0: tuple) -> tuple:
    """Z_m = Z_0 * ratio as a class series, with no gcd.

    ``ratio`` is z_ratio(...), over (q;q)_m^2, and ``z0`` is z0_series at
    the same Q-order J.  So the Q^j coefficient of Z_m is q^shift num(q)
    over den = (q;q)_J^2 (q;q)_m^2, whose constant term is 1.
    """
    shift, nums = _product(z0, ratio, max(z0[1]))
    return shift, nums, _mul(z0[2], ratio[2])


def pt_series(r: int, m: int, order: int, cache: SCache = None) -> TruncSeries:
    """The PT generating series of the class m*c, in raw q^n convention.

    Each Q-coefficient of the class series of ``pt_fractions`` is brought
    to canonical form once, over (q;q)_j^2 (q;q)_m^2: the Q^j numerator
    is divided by ((q;q)_J/(q;q)_j)^2 first, exactly, since that divides
    the lift of every N_a with a <= j.  The (-q)^n sign of the printed
    convention is applied only at the reporting boundary; see
    ``vertex.pt_invariants``.
    """
    ratio = z_ratio(r, m, order, cache or SCache())
    shift, nums, den = pt_fractions(ratio, z0_series(order))
    coeffs, lift = {}, [1]  # lift = ((q;q)_J/(q;q)_j)^2
    for j in range(order, -1, -1):
        if j in nums:
            num, den_j = _exquo(nums[j], lift), _exquo(den, lift)
            coeffs[j] = QRat(2 * shift, _in_t(num), _in_t(den_j))
        lift = _times_factor_squared(lift, j)
    return TruncSeries(order, coeffs)


# ---------------------------------------------------------------------------
# Products and polylogarithms as rational functions


def cyclo_product(exponents, order: int) -> TruncSeries:
    """prod over (i, j) of (1 - q^(j+i) * Q)^e(i,j), truncated at Q^order.

    Keys of ``exponents`` are pairs (i, j) with j >= 1; values are integer
    exponents.  Each factor is its binomial series (1 - xQ)^e =
    sum_k c_k x^k Q^k, c_0 = 1, c_k = -c_(k-1) (e - k + 1)/k, exact for
    either sign of e; for e >= 0 it ends at k = e.
    """
    result = TruncSeries.one(order)
    for (i, j), e in sorted(exponents.items()):
        coeffs, c = {0: 1}, 1
        for k in range(1, order + 1):
            c = c * (k - 1 - e) // k  # exact: k c_k = c_(k-1) (k - 1 - e)
            if not c:
                break
            coeffs[k] = QRat.q_power((j + i) * k) * c
        result = result * TruncSeries(order, coeffs)
    return result


def polylog_neg(n: int) -> QRat:
    """The rational function Li_{1-n}(Q) for n >= 1, variable read as Q.

    Computed by the ladder Li_{s-1}(Q) = Q * d/dQ Li_s(Q) starting from
    Li_0(Q) = Q/(1-Q).  Writing Li_{1-n} = p_n(Q)/(1-Q)^n, the ladder
    becomes p_{n+1} = Q*(p_n'*(1-Q) + n*p_n), an integer recurrence on
    the coefficients: p_{n+1}[k+1] = (k+1)*p_n[k+1] + (n-k)*p_n[k].  The
    returned QRat reads t as Q.
    """
    if n < 1:
        raise ValueError("polylog_neg requires n >= 1")
    p = [0, 1, 0]  # p_1 = Q, ascending, with one zero of headroom
    for m in range(1, n):
        p = [0] + [(k + 1) * p[k + 1] + (m - k) * p[k] for k in range(len(p) - 1)] + [0]
    den = [comb(n, k) * (-1) ** k for k in range(n, -1, -1)]
    return QRat(0, p[::-1], den)
