"""The 2-leg topological vertex engine for local Hirzebruch surfaces.

The squared S-ratio (S_{mu,nu}/S_{empty,empty})^2 and its cache, the
specialized partition function for K_{F_r}, and the extraction of
stable-pairs invariants, all over the integer kernel of ``qfield``.  The
independent routes to S_{mu,nu}, the general toric N-leg sum and the PT
series in Q(t) are oracles, in ``oracles``; this module imports neither
it nor ``qrat`` nor ``symmfun``.  The integrality certificate
``check_integrality`` is in ``rationality`` with the other certificates.

The raw quadruple vertex sum is never materialized: summing out the two
fiber legs turns the partition function into a sum over pairs
(mu2, mu4) weighted by S_{mu2,mu4}^2, which drops the complexity from
quartic to quadratic in the number of partitions.

The partition function is defined by the exponent A_{mu,nu} of
S_{mu,nu} = W_mu W_nu exp(A_{mu,nu}).  log Z_0 = 2 A_{empty,empty} is not
built here: ``gwtheory`` expands it in u once, and Z_0 comes from its exp
recurrence.  Z_m/Z_0 sums (S_{mu2,mu4}/S_{empty,empty})^2, and each of
those is a finite product,

    (S_{mu,nu}/S_{empty,empty})^2 = (W_mu W_nu)^2 prod_i (1 - q^(i+1) Q)^(-2 e_i),

whose integer exponents e_i are read off the box contents of the Young
diagrams: sum_i e_i q^i = B_mu + B_nu + (1-q)^2 B_mu B_nu with
B_mu(q) the sum over the boxes (row i >= 1, column j >= 0) of q^(j-i).
The product is expanded by the exp recurrence of its logarithm, each
Q^n coefficient one packed integer of ``qfield``, the one kernel.

Every series is held over denominators fixed in advance, as integer
q-polynomial numerators, with no QRat and no gcd.  A Q-series whose
coefficients share one shift and one denominator is a class series
(shift, {j: num}, den): its Q^j coefficient is q^shift num(q)/den(q),
and zero coefficients are left out.  (W_mu W_nu)^2 is q^w/(H_mu H_nu)^2
with the hook products H_mu = prod_hooks (1 - q^h); H_mu divides
(q;q)_|mu|, so z_ratio takes each pair over (q;q)_m^2 by an exact
cofactor and sums integer numerators into one class series.  The Q^n
coefficient of Z_0 = prod_j (1 - q^j Q)^(-2j) is N_n/(q;q)_n^2, so up to
Q^J Z_0 is a class series over (q;q)_J^2, and Z_m = Z_0 (Z_m/Z_0) is
their product over (q;q)_J^2 (q;q)_m^2 by ``_product``, the one
Q-convolution of q-numerators.  Only the oracle ``oracles.pt_series``
reduces, once per Q-coefficient.
"""

from __future__ import annotations

import json
import os
from math import comb

from .partitions import Partition, partitions_of
from .qfield import (
    _add, _digit_words, _exquo, _mul, _neg, _strip, _trailing_zeros, _unpack, expansion,
)

FORMAT_VERSION = 3
PT_Q_TERMS = 24  # pt_invariants reads PT_Q_TERMS + 1 q-slots per Q^j row


class VertexError(ArithmeticError):
    """An internal invariant (parity, integrality) failed; implementation bug."""


class CacheError(Exception):
    """A disk-cache file is unreadable or holds another key, or the cache
    directory cannot be created or written; not a maths bug.  ``path`` is
    the file to delete, or None when the directory itself is unusable."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


# ---------------------------------------------------------------------------
# The squared S-ratio


def s_ratio_squared(mu: Partition, nu: Partition, order: int) -> list:
    """(S_{mu,nu}/S_{empty,empty})^2 = (W_mu W_nu)^2 prod_i (1 - q^(i+1) Q)^(-2 e_i)
    as the list of its Q^k coefficients q^shift num(q)/(H_mu H_nu)^2,
    k <= order, each an integer pair (shift, num); num = [] is zero.

    With the integer e_i of ``e_coeffs``, X = sum_n X_n Q^n, the product,
    is exp(sum_k a_k Q^k/k) with a_k = sum_i 2 e_i q^((i+1)k): n X_n =
    sum_{k<=n} a_k X_(n-k).  X_n/q^(lo n), lo = min(i) + 1, is one integer
    at q = 2^(64 d) in the balanced digits of ``qfield._pack``, so a_k
    X_(n-k) is a shifted add per e_i, the division by n is exact, and
    ``_unpack`` reads X_n back.  The Q^n coefficient of prod_i (1 - Q)^(-2|e_i|)
    bounds every coefficient of X_n, and C(2 sum_i |e_i| + order, order) sets d.
    W_mu^2 is q^(k(mu) + |mu| + 2 n(mu))/H_mu^2, read off the diagram.
    """
    e = e_coeffs(mu, nu)
    lo = min(e, default=-1) + 1
    span = max(e, default=0) - min(e, default=0)
    words = _digit_words(comb(2 * sum(map(abs, e.values())) + order, order))
    steps = [(2 * c, 64 * words * (i + 1 - lo)) for i, c in e.items()]
    w = sum(p.kappa() + p.size + 2 * p.n_stat() for p in (mu, nu))
    packed = [1]
    out = [(w, [1])]
    for n in range(1, order + 1):
        total = 0
        for k, x in enumerate(reversed(packed), 1):
            for c, step in steps:
                total += c * x << step * k
        packed.append(total // n)
        num = _strip(_unpack(packed[n], words, span * n + 1))
        low = _trailing_zeros(num)
        out.append((lo * n + w + low, num[: len(num) - low]) if num else (0, []))
    return out


def _hook_product(mu: Partition) -> list:
    """H_mu = prod over the hook lengths h of mu of (1 - q^h)."""
    p = [1]
    for h in mu.hooks():
        p = _times_one_minus_q_power(p, h)
    return p


def _contents(mu: Partition) -> dict:
    """B_mu(q) = sum over the boxes (row i >= 1, column j >= 0) of q^(j-i)."""
    b = {}
    for i, part in enumerate(mu.parts, 1):
        for j in range(part):
            b[j - i] = b.get(j - i, 0) + 1
    return b


def e_coeffs(mu: Partition, nu: Partition) -> dict:
    """The integer e_i with sum_i e_i q^i = (p_mu(q) p_nu(q) (1-q)^2 - 1)/(1-q)^2.

    p_mu(q) = 1/(q-1) + (q-1) B_mu(q) with B_mu of ``_contents``, so
    p_mu p_nu (1-q)^2 = (1 + (1-q)^2 B_mu)(1 + (1-q)^2 B_nu) and
    e = B_mu + B_nu + (1-q)^2 B_mu B_nu, read off the Young diagrams.
    """
    b_mu, b_nu = _contents(mu), _contents(nu)
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


# ---------------------------------------------------------------------------
# Memoized (S/S_empty)^2 with optional disk persistence


class SCache:
    """In-process (and optionally on-disk) cache of s_ratio_squared lists.

    Disk format 3, the integer (shift, num) pairs; files of formats 1 and 2
    (S and QRat series) are never read.  Entries computed at a larger
    truncation order serve smaller orders by truncation.  The ratio is
    symmetric in (mu, nu), so entries are keyed by the pair sorted by
    parts: (mu, nu) and (nu, mu) share one build and one file.  Disk
    entries are one JSON document per sorted pair under a
    content-addressed filename; concurrent writers of the same key
    produce identical content, so writes are idempotent.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._mem = {}
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as err:
                raise self._unusable(err)

    def _path(self, mu, nu):
        # hashlib loads only where a disk cache is named
        import hashlib

        key = "%d:%s:%s" % (FORMAT_VERSION, list(mu.parts), list(nu.parts))
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return os.path.join(self.directory, "s_%s.json" % digest)

    def get(self, mu: Partition, nu: Partition, order: int) -> list:
        if nu.parts < mu.parts:
            mu, nu = nu, mu
        held = self._mem.get((mu, nu))
        if held is not None and len(held) > order:
            return held[: order + 1]
        if self.directory:
            path = self._path(mu, nu)
            if os.path.exists(path):
                coeffs = self._load(path, mu, nu)
                if coeffs is not None and len(coeffs) > order:
                    self._mem[(mu, nu)] = coeffs
                    return coeffs[: order + 1]
        coeffs = s_ratio_squared(mu, nu, order)
        self._mem[(mu, nu)] = coeffs
        if self.directory:
            self._store(mu, nu, coeffs)
        return coeffs

    def _load(self, path, mu, nu):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if doc.get("version") != FORMAT_VERSION:
                return None
            if doc.get("mu") != list(mu.parts) or doc.get("nu") != list(nu.parts):
                raise CacheError("cache key collision in %s" % path, path)
            coeffs = [(shift, num) for shift, num in doc["coeffs"]]
            # JSON integers only: int() would take 7.9, true or "3" as well
            if not all(
                type(shift) is int and type(num) is list and {*map(type, num)} <= {int}
                for shift, num in coeffs
            ):
                raise ValueError
            return coeffs
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            raise CacheError("corrupt cache file: %s" % path, path)

    def _store(self, mu, nu, coeffs):
        doc = {"version": FORMAT_VERSION, "mu": list(mu.parts), "nu": list(nu.parts)}
        doc["coeffs"] = coeffs
        path = self._path(mu, nu)
        tmp = path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except OSError as err:
            raise self._unusable(err)

    def _unusable(self, err):
        return CacheError(
            "cannot write cache directory %s: %s; name another or run without --cache-dir"
            % (self.directory, err.strerror or err)
        )


# ---------------------------------------------------------------------------
# Partition functions


def z_ratios(r: int, m_max: int, order: int, cache: SCache = None) -> dict:
    """The quotients [Q_c^m] Z / Z_0 of K_{F_r} for 0 <= m <= m_max, each
    the class series of ``z_ratio``.  Each m is assembled once.  Without
    ``cache`` the call builds its S-series in a fresh SCache.
    """
    cache = cache or SCache()
    return {m: z_ratio(r, m, order, cache) for m in range(m_max + 1)}


def z_ratio(r: int, m: int, order: int, cache: SCache) -> tuple:
    """[Q_c^m] Z / Z_0 = (-1)^(rm) sum over |mu2|+|mu4|=m of
    q^(r(k(mu2)-k(mu4))/2) Q^(r|mu2|) (S_{mu2,mu4}/S_{empty,empty})^2,
    up to Q^order, as the class series (shift, {j: num}, (q;q)_m^2).

    Each term is taken over (q;q)_m^2 by the cofactor
    (q;q)_m^2/(H_mu2 H_mu4)^2, an exact division (q-binomials are
    polynomials); a cofactor that does not divide, or an odd t-power
    t^(r(k(mu2)-k(mu4))), is a hard error.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    dm = _qq_squared(m)
    terms = []
    for a in range(m + 1):
        for mu2 in partitions_of(a):
            for mu4 in partitions_of(m - a):
                shift, odd = divmod(r * (mu2.kappa() - mu4.kappa()), 2)
                if odd:
                    raise VertexError("odd t-power in [Q_c^%d]Z/Z_0 (r=%d)" % (m, r))
                h = _mul(_hook_product(mu2), _hook_product(mu4))
                cofactor = _exquo(dm, _mul(h, h))
                if cofactor is None:
                    raise VertexError("(H_mu2 H_mu4)^2 does not divide (q;q)_%d^2" % m)
                coeffs = cache.get(mu2, mu4, order)[: max(order + 1 - r * a, 0)]
                for k, (s, num) in enumerate(coeffs, r * a):
                    if num:
                        terms.append((k, s + shift, _mul(num, cofactor)))
    low, nums = _aligned(terms)
    if (r * m) % 2:
        nums = {j: _neg(num) for j, num in nums.items()}
    return low, nums, dm


def _aligned(terms) -> tuple:
    """The sum of terms (j, shift, num), each q^shift num(q) Q^j, as
    (low, {j: num}) over one shift, zero coefficients left out."""
    low = min((s for _, s, _ in terms), default=0)
    sums = {}
    for j, s, num in terms:
        sums[j] = _add(sums.get(j, []), num + [0] * (s - low))
    return low, {j: num for j, num in sorted(sums.items()) if num}


def _product(a, b, order: int) -> tuple:
    """The Q-product of the class series a and b up to Q^order, as
    (shift, {j: num}) over the product of their denominators, zero
    coefficients left out: the one Q-convolution of q-numerators."""
    sums = {}
    for j1, n1 in a[1].items():
        for j2, n2 in b[1].items():
            if j1 + j2 <= order:
                sums[j1 + j2] = _add(sums.get(j1 + j2, []), _mul(n1, n2))
    return a[0] + b[0], {j: num for j, num in sorted(sums.items()) if num}


# ---------------------------------------------------------------------------
# Z_m = Z_0 * (Z_m/Z_0) over the known denominator (q;q)_J^2 (q;q)_m^2.
# q-polynomials are integer lists, highest first, as in qfield.


def _times_one_minus_q_power(p, k):
    """p(q) (1 - q^k) for k >= 1."""
    out = _neg(p) + [0] * k
    for i, c in enumerate(p, k):
        out[i] += c
    return out


def _times_factor_squared(p, k):
    """p(q) (1 - q^k)^2 for k >= 1."""
    return _times_one_minus_q_power(_times_one_minus_q_power(p, k), k)


def _qq_squared(n):
    """(q;q)_n^2 = prod_{l=1..n} (1 - q^l)^2."""
    p = [1]
    for l in range(1, n + 1):
        p = _times_factor_squared(p, l)
    return p


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


def pt_invariants(series: tuple) -> list:
    """Individual integers PT_{mc+jb, n} of Z_m, the class series of
    ``pt_fractions``: each Q^j row covers PT_Q_TERMS + 1 slots n from the
    valuation of its coefficient, so for r = 0, m = 6 and Q-order 3 it has
    n = 6..30 at j = 0, and for r = 7, m = 4, n = -26..-2.

    Returns a list of (j, n, value) triples; n is the Euler characteristic
    slot and the value carries the (-q)^n sign convention.  An integer
    numerator over a denominator with constant term 1 expands with
    integer coefficients.
    """
    rows = []
    shift, nums, den = series
    for j, num in nums.items():
        lowest, coeffs = expansion(shift, num, den, PT_Q_TERMS + 1)
        for n, c in enumerate(coeffs, lowest):
            if c:
                rows.append((j, n, c if n % 2 == 0 else -c))
    return rows
