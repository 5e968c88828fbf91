"""The 2-leg topological vertex engine for local Hirzebruch surfaces.

The squared S-ratio (S_{mu,nu}/S_{empty,empty})^2 and its cache, the
partition function of K_{F_r} and its PT invariants, all over the integer
kernel of ``qfield``.  The oracles (other routes to S_{mu,nu}, the toric
sum, Z_0 and Z_m whole, the PT series in Q(t)) sit beside the tests, in
``tests/oracles.py``; this module imports neither ``qrat`` nor ``symmfun``.
``rationality.check_integrality`` certifies the rows of ``pt_invariants``.

Summing out the two fiber legs turns the partition function into a sum
over pairs (mu2, mu4) weighted by S_{mu2,mu4}^2, quadratic instead of
quartic in the number of partitions.  log Z_0 = 2 A_{empty,empty}, from
S_{mu,nu} = W_mu W_nu exp(A_{mu,nu}), is expanded in u once, in
``gwtheory``; Z_m/Z_0 sums the finite products of ``s_ratio_squared``,
each expanded by the exp recurrence of its logarithm on packed integers
whose digits ``_exp_rows`` sizes from the exponents e_i alone.

Every series is held over denominators fixed in advance, as integer
q-numerators, highest first as in ``qfield``, with no gcd.  A class series
(shift, {j: num}, den) has Q^j coefficient q^shift num(q)/den(q), zero
coefficients left out; ``_aligned`` sums q-numerators by Q-degree.
(W_mu W_nu)^2 = q^w/(H_mu H_nu)^2, H_mu = prod_hooks (1 - q^h) divides
(q;q)_|mu|, so each S-entry is held over (q;q)_m^2.  PT numbers are
read in a window of PT_Q_TERMS + 1 q-coefficients per Q^j row, and
``pt_invariants`` builds Z_m = Z_0 (Z_m/Z_0) in those windows only: Z_0,
the strip product at e_i = i + 1, by the recurrence of the S-ratios, its
rows as built and held in the run's ``SCache`` beside the S-entries, and
each row of Z_m by convolving them with z_ratio's numerators.  The module
keeps no state: every table of a run lives in the cache it passes.
"""

import json
import os
from functools import reduce
from math import comb

from .partitions import Partition, partitions_of
from .qfield import (
    _add, _digit_words, _exquo, _half_digits, _mul, _neg, _norm, _strip, _trailing_zeros,
    _unpack, expansion,
)

FORMAT_VERSION = 4
PT_Q_TERMS = 24  # pt_invariants reads PT_Q_TERMS + 1 q-slots per Q^j row of Z_m


class VertexError(ArithmeticError):
    """An internal invariant (an exact division, or realness: no value of
    ``gwtheory`` on an odd u-power) failed; implementation bug."""


class CacheError(Exception):
    """A disk-cache file is unreadable or holds another pair, or the cache
    directory cannot be created or written; not a maths bug.  The message
    ends with its remedy: the file to delete, or another directory."""


# ---------------------------------------------------------------------------
# The squared S-ratio


def s_ratio_squared(mu: Partition, nu: Partition, order: int) -> list:
    """(S_{mu,nu}/S_{empty,empty})^2 = (W_mu W_nu)^2 prod_i (1 - q^(i+1) Q)^(-2 e_i)
    as the list of its Q^k coefficients q^shift num(q)/(q;q)_m^2, m = |mu| + |nu|,
    k <= order, each an integer pair (shift, num); num = [] is zero.

    Each row X_n/q^(lo n) of ``_exp_rows``, e_i from ``e_coeffs``, has degree
    span n at most, span = max(i) - min(i), so span order + 1 coefficients
    hold it.  W_mu^2 is q^(sum_i mu_i^2)/H_mu^2, H_mu = prod_hooks (1 - q^h):
    k(mu) + |mu| + 2 n(mu) = sum_i mu_i^2, as a box in column j >= 0 adds
    2j + 1.  Each X_n times the cofactor ((q;q)_m/(H_mu H_nu))^2, divided at
    half degree once per build and squared, is over (q;q)_m^2; a remainder
    raises VertexError.
    """
    m = mu.size + nu.size
    cofactor = _exquo(_qq(m), reduce(_times_one_minus_q_power, mu.hooks() + nu.hooks(), [1]))
    if cofactor is None:
        raise VertexError("H_mu H_nu does not divide (q;q)_%d" % m)
    cofactor = _mul(cofactor, cofactor)
    e = e_coeffs(mu, nu)
    lo = min(e, default=-1) + 1
    span = max(e, default=0) - min(e, default=0)
    w = sum(part * part for p in (mu, nu) for part in p)
    out = [(w, cofactor)]
    for n, row in enumerate(_exp_rows(e, order, span * order + 1)[1:], 1):
        num = _strip(row[span * (order - n) :])
        low = _trailing_zeros(num)
        out.append((lo * n + w + low, _mul(num[: len(num) - low], cofactor)) if num else (0, []))
    return out


def _exp_rows(e: dict, order: int, width: int) -> list:
    """The rows R_n = X_n/q^(lo n), n <= order, lo = min(i) + 1, of the strip
    product X = prod_i (1 - q^(i+1) Q)^(-2 e_i) = sum_n X_n Q^n: the ``width``
    lowest q-coefficients of each, highest first.  X = exp(sum_k a_k Q^k/k),
    a_k = sum_i 2 e_i q^((i+1)k), so n R_n = sum_i 2 e_i T_i(n), T_i(n) =
    sum_{k<=n} q^(d_i k) R_(n-k) = q^(d_i) (R_(n-1) + T_i(n-1)), d_i = i + 1
    - lo.  At q = 2^(64 d) each is one integer: a step is a shifted add per
    e_i, each T_i is masked below q^width, and ``_divide`` reads R_n off n
    R_n.  prod_i (1 - Q)^(-2|e_i|) majorizes X for e of any sign, so d words
    per balanced digit of ``qfield._pack`` hold order C(2 sum|e_i| + order,
    order), which bounds n R_n."""
    words = _digit_words(order * comb(2 * sum(map(abs, e.values())) + order, order))
    bits, mask = 64 * words, (1 << 64 * words * width) - 1
    base = min(e, default=0)
    terms = [(2 * c, bits * (i - base)) for i, c in e.items()]
    sums, x, rows = [0] * len(terms), 1, [_unpack(1, words, width)]
    for n in range(1, order + 1):
        total = 0
        for j, (c, shift) in enumerate(terms):
            sums[j] = (x + sums[j]) << shift & mask
            total += c * sums[j]
        x, row = _divide(total, n, words, width)
        rows.append(row)
    return rows


def _divide(total: int, n: int, words: int, width: int) -> tuple:
    """R = total/n for total = n R below q^width, q = 2^(64 words): the integer
    and its ``width`` balanced digits, highest first, kept by a mask on the
    offset digits.  These are unique, so n divides every digit of n R just
    when n divides the integer and n times every digit of R is a digit (2^64
    = 1 mod 3 hides digits from the remainder); else VertexError."""
    half = _half_digits(width, words)
    x, rem = divmod(((total + half) & (1 << 64 * words * width) - 1) - half, n)
    row = _unpack(x, words, width)
    if rem or n * _norm(row) >= 1 << 64 * words - 1:
        raise VertexError("n X_n is not divisible by n = %d" % n)
    return x, row


def e_coeffs(mu: Partition, nu: Partition) -> dict:
    """The integer e_i with sum_i e_i q^i = (p_mu(q) p_nu(q) (1-q)^2 - 1)/(1-q)^2.

    p_mu(q) = 1/(q-1) + (q-1) B_mu(q), B_mu = sum of q^(j-i) over the boxes
    (row i >= 1, column j >= 0), so p_mu p_nu (1-q)^2 = (1 + (1-q) C_mu)(1 +
    (1-q) C_nu) with C_mu = (1-q) B_mu = sum_i (q^(-i) - q^(mu_i - i)), 2 l(mu)
    terms, and e = B_mu + B_nu + C_mu C_nu: one walk over the boxes and one
    product of two short lists.
    """
    e = {}
    for p in (mu, nu):
        for i, part in enumerate(p, 1):
            for j in range(-i, part - i):
                e[j] = e.get(j, 0) + 1
    c_mu, c_nu = (
        [(k, c) for i, part in enumerate(p, 1) for k, c in ((-i, 1), (part - i, -1))]
        for p in (mu, nu)
    )
    for i, c in c_mu:
        for j, d in c_nu:
            e[i + j] = e.get(i + j, 0) + c * d
    return {i: c for i, c in sorted(e.items()) if c}


# ---------------------------------------------------------------------------
# Memoized (S/S_empty)^2 with optional disk persistence


class SCache:
    """In-process (and optionally on-disk) cache of s_ratio_squared lists.

    Disk format 4, the integer (shift, num) pairs over (q;q)_m^2; a file of
    formats 1-3 (S, QRat, then numerators over (H_mu H_nu)^2) is rebuilt,
    never read.  A lookup takes the held entry, else the disk file, else a
    build, which is stored; one of a larger truncation order serves smaller
    orders by truncation, and a shorter one is replaced.  The ratio is
    symmetric in (mu, nu), so entries are keyed by the pair sorted by parts:
    (mu, nu) and (nu, mu) share one build, one cofactor and one file.  Disk
    entries are one JSON document per sorted pair, in a file named for it;
    concurrent writers of one pair write the same bytes: writes are idempotent.
    Beside the S-entries it holds Z_0's q-windows, which ``pt_invariants``
    reads, keyed by (order, width) and never written to disk.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._mem = {}
        self._z0 = {}
        if directory is not None:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as err:
                raise self._unusable(err)

    def _path(self, mu, nu):
        # "_" joins the parts, "-" the two partitions: (1), (2, 1) in s_1-2_1.json
        name = "-".join("_".join(map(str, p)) for p in (mu, nu))
        return os.path.join(self.directory, "s_%s.json" % name)

    def get(self, mu: Partition, nu: Partition, order: int) -> list:
        if nu < mu:
            mu, nu = nu, mu
        coeffs = self._mem.get((mu, nu), ())
        if len(coeffs) <= order:
            coeffs = self._load(mu, nu) or ()
            if len(coeffs) <= order:
                coeffs = s_ratio_squared(mu, nu, order)
                if self.directory is not None:
                    self._store(mu, nu, coeffs)
            self._mem[(mu, nu)] = coeffs
        return coeffs[: order + 1]

    def _z0_table(self, order: int, width: int) -> list:
        """The ``width`` lowest coefficients of Y_n = q^(-n) [Q^n] Z_0, n <=
        order, highest first, as ``_exp_rows`` builds and sizes them: Z_0 =
        prod_j (1 - q^j Q)^(-2j) is its strip product at e_i = i + 1, no i >=
        width reaching the window.  Built once per (order, width)."""
        key = order, width
        if key not in self._z0:
            self._z0[key] = _exp_rows({i: i + 1 for i in range(width)}, order, width)
        return self._z0[key]

    def _load(self, mu, nu):
        """The disk entry, or None: no directory, no file, or another format."""
        if self.directory is None:
            return None
        path = self._path(mu, nu)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if doc.get("version") != FORMAT_VERSION:
                return None
            coeffs = [(shift, num) for shift, num in doc["coeffs"]]
            # the named pair, and JSON integers only (int() would take 7.9, true or "3")
            if (doc["mu"], doc["nu"]) != (list(mu), list(nu)) or not all(
                type(shift) is int and type(num) is list and {*map(type, num)} <= {int}
                for shift, num in coeffs
            ):
                raise ValueError
            return coeffs
        except (FileNotFoundError, NotADirectoryError):
            return None  # none was stored, or another process removed it since
        except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
            raise self._corrupt(path)

    def _store(self, mu, nu, coeffs):
        """Write the entry to a temp file renamed into place; a failed write
        or rename removes the temp file if it can and raises CacheError."""
        doc = {"version": FORMAT_VERSION, "mu": list(mu), "nu": list(nu)}
        doc["coeffs"] = coeffs
        path = self._path(mu, nu)
        tmp = path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except OSError as err:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise self._unusable(err)

    def _corrupt(self, path):
        return CacheError("corrupt cache file: %s\ndelete %s or run without --cache-dir"
                          % (path, path))

    def _unusable(self, err):
        return CacheError(
            "cannot write cache directory %r: %s; name another or run without --cache-dir"
            % (self.directory, err.strerror or err)
        )


# ---------------------------------------------------------------------------
# Partition functions


def z_ratio(r: int, m: int, order: int, cache: SCache) -> tuple:
    """[Q_c^m] Z / Z_0 = (-1)^(rm) sum over |mu2|+|mu4|=m of
    q^(r(k(mu2)-k(mu4))/2) Q^(r|mu2|) (S_{mu2,mu4}/S_{empty,empty})^2,
    up to Q^order, as the class series (shift, {j: num}, (q;q)_m^2).

    Each S-entry is over (q;q)_m^2 already, so a pair is a framing shift
    and a sum that reads its cached lists and never changes them.  A pair
    whose Q^(r|mu2|) is past Q^order is not fetched; m = 0, Z_0/Z_0 = 1, none.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not m:
        return 0, {0: [1]}, [1]
    terms = []
    for a in range(m + 1):
        if r * a > order:
            break
        for mu2 in partitions_of(a):
            for mu4 in partitions_of(m - a):
                shift = r * (mu2.kappa() - mu4.kappa()) // 2
                coeffs = cache.get(mu2, mu4, order)[: order + 1 - r * a]
                for k, (s, num) in enumerate(coeffs, r * a):
                    if num:
                        terms.append((k, s + shift, num))
    low, nums = _aligned(terms)
    if (r * m) % 2:
        nums = {j: _neg(num) for j, num in nums.items()}
    return low, nums, _qq_squared(m)


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
    (shift, {j: num}) over the product of their denominators: the pairwise
    products of q-numerators, summed by ``_aligned``."""
    return _aligned([
        (j1 + j2, a[0] + b[0], _mul(n1, n2))
        for j1, n1 in a[1].items() for j2, n2 in b[1].items() if j1 + j2 <= order
    ])


# ---------------------------------------------------------------------------
# Z_m = Z_0 * (Z_m/Z_0) in the q-window of each Q^j row.
# q-polynomials are integer lists, highest first, as in qfield.


def _times_one_minus_q_power(p, k):
    """p(q) (1 - q^k) for k >= 1."""
    out = _neg(p) + [0] * k
    for i, c in enumerate(p, k):
        out[i] += c
    return out


def _qq(n):
    """(q;q)_n = prod_{l=1..n} (1 - q^l)."""
    return reduce(_times_one_minus_q_power, range(1, n + 1), [1])


def _qq_squared(n):
    """(q;q)_n^2: (q;q)_n times each (1 - q^l) once more, with no product."""
    return reduce(_times_one_minus_q_power, range(1, n + 1), _qq(n))


def pt_invariants(ratio: tuple, order: int, cache: SCache = None) -> list:
    """Individual integers PT_{mc+jb, n} of Z_m = Z_0 * ratio as (j, n,
    value) rows, ratio the class series z_ratio(r, m, order, ...) and
    ``order`` its Q-order.  n is the Euler characteristic slot and the
    value, an integer as den(0) = 1, carries the (-q)^n sign.  Each Q^j
    row covers PT_Q_TERMS + 1 slots n from its valuation, so for r = 0,
    m = 6 and Q-order 3 it has n = 6..30 at j = 0, and for r = 7, m = 4,
    n = -26..-2.  Z_0's windows are read from ``cache``; without it the
    call builds in a fresh ``SCache``.

    Each term q^a Y_a num_b of row j = a + b, Y_a from Z_0's windows,
    starts at its own valuation, the row at the lowest; windows and
    numerators are highest first, so a term's lowest n digits are its last
    n.  A row whose low terms cancel widens its window, and Z_0's, until
    PT_Q_TERMS + 1 terms from its true valuation are exact.  As (q;q)_a^2
    q^a Y_a has degree a^2 at most, row j times (q;q)_j^2 has degree
    j(j+1) + max deg num_b at most: a zero window past it is a zero row.
    """
    shift, nums, dm = ratio
    full, rows = max(map(len, nums.values()), default=0), []
    cut = {}  # b: (valuation of num_b, num_b without its trailing zeros)
    for b, num in nums.items():
        zeros = _trailing_zeros(num)
        cut[b] = zeros, num[: len(num) - zeros]
    cache = cache or SCache()
    for j in range(order + 1):
        terms = [(a, a + cut[j - a][0], cut[j - a][1]) for a in range(j + 1) if j - a in cut]
        low = min((v for _, v, _ in terms), default=0)
        width = PT_Q_TERMS + 1
        while terms:
            z0 = cache._z0_table(order, width)
            total = []  # sum_a q^(a - low) Y_a num_b, highest first
            for a, v, num in terms:
                n = width - (v - low)
                if n > 0:
                    total = _add(total, _mul(z0[a][-n:], num[-n:]) + [0] * (width - n))
            num = _strip(total[-width:])
            zeros = _trailing_zeros(num)
            if num and zeros + PT_Q_TERMS < width:
                lowest, coeffs = expansion(shift + low, num, dm, PT_Q_TERMS + 1)
                for n, c in enumerate(coeffs, lowest):
                    if c:
                        rows.append((j, n, c if n % 2 == 0 else -c))
            elif num or low + width < j * (j + 1) + full:
                width = zeros + PT_Q_TERMS + 1 if num else 2 * width
                continue
            break
    return rows
