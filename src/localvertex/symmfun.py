"""Specialized symmetric functions for the 2-leg vertex.

Principal Schur specializations s_mu(1, q, q^2, ...), power sums at the
shifted points (q^(mu_1-1), q^(mu_2-2), ...), and the W functions built
from them.  Everything returns an exact QRat; the heavy entries (the
two-partition W values) are memoized because they dominate the vertex
sums.  Only the tests and their oracles (``tests/oracles.py``) use this
module, so no CLI task fills its memo tables: the engine reads the same
quantities off the Young diagrams.
"""

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition
from .qrat import QRat


@lru_cache(maxsize=None)
def h_principal(k: int) -> QRat:
    """h_k(1, q, q^2, ...) = prod_{j=1..k} 1/(1-q^j); zero for k < 0."""
    if k < 0:
        return QRat.zero()
    if k == 0:
        return QRat.one()
    return h_principal(k - 1) / (QRat.one() - QRat.q_power(k))


def schur_principal(mu: Partition) -> QRat:
    """Hook-content form of s_mu(1, q, q^2, ...)."""
    value = QRat.q_power(mu.n_stat())
    for h in mu.hooks():
        value = value / (QRat.one() - QRat.q_power(h))
    return value


def schur_principal_jt(mu: Partition) -> QRat:
    """Jacobi-Trudi determinant det(h_{mu_i - i + j}); oracle for the above."""
    n = len(mu)
    matrix = [
        [h_principal(mu[i] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)
    ]
    return det(matrix)


@lru_cache(maxsize=None)
def p_shifted(mu: Partition, k: int) -> QRat:
    """p_mu(q^k) = sum_i q^(k(mu_i - i)) via the closed form.

    The infinite tail sum_{i > l(mu)} q^(-ki) is the geometric series
    q^(-k l(mu)) / (q^k - 1).
    """
    if k < 1:
        raise ValueError("p_shifted requires k >= 1")
    qk = QRat.q_power(k)
    tail = QRat.q_power(-k * len(mu)) / (qk - QRat.one())
    for i, part in enumerate(mu):
        tail = tail + QRat.q_power(k * (part - (i + 1)))
    return tail


@lru_cache(maxsize=None)
def h_shifted(mu: Partition, k: int) -> QRat:
    """h_k at the point (q^(mu_1-1), q^(mu_2-2), ...), by Newton's identities.

    k*h_k = sum_{j=1..k} p_j * h_{k-j}, solved triangularly with exact
    division by k in Q.
    """
    if k < 0:
        return QRat.zero()
    if k == 0:
        return QRat.one()
    acc = QRat.zero()
    for j in range(1, k + 1):
        acc = acc + p_shifted(mu, j) * h_shifted(mu, k - j)
    return acc * Fraction(1, k)


def schur_shifted(nu: Partition, mu: Partition) -> QRat:
    """s_nu(q^(mu_1-1), q^(mu_2-2), ...) as a Jacobi-Trudi determinant."""
    n = len(nu)
    matrix = [
        [h_shifted(mu, nu[i] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)
    ]
    return det(matrix)


@lru_cache(maxsize=None)
def w_one(mu: Partition) -> QRat:
    """W_mu(q) = (-1)^|mu| q^(k(mu)/2 + |mu|/2) s_mu(1, q, q^2, ...)."""
    sign = -1 if mu.size % 2 else 1
    return sign * QRat.t_power(mu.kappa() + mu.size) * schur_principal(mu)


@lru_cache(maxsize=None)
def w_two(mu: Partition, nu: Partition) -> QRat:
    """W_{mu,nu}(q) = q^(|nu|/2) W_mu(q) s_nu(q^(mu_1-1), q^(mu_2-2), ...).

    Symmetric in (mu, nu) although the definition is not.
    """
    return QRat.t_power(nu.size) * w_one(mu) * schur_shifted(nu, mu)


def det(matrix) -> QRat:
    """Determinant of a square QRat matrix by fraction elimination."""
    n = len(matrix)
    if n == 0:
        return QRat.one()
    m = [row[:] for row in matrix]
    sign = 1
    result = QRat.one()
    for col in range(n):
        pivot_row = None
        for row in range(col, n):
            if not m[row][col].is_zero():
                pivot_row = row
                break
        if pivot_row is None:
            return QRat.zero()
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        result = result * pivot
        for row in range(col + 1, n):
            factor = m[row][col] / pivot
            if factor.is_zero():
                continue
            for j in range(col + 1, n):
                m[row][j] = m[row][j] - factor * m[col][j]
    return result if sign > 0 else -result
