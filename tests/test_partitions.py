"""Partition combinatorics: statistics, enumeration, invariants."""

import pytest

from helpers import P
from localvertex.partitions import (
    Partition,
    partitions_of,
    partitions_up_to,
)


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([2, 0])

    @pytest.mark.parametrize("bad", [2.5, "3"], ids=["float", "string"])
    def test_rejects_non_integer_part(self, bad):
        """int() would truncate 2.5 to 2 and read "3" as 3."""
        with pytest.raises(TypeError):
            Partition([bad, 1])

    def test_object_setattr_cannot_rewrite(self):
        """A partition keys the S-cache: rewriting one would move its hash.
        It has no slot and no instance dict, so neither ``object.__setattr__``
        nor a plain assignment can give it an attribute."""
        p = P(2, 1)
        before = hash(p)
        with pytest.raises(AttributeError):
            object.__setattr__(p, "parts", (5,))
        with pytest.raises(AttributeError):
            p.extra = 1
        assert hash(p) == before and p == P(2, 1)

    def test_hashable_and_equal(self):
        assert P(2, 1) == P(2, 1)
        assert hash(P(2, 1)) == hash(P(2, 1))
        assert P(2, 1) != P(3)
        assert P(2, 1) == (2, 1) and hash(P(2, 1)) == hash((2, 1))
        assert P() == ()


class TestStatistics:
    def test_size(self):
        assert P().size == 0
        assert P(2, 1).size == 3
        assert P(5, 5, 1).size == 11

    def test_kappa(self):
        assert P().kappa() == 0
        assert P(2).kappa() == 2
        assert P(2, 1).kappa() == 0

    def test_n_stat(self):
        assert P().n_stat() == 0
        assert P(2, 1).n_stat() == 1
        assert P(1, 1, 1).n_stat() == 3

    def test_hooks(self):
        assert sorted(P(1).hooks()) == [1]
        assert sorted(P(2, 1).hooks()) == [1, 1, 3]
        assert sorted(P(2).hooks()) == [1, 2]

    def test_conjugate(self):
        assert P().conjugate() == P()
        assert P(2, 1).conjugate() == P(2, 1)
        assert P(3).conjugate() == P(1, 1, 1)

    def test_kappa_even_exhaustive(self):
        for mu in partitions_up_to(12):
            assert mu.kappa() % 2 == 0

    def test_weight_is_sum_of_squared_parts(self):
        """k(mu) + |mu| + 2 n(mu) = sum_i mu_i^2, the exponent of W_mu^2: a
        box in column j >= 0 adds 2j + 1."""
        for mu in partitions_up_to(20):
            assert mu.kappa() + mu.size + 2 * mu.n_stat() == sum(p * p for p in mu), mu

    def test_kappa_conjugate_negates(self):
        for mu in partitions_up_to(10):
            assert mu.conjugate().kappa() == -mu.kappa()

    def test_conjugate_involution(self):
        for mu in partitions_up_to(10):
            assert mu.conjugate().conjugate() == mu

    def test_hooks_count_equals_size(self):
        for mu in partitions_up_to(10):
            assert len(mu.hooks()) == mu.size


class TestEnumeration:
    def test_counts_against_pentagonal(self):
        """p(0..20) against the coefficients of prod_k 1/(1 - x^k)."""
        counts = product_coefficients(20)
        for n in range(21):
            assert len(list(partitions_of(n))) == counts[n]

    def test_no_duplicates_and_correct_size(self):
        for n in range(12):
            seen = list(partitions_of(n))
            assert len(set(seen)) == len(seen)
            assert all(mu.size == n for mu in seen)

    def test_reverse_lexicographic(self):
        got = list(partitions_of(4))
        assert got == sorted(got, reverse=True)

    def test_negative_is_empty(self):
        assert list(partitions_of(-1)) == []


def product_coefficients(n):
    """The coefficients of x^0..x^n in prod_{k>=1} 1/(1 - x^k): multiply
    by each 1/(1 - x^k), k <= n, in turn (the coin-change recurrence)."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            coeffs[i] += coeffs[i - k]
    return coeffs
