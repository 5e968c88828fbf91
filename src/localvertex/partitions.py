"""Integer partitions and their combinatorial statistics.

Partitions index every sum in the vertex engine.  A partition is a
validated tuple: immutable, and equal to (and hashing like) the plain
tuple of its parts, so it is safe to use as a cache key.
"""

from operator import index


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        # index(), not int(): a float or a string part is refused, not truncated
        parts = tuple(map(index, parts))
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("partition parts must be positive: %r" % (parts,))
            if i > 0 and parts[i - 1] < p:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        """Total number of boxes, |mu|."""
        return sum(self)

    def kappa(self) -> int:
        """The framing statistic sum_i mu_i*(mu_i - 2i + 1); always even."""
        return sum(p * (p - 2 * i - 1) for i, p in enumerate(self))

    def n_stat(self) -> int:
        """The weighted statistic sum_i (i-1)*mu_i (1-based i)."""
        return sum(i * p for i, p in enumerate(self))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def hooks(self) -> list:
        """Hook lengths of all boxes, as a list of length |mu|."""
        conj = self.conjugate()
        out = []
        for i, p in enumerate(self):
            for j in range(p):
                arm = p - j - 1
                leg = conj[j] - i - 1
                out.append(arm + leg + 1)
        return out


def partitions_of(n: int):
    """Yield all partitions of n in reverse-lexicographic order.

    The order is deterministic: larger first parts come first, so the
    output is stable across runs and usable in cache keys.
    """
    if n < 0:
        return
    yield from (Partition(p) for p in _parts_rec(n, n))


def _parts_rec(n, bound):
    if n == 0:
        yield ()
        return
    for first in range(min(n, bound), 0, -1):
        for rest in _parts_rec(n - first, first):
            yield (first,) + rest


def partitions_up_to(n: int):
    """All partitions of 0, 1, ..., n, each block in reverse-lex order."""
    for m in range(n + 1):
        yield from partitions_of(m)

