"""Helpers that several test modules share: a partition written by its
parts, and the QRat values of the engine's integer class series, which the
tests compare with the oracles' in Q(t)."""

from localvertex.oracles import _in_t
from localvertex.partitions import Partition
from localvertex.qrat import QRat
from localvertex.series import TruncSeries


def P(*parts):
    return Partition(parts)


def canonical(fraction):
    """The QRat value q^shift num(q)/den(q) of a (shift, num, den) triple."""
    shift, num, den = fraction
    return QRat(2 * shift, _in_t(num), _in_t(den))


def qrat_series(series, order):
    """A class series (shift, {j: num}, den) as a QRat series."""
    shift, nums, den = series
    return TruncSeries(order, {j: canonical((shift, num, den)) for j, num in nums.items()})
