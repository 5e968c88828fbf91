"""Helpers that several test modules share: a partition written by its
parts, the QRat values of the engine's integer class series, which the
tests compare with the oracles' in Q(t), and a GW genus column as a
truncated series."""

from localvertex.partitions import Partition
from localvertex.qrat import QRat
from localvertex.series import TruncSeries
from oracles import _in_t


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


def gw_column(table, g, m, order):
    """The GW column sum_j GW_{g, m*c + j*b} Q^j of ``table`` through
    Q^order, as ``rationality.column_certificate`` reads it off
    ``GWTable.value``; ``certify_column`` takes its ``coeffs`` and
    ``order``, and the exponent search of the tests the series."""
    return TruncSeries(order, {j: table.value(g, m, j) for j in range(order + 1)})
