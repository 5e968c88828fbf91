"""Exact-arithmetic topological vertex engine for local Hirzebruch surfaces.

Computes stable-pairs (PT) and Gromov-Witten generating series of
K_{F_r}.  The certificates, which reconstruct them as exact rational
functions and check their q- and Q-functional equations, are in
``localvertex.rationality``; importing the package does not load it.
"""

from .partitions import Partition, partitions_of
from .series import SeriesError, TruncSeries
from .vertex import SCache, VertexError, pt_invariants
from .gwtheory import GWTable, gw_extract, tilde_pt0

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "partitions_of",
    "SeriesError",
    "TruncSeries",
    "SCache",
    "VertexError",
    "pt_invariants",
    "GWTable",
    "gw_extract",
    "tilde_pt0",
    "__version__",
]
