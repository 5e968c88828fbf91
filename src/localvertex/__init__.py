"""Exact-arithmetic topological vertex engine for local Hirzebruch surfaces.

Computes stable-pairs (PT) and Gromov-Witten generating series of
K_{F_r}, reconstructs them as exact rational functions, and certifies
their q- and Q-functional equations.
"""

from .partitions import Partition, partitions_of, partition_count
from .qfield import QFieldError
from .series import SeriesError, TruncSeries
from .vertex import SCache, VertexError, pt_invariants
from .rationality import FitError, RationalFit, fit_rational
from .gwtheory import GWTable, RealityError, gw_extract, tilde_pt0, verify_R

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "partitions_of",
    "partition_count",
    "QFieldError",
    "SeriesError",
    "TruncSeries",
    "SCache",
    "VertexError",
    "pt_invariants",
    "FitError",
    "RationalFit",
    "fit_rational",
    "GWTable",
    "RealityError",
    "gw_extract",
    "tilde_pt0",
    "verify_R",
    "__version__",
]
