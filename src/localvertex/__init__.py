"""Exact-arithmetic topological vertex engine for local Hirzebruch surfaces.

Computes stable-pairs (PT) and Gromov-Witten generating series of
K_{F_r} and certifies them as exact rational functions.  The package root
is a namespace that loads no stage: import the stage you run.  A ``pt``
run loads ``cli``, ``vertex``, ``qfield`` and ``partitions``; ``gw`` adds
``gwtheory``; ``fit`` adds the certificates, ``rationality``; ``verify``
adds ``series`` too, for the exceptional series of ``tilde_pt0``.
``qrat`` and ``symmfun`` serve the test suite only, and its oracles
(``tests/oracles.py``) are not part of the package.
"""

__version__ = "0.1.0"
