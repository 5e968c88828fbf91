"""Shared fixtures.

The vertex S-series and the GW tables dominate the suite's runtime, so
they are computed once per session and shared; everything downstream is
pure, so sharing is safe.
"""

import pytest

from localvertex import gwtheory as gw
from localvertex import vertex as vx


@pytest.fixture(scope="session")
def scache():
    """One in-memory S-series cache for the whole run."""
    return vx.SCache()


@pytest.fixture(scope="session")
def gw_table_r0(scache):
    """GW invariants of K_{P1xP1}, classes mc+jb with m <= 1, j <= 13, g <= 3."""
    return gw.gw_extract(0, 1, 13, 3, cache=scache)


@pytest.fixture(scope="session")
def gw_table_r1(scache):
    """GW invariants of K_{F_1}, classes mc+jb with m <= 1, j <= 13, g <= 3."""
    return gw.gw_extract(1, 1, 13, 3, cache=scache)


@pytest.fixture(scope="session")
def tilde_series(scache):
    """The modified exceptional series at Q-order 12, u-order 6."""
    return gw.tilde_pt0(12, 6, cache=scache)


@pytest.fixture
def fresh_z0():
    """No held Z_0 table before or after the test: a planted build runs,
    and no table it leaves reaches a later test."""
    vx.z0_windows.cache_clear()
    yield
    vx.z0_windows.cache_clear()
