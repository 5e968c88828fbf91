"""Genus 0 against an oracle from outside the vertex: the mirror's periods."""

import pytest

from localvertex.gwtheory import gw_extract
from mirror_periods import instanton_parts

DEGREE = 7

# the coefficient of q_b^d_b q_c^d_c in I_ab over GW_(0, d_c c + d_b b)
FORMS = {
    0: {"bb": lambda d_b, d_c: -4 * d_c, "bc": lambda d_b, d_c: -2 * (d_b + d_c),
        "cc": lambda d_b, d_c: -4 * d_b},
    1: {"bb": lambda d_b, d_c: -4 * d_c, "bc": lambda d_b, d_c: d_c - 2 * d_b,
        "cc": lambda d_b, d_c: 2 * d_c - 2 * d_b},
}


@pytest.mark.parametrize("r", [0, 1])
def test_genus_zero_from_mirror_periods(r, scache):
    """I_bb, I_bc and I_cc of the GKZ periods of F_r are their linear forms
    times the engine's GW_(0, class), at every class of total degree <= 7."""
    table = gw_extract(r, DEGREE, DEGREE, 0, cache=scache)
    parts = instanton_parts(r, DEGREE)
    classes = [(d_b, d_c) for d_b in range(DEGREE + 1) for d_c in range(DEGREE + 1 - d_b)]
    classes.remove((0, 0))
    assert len(classes) == 35
    for name, form in FORMS[r].items():
        missed = [
            (d_b, d_c) for d_b, d_c in classes
            if parts[name].get((d_b, d_c), 0) != form(d_b, d_c) * table.value(0, d_c, d_b)
        ]
        assert missed == [], (name, missed)
