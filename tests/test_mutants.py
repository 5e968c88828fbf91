"""The standing mutant table of ``mutants.py`` cannot go stale silently."""

import os

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once():
    """Each row's old text occurs exactly once in its file, and each row
    changes it."""
    for name, path, old, new in MUTANTS:
        with open(os.path.join(ROOT, path)) as fh:
            assert fh.read().count(old) == 1, name
        assert new != old, name
