"""Helpers that several test modules share: a partition written by its
parts, the QRat values of the engine's integer class series, which the
tests compare with the oracles' in Q(t), a GW genus column and the
weights at which ``certify_column`` certifies one; and the scaffolding of
the tests that watch the engine run: a fresh interpreter, the digest that
pins an output, a stand-in that must not be called, and a recorder of
calls."""

import hashlib
import json
import os
import subprocess
import sys

import localvertex
from localvertex.partitions import Partition
from localvertex.qrat import QRat
from localvertex.rationality import FitError, certify_column
from localvertex.series import TruncSeries
from oracles import _in_t

# the directory that holds the package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(localvertex.__file__)))


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
    Q^order, the {j: value} map ``rationality.column_certificate`` reads
    off ``GWTable.value`` and hands to ``certify_column``."""
    return {j: table.value(g, m, j) for j in range(order + 1)}


def certified_weights(column, order, power):
    """Every a in [-8, 8] at which ``certify_column(column, order, power, a)``
    certifies: it returns a fit and the palindromy holds.  A FitError or a
    None (no surplus beyond the window) is not a certificate."""
    weights = []
    for a in range(-8, 9):
        try:
            certified = certify_column(column, order, power, a)
        except FitError:
            continue
        if certified is not None and certified[1]:
            weights.append(a)
    return weights


def fresh_python(*args, **kwargs):
    """``python *args`` in a fresh interpreter that finds the package in
    ``SRC`` first on PYTHONPATH and writes no bytecode: the finished
    ``subprocess.run``, its stdout and stderr captured as text unless
    ``kwargs`` send them elsewhere."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


def digest(document):
    """The sha256 that pins an output, as the benchmark's does: of the
    bytes of ``document``, or of its canonical JSON (sorted keys, no
    spaces)."""
    if not isinstance(document, bytes):
        document = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(document).hexdigest()


def refuse(what):
    """A stand-in that fails the test with ``what`` if it is ever called."""

    def stub(*args, **kwargs):
        raise AssertionError(what)

    return stub


def record_calls(monkeypatch, owner, name, pick=lambda *args, **kwargs: args):
    """Patch ``owner.name`` to append ``pick`` of each call's arguments (by
    default the positional ones) to the list returned, then run the call."""
    calls = []
    original = getattr(owner, name)

    def record(*args, **kwargs):
        calls.append(pick(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls
