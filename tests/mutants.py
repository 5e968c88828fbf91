"""A standing mutant table: one-line bugs of the engine that the suite must
catch.

Each row is (name, file, old text, new text); the old text occurs exactly
once in its file, which ``test_mutants.py`` checks in tier-1.  Run

    python tests/mutants.py

from the root of the repository.  It copies the tree the suite needs to a
temporary directory, runs the suite there once unmutated, then once per
row on a fresh copy with that row applied, each time with
``python -m pytest -x -q -p no:cacheprovider`` and without
``test_mutants.py``, and prints each row's
first failing test and time as soon as the row has run.  A mutated run
that outlasts HANG_FACTOR times the unmutated run is killed with every
process it started, and its row is caught by a hang.  It exits 1 if the
unmutated suite fails, if a row's old text is missing, or if a mutant
passes.  A change that deletes or weakens a test runs it and states that
every row still fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the suite reads: a copy of src/ alone fails test_benchmark.py, and
# one without .github the check of CI's -k terms in test_cli.py
TREE = ["src", "tests", "bench", ".github", "BENCHMARK.json", "pyproject.toml",
        "exponent_resolution.json"]
# a mutated run stops at its first failure, so it ends well inside twice
# the unmutated run unless it hangs
HANG_FACTOR = 2
HANG = "by a hang, killed at the limit"

MUTANTS = [
    ("z_ratio's framing shift r(kappa_2 - kappa_4) without the /2",
     "src/localvertex/vertex.py",
     "shift = r * (mu2.kappa() - mu4.kappa()) // 2",
     "shift = r * (mu2.kappa() - mu4.kappa())"),
    ("gwtheory._i_power returns 1",
     "src/localvertex/gwtheory.py",
     "return -1 if h % 4 else 1",
     "return 1"),
    ("_mul sizes its Kronecker digits without the min(len(f), len(g)) factor",
     "src/localvertex/qfield.py",
     "m = _digit_words(min(len(f), len(g)) * _norm(f) * _norm(g))",
     "m = _digit_words(_norm(f) * _norm(g))"),
    ("certify_column reads the palindromy at a + p - d + 1",
     "src/localvertex/rationality.py",
     "numerator.get(a + power - d, 0)",
     "numerator.get(a + power - d + 1, 0)"),
    ("certify_column's surplus 3 made 2",
     "src/localvertex/rationality.py",
     "if order < hi + 3:",
     "if order < hi + 2:"),
    ("w_dot_beta moved by +1",
     "src/localvertex/rationality.py",
     "return m * (r_surface - 2)",
     "return m * (r_surface - 2) + 1"),
    ("_divide without its remainder test",
     "src/localvertex/vertex.py",
     "if rem or n * _norm(row)",
     "if n * _norm(row)"),
    ("_divide with its remainder test only",
     "src/localvertex/vertex.py",
     "if rem or n * _norm(row) >= 1 << 64 * words - 1:",
     "if rem:"),
    ("_load without the type check of a shift",
     "src/localvertex/vertex.py",
     "type(shift) is int and ",
     ""),
    ("_load's except without RecursionError",
     "src/localvertex/vertex.py",
     "AttributeError, RecursionError)",
     "AttributeError)"),
    ("e_coeffs subtracts C_mu C_nu",
     "src/localvertex/vertex.py",
     "e[i + j] = e.get(i + j, 0) + c * d",
     "e[i + j] = e.get(i + j, 0) - c * d"),
    ("pt_invariants widens a cancelling row without its + 1",
     "src/localvertex/vertex.py",
     "width = zeros + PT_Q_TERMS + 1 if num else 2 * width",
     "width = zeros + PT_Q_TERMS if num else 2 * width"),
    ("SCache keys Z_0's table by order alone, so a widened row reads the narrow one",
     "src/localvertex/vertex.py",
     "key = order, width",
     "key = order"),
    # _write catches OSError too: the next line picks _emit's --out write
    ("_emit catches ValueError where it caught OSError",
     "src/localvertex/cli.py",
     'except OSError as err:\n            raise OutputError("cannot write --out',
     'except ValueError as err:\n            raise OutputError("cannot write --out'),
]


def run_suite(mutant=None, limit=None):
    """Copy the tree, apply ``mutant`` (a row, or None), run the suite with
    -x for at most ``limit`` seconds (None: no limit): (passed, first
    failing test, or HANG if it was killed at the limit, or None, seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in TREE:
            source, target = os.path.join(ROOT, name), os.path.join(tmp, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        if mutant is not None:
            _, path, old, new = mutant
            with open(os.path.join(tmp, path)) as fh:
                text = fh.read()
            with open(os.path.join(tmp, path), "w") as fh:
                fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        # test_mutants.py would fail on the row's own edit: the old text is gone;
        # a session of its own lets a hang be killed with the interpreters it started
        with subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore", os.path.join("tests", "test_mutants.py")],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        ) as run:
            try:
                out, _ = run.communicate(timeout=limit)
            except BaseException as error:
                # a hang, or this script interrupted: no process of the run outlives it
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                if not isinstance(error, subprocess.TimeoutExpired):
                    raise
                return False, HANG, time.perf_counter() - start
        seconds = time.perf_counter() - start
    # "FAILED <node id> - <message>"; a node id may hold spaces in its brackets
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, failed[0] if failed else None, seconds


def main():
    # each row's line shows as the row ends, also in a file or a pipe
    sys.stdout.reconfigure(line_buffering=True)
    status = 0
    passed, failed, seconds = run_suite()
    print("unmutated: %s in %.1f s" % ("passes" if passed else "FAILS, first " + str(failed), seconds))
    if not passed:
        return 1
    limit = HANG_FACTOR * seconds
    print("a mutated run is killed after %.1f s" % limit)
    for mutant in MUTANTS:
        name, path, old, _ = mutant
        with open(os.path.join(ROOT, path)) as fh:
            count = fh.read().count(old)
        if count != 1:
            print("%s: its old text occurs %d times in %s" % (name, count, path))
            status = 1
            continue
        passed, failed, seconds = run_suite(mutant, limit)
        print("%s: %s in %.1f s" % (name, "PASSES" if passed else "fails " + str(failed), seconds))
        status |= passed
    return status


if __name__ == "__main__":
    sys.exit(main())
