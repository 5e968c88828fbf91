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
first failing test and time.  It exits 1 if the unmutated suite fails, if
a row's old text is missing, or if a mutant passes.  A change that deletes
or weakens a test runs it and states that every row still fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the suite reads: a copy of src/ alone fails test_benchmark_import_path
TREE = ["src", "tests", "bench", "pyproject.toml", "exponent_resolution.json"]

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
]


def run_suite(mutant=None):
    """Copy the tree, apply ``mutant`` (a row, or None), run the suite with
    -x: (passed, first failing test or None, seconds)."""
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
        # test_mutants.py would fail on the row's own edit: the old text is gone
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore", os.path.join("tests", "test_mutants.py")],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        seconds = time.perf_counter() - start
    # "FAILED <node id> - <message>"; a node id may hold spaces in its brackets
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, failed[0] if failed else None, seconds


def main():
    status = 0
    passed, failed, seconds = run_suite()
    print("unmutated: %s in %.1f s" % ("passes" if passed else "FAILS, first " + str(failed), seconds))
    if not passed:
        return 1
    for mutant in MUTANTS:
        name, path, old, _ = mutant
        with open(os.path.join(ROOT, path)) as fh:
            count = fh.read().count(old)
        if count != 1:
            print("%s: its old text occurs %d times in %s" % (name, count, path))
            status = 1
            continue
        passed, failed, seconds = run_suite(mutant)
        print("%s: %s in %.1f s" % (name, "PASSES" if passed else "fails " + str(failed), seconds))
        status |= passed
    return status


if __name__ == "__main__":
    sys.exit(main())
