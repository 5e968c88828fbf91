"""The benchmark harness, ``bench/run.py``, run in process on the tree
under test: every workload, untraced and traced, for one round each.  Its
own gate compares each job's output hashes with ``bench/reference.json``."""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# seed 1 untraced runs verify at r = 0 and 2, seed 7 traced at r = 1: with
# gw_m2's three r and the exceptional series, every pin is compared
SEED = {0: 1, 1: 7}
VERIFY_R = {0: {0, 2}, 1: {1}}


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["gw_m2", "exceptional", "verify_warm"])
def test_workload_runs_correct(capsys, monkeypatch, workload, trace):
    """Exit 0, every job correct, the metrics BENCHMARK.json declares and
    no scratch directory left in the tree; verify at the r of VERIFY_R,
    and traced, the spans of the verify task and of the GW stage it runs."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    # importing run.py turns bytecode off for the whole process
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    import run

    argv = ["--workload", workload, "--seed", str(SEED[trace]), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, err
    assert result["metrics"]
    assert not os.path.exists(os.path.join(ROOT, ".bench_tmp"))
    if workload == "verify_warm":
        assert VERIFY_R[0] | VERIFY_R[1] == set(run.R_RANGE)
        assert {int(r) for r in re.findall(r"^bench: verify (\d+) ", err, re.M)} == VERIFY_R[trace]
        if trace:
            spans = set(re.findall(r"^bench: span (\S+)", err, re.M))
            assert {"cli.run_verify", "gwtheory.gw_extract"} <= spans, err
