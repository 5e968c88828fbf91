"""Command-line interface: flags, reports, exit codes."""

import json

import pytest

from localvertex import gwtheory as gw
from localvertex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSelftest:
    def test_passes(self, capsys):
        code, doc = run_json(capsys, "selftest")
        assert code == 0
        assert doc["passed"] is True
        assert doc["schema"] == 1
        assert doc["task"] == "selftest"


class TestPT:
    def test_fiber_table(self, capsys):
        code, doc = run_json(capsys, "pt", "--r", "0", "--m", "0", "--Q-order", "2")
        assert code == 0
        rows = doc["tables"]["0"]
        assert {"j": 1, "n": 1, "value": -2} in rows

    def test_csv_projection(self, capsys):
        code, out = run(
            capsys, "pt", "--r", "0", "--m", "0", "--Q-order", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "r,m,j,n,value"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pt.json"
        code, out = run(
            capsys, "pt", "--m", "0", "--Q-order", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["task"] == "pt"


class TestGW:
    def test_json_table(self, capsys):
        code, doc = run_json(
            capsys, "gw", "--r", "0", "--m-max", "0", "--Q-order", "3", "--g-max", "1"
        )
        assert code == 0
        entries = doc["tables"]["0"]["entries"]
        assert {"g": 0, "m": 0, "j": 1, "num": -2, "den": 1} in entries

    def test_repeatable_r(self, capsys):
        code, doc = run_json(
            capsys, "gw", "--r", "0", "--r", "1",
            "--m-max", "0", "--Q-order", "2", "--g-max", "1",
        )
        assert code == 0
        assert set(doc["tables"]) == {"0", "1"}


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--r", "0", "--m-max", "1",
            "--Q-order", "8", "--u-order", "4", "--g-max", "1",
        )
        assert code == 0
        assert doc["passed"] is True
        assert doc["checks"]["q_inversion"]["r=0,m=1"]["passed"] is True
        assert doc["checks"]["exceptional_membership"]["passed"] is True

    def test_determinism(self, capsys, tmp_path):
        argv = [
            "verify", "--r", "0", "--m-max", "1",
            "--Q-order", "6", "--u-order", "2", "--g-max", "1",
        ]
        first = run_json(capsys, *argv)[1]
        second = run_json(capsys, *argv, "--cache-dir", str(tmp_path))[1]
        third = run_json(capsys, *argv, "--cache-dir", str(tmp_path))[1]
        for doc in (first, second, third):
            doc.pop("generated_at")
        assert first == second == third

    def test_q_order_8_skips_unfittable_degree(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--all", "--r", "0", "--m-max", "1", "--Q-order", "8",
        )
        assert code == 0
        per_h = doc["checks"]["exceptional_membership"]["per_h"]
        assert "skipped" in per_h["6"]
        assert "skipped" not in per_h["4"]

    @pytest.mark.parametrize("g_max", ["0", "3"])
    def test_polynomiality_at_q_order_9(self, capsys, g_max):
        """At Q-order 9 with g_max >= 1 the polynomiality check reads the
        column_exponents table; with g_max 0 it extracts its own."""
        code, doc = run_json(
            capsys, "verify", "--all", "--r", "0", "--m-max", "1",
            "--Q-order", "9", "--g-max", g_max,
        )
        assert code == 0
        table = gw.gw_extract(0, 1, 9, 1)
        for g in (0, 1):
            expected = gw.polynomiality_check(table, g, 1, 3, 9)[1]
            assert doc["checks"]["polynomiality"]["r=0,g=%d" % g] == expected

    def test_corrupt_cache_exits_3(self, capsys, tmp_path):
        argv = ["pt", "--m", "0", "--Q-order", "1", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        for path in tmp_path.iterdir():
            path.write_text("not json")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(tmp_path) in err
        assert "--no-cache" in err


class TestFit:
    def test_reports_exponent(self, capsys):
        code, doc = run_json(
            capsys, "fit", "--r", "0", "--m", "1", "--Q-order", "9", "--g-max", "0"
        )
        assert code == 0
        genus0 = doc["fits"]["0"]["0"]
        assert genus0["exponent"] == -2
        assert genus0["fit"]["numerator"] == {"0": {"num": -2, "den": 1}}

    def test_insufficient_order_is_skipped(self, capsys):
        code, doc = run_json(
            capsys, "fit", "--r", "0", "--m", "1", "--Q-order", "6", "--g-max", "2"
        )
        assert code == 0
        assert "skipped" in doc["fits"]["0"]["2"]


class TestUsage:
    def test_unknown_task(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_negative_r_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["pt", "--r", "-1", "--m", "0"])

    def test_missing_task_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([])
