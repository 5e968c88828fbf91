"""Command-line interface: flags, reports, exit codes."""

import argparse
import ast
import contextlib
import csv
import errno
import importlib
import inspect
import io
import json
import glob
import os
import pkgutil
import re
import sys
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import localvertex
from helpers import digest, fresh_python, record_calls, record_z0_builds, refuse
from localvertex import cli
from localvertex import gwtheory as gw
from localvertex import rationality as rat
from localvertex import vertex as vx
from localvertex.cli import main
from localvertex.qrat import QRat
from localvertex.series import TruncSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def csv_writer_text(rows):
    """What ``csv.writer`` writes for ``rows``."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


class TestPT:
    def test_fiber_table(self, capsys):
        code, doc = run_json(capsys, "pt", "--r", "0", "--m", "0", "--Q-order", "2")
        assert code == 0
        rows = doc["tables"]["0"]
        assert {"j": 1, "n": 1, "value": -2} in rows
        assert doc["bounds"] == {"Q_order": 2}

    def test_csv_matches_csv_writer(self, capsys):
        """The pt CSV is byte for byte what csv.writer writes for the rows of
        the JSON tables: one header for two surfaces, lines ending in CR LF."""
        argv = ["pt", "--r", "0", "--r", "1", "--m", "2", "--Q-order", "6"]
        code, doc = run_json(capsys, *argv)
        code_csv, out = run(capsys, *argv, "--format", "csv")
        assert code == code_csv == 0
        rows = [["r", "m", "j", "n", "value"]]
        for r in ("0", "1"):
            rows += [[r, 2, e["j"], e["n"], e["value"]] for e in doc["tables"][r]]
        assert any(e["value"] < 0 for e in doc["tables"]["0"])
        assert out == csv_writer_text(rows)
        assert out.count("\r\n") == len(rows)

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

    def test_csv_matches_csv_writer(self, capsys, gw_table_r0, gw_table_r1):
        """The gw CSV is byte for byte what csv.writer writes for the rows of
        the tables: one header for two surfaces, each row led by its r."""
        code, out = run(
            capsys, "gw", "--r", "0", "--r", "1", "--m-max", "1", "--Q-order", "13",
            "--g-max", "3", "--format", "csv",
        )
        assert code == 0
        rows = [["r", "g", "m", "j", "value_num", "value_den"]]
        for table in (gw_table_r0, gw_table_r1):
            for (g, m, j), v in sorted(table.entries.items()):
                rows.append([table.r, g, m, j, v.numerator, v.denominator])
        assert any(v.denominator > 1 for v in gw_table_r0.entries.values())
        assert any(v < 0 for v in gw_table_r0.entries.values())
        assert out == csv_writer_text(rows)
        assert out.count("value_num") == 1
        assert {row.split(",")[0] for row in out.splitlines()[1:]} == {"0", "1"}


class TestVerify:
    def test_determinism(self, capsys, monkeypatch, tmp_path):
        """A report reads alike without a cache, cold (filling it) and warm
        (reading it back, building no S-series), but for generated_at.
        r = 5's GW table runs to Q^10, so the cold run stores entries at a
        longer order than the integrality check asks for."""
        argv = "verify --all --r 0 --r 1 --r 5 --m-max 2 --Q-order 9".split()
        cache_dir = "--cache-dir", str(tmp_path)
        first = run_json(capsys, *argv)[1]
        second = run_json(capsys, *argv, *cache_dir)[1]
        stored = {len(json.loads(path.read_text())["coeffs"]) - 1 for path in tmp_path.iterdir()}
        assert stored == {9, 10}
        builds = record_calls(monkeypatch, vx, "s_ratio_squared")
        third = run_json(capsys, *argv, *cache_dir)[1]
        assert builds == []
        for doc in (first, second, third):
            doc.pop("generated_at")
        assert first == second == third
        assert first["passed"] is True

    def test_q_order_8_skips_unfittable_degree(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--all", "--r", "0", "--m-max", "1", "--Q-order", "8",
        )
        assert code == 0
        per_h = doc["checks"]["exceptional_membership"]["per_h"]
        assert "skipped" in per_h["6"]
        assert "skipped" not in per_h["4"]

    @pytest.mark.parametrize("g_max", ["0", "3"])
    def test_polynomiality_at_q_order_9(self, capsys, monkeypatch, g_max):
        """The polynomiality check reads the column_exponents table, one
        gw_extract call, which --all takes to genus 1 also at g_max 0."""
        calls = record_calls(monkeypatch, gw, "gw_extract")
        code, doc = run_json(
            capsys, "verify", "--all", "--r", "0", "--m-max", "1",
            "--Q-order", "9", "--g-max", g_max,
        )
        assert code == 0
        assert calls == [(0, 1, 9, max(int(g_max), 1))]
        table = gw.gw_extract(0, 1, 9, 1)
        for g in (0, 1):
            expected = rat.polynomiality_check(table, g, 3, 9)
            assert doc["checks"]["polynomiality"]["r=0,g=%d" % g] == expected

    def test_z0_built_once_per_run(self, capsys, monkeypatch):
        """Every pt_invariants call of a run reads Z_0's windows from the
        run's SCache: one build for five surfaces and three classes, and
        one more for a second run."""
        builds = record_z0_builds(monkeypatch)
        argv = "verify --all --r 0 --r 1 --r 2 --r 3 --r 4 --m-max 2 --Q-order 9"
        assert run(capsys, *argv.split())[0] == 0
        assert builds == [(9, 25)]
        assert run(capsys, *argv.split())[0] == 0
        assert builds == [(9, 25)] * 2

    def test_report_merges_its_surfaces(self, capsys):
        """A two-surface report is the merge of the one-surface reports:
        each check keyed by r is the union of theirs, the exceptional
        series is checked alike in all three, and passed is the AND.  The
        c + jb columns are polynomial in j from j = r - 1 on for r >= 5, so
        at r = 5 the polynomiality window is [4, 10], past the Q-order, and
        both genera pass there."""
        base = ["verify", "--all", "--m-max", "2", "--Q-order", "9"]
        both, r0, r5 = (
            run_json(capsys, *base, *argv)[1]
            for argv in (["--r", "0", "--r", "5"], ["--r", "0"], ["--r", "5"])
        )
        assert set(both["checks"]) == set(r0["checks"]) == set(r5["checks"]) == {
            "q_inversion", "integrality", "column_exponents", "polynomiality",
            "exceptional_membership",
        }
        for name, checks in both["checks"].items():
            if name == "exceptional_membership":
                assert checks == r0["checks"][name] == r5["checks"][name]
            else:
                assert checks == {**r0["checks"][name], **r5["checks"][name]}
                assert not set(r0["checks"][name]) & set(r5["checks"][name])
        for g in (0, 1):
            entry = both["checks"]["polynomiality"]["r=5,g=%d" % g]
            assert entry["window"] == [4, 10] and entry["passed"] is True, g
        assert both["passed"] is (r0["passed"] and r5["passed"])

    def test_u_order_cap(self, capsys):
        """verify checks the exceptional series at min(u-order, 6), while
        bounds show the value given: --u-order 6 and 8 give equal checks, 5
        does not."""
        base = ["verify", "--m-max", "1", "--Q-order", "9"]
        five, six, eight = (
            run_json(capsys, *base, "--u-order", u)[1] for u in ("5", "6", "8")
        )
        assert six["checks"] == eight["checks"]
        assert six["bounds"] != eight["bounds"]
        assert eight["bounds"]["u_order"] == 8
        assert five["checks"] != six["checks"]

    @pytest.mark.parametrize(
        "q_order, r_values, skipped",
        [("9", (3,), {"2", "3"}), ("13", (3, 4), set())],
    )
    def test_column_exponent_is_weyl_weight(self, capsys, q_order, r_values, skipped):
        """For r >= 3 every fitted column has exponent w.c = r - 2; a genus
        whose window leaves no surplus at this Q-order is skipped."""
        argv = ["verify", "--all", "--Q-order", q_order]
        for r in r_values:
            argv += ["--r", str(r)]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        for r in r_values:
            for g, entry in doc["checks"]["column_exponents"]["r=%d" % r].items():
                assert entry["passed"] is True
                if g in skipped:
                    assert "skipped" in entry
                else:
                    assert entry["exponent"] == r - 2

    def test_wrong_weight_fails(self, capsys, monkeypatch):
        """A column checked against a weight other than m(r-2) fails."""
        monkeypatch.setattr(rat, "w_dot_beta", lambda m, r: m * (r - 2) + 1)
        code, doc = run_json(
            capsys, "verify", "--r", "0", "--m-max", "1", "--Q-order", "8",
            "--u-order", "4", "--g-max", "1",
        )
        assert code == 1
        for entry in doc["checks"]["column_exponents"]["r=0"].values():
            assert entry == {"exponent": None, "passed": False}

    def test_integrality_reads_pt_invariants(self, capsys, monkeypatch):
        """verify certifies the integers pt prints: a half planted in the
        rows pt_invariants returns at m = 1 fails that entry, and only it."""
        pt_invariants = vx.pt_invariants

        def planted(ratio, order, cache=None):
            rows = pt_invariants(ratio, order, cache)
            if ratio[2] != [1]:  # (q;q)_1^2, so m = 1
                j, n, _ = rows[0]
                rows[0] = (j, n, Fraction(1, 2))
            return rows

        monkeypatch.setattr(vx, "pt_invariants", planted)
        code, doc = run_json(capsys, "verify", "--r", "0", "--m-max", "1", "--Q-order", "4")
        assert code == 1
        checks = doc.pop("checks")
        assert checks.pop("integrality") == {
            "r=0,m=0": {"passed": True}, "r=0,m=1": {"passed": False},
        }
        assert cli._all_passed(checks)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--all", "--r", "0", "--m-max", "1", "--Q-order", "9"],
            ["fit", "--r", "0", "--m", "2", "--Q-order", "13"],
        ],
        ids=["verify", "fit"],
    )
    def test_certificates_take_no_power_or_inverse(self, capsys, argv):
        """The fits clear (1-Q)^p by exact differences: the series ring has no
        power or inverse to take, and QRat no inverse alias for it."""
        for name in ("inverse", "pow_int", "__pow__"):
            assert not hasattr(TruncSeries, name), name
        assert not hasattr(QRat, "inverse")
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["passed"] is True

    def test_warm_verify_stores_nothing(self, capsys, monkeypatch, tmp_path):
        """Z_0/Z_0 = 1 asks the cache for no S-entry: after the pt run that
        fills (empty, (1)), a warm verify at m <= 1 stores nothing for any
        r, and the directory keeps its one file."""
        cache_dir = "--cache-dir", str(tmp_path)
        assert run(capsys, "pt", "--r", "0", "--m", "1", "--Q-order", "9", *cache_dir)[0] == 0
        filled = sorted(os.listdir(tmp_path))
        assert len(filled) == 1
        stores = record_calls(monkeypatch, vx.SCache, "_store")
        for r in ("0", "1", "2"):
            argv = ["verify", "--all", "--r", r, "--m-max", "1", "--Q-order", "9", *cache_dir]
            assert run(capsys, *argv)[0] == 0, r
        assert stores == []
        assert sorted(os.listdir(tmp_path)) == filled

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: "not json",
            lambda doc: "[" * 100_000,  # nested past json.load's recursion limit
            # JSON values that int() would read as 7, 1 and 3 into a different PT table
            lambda doc: json.dumps({**doc, "coeffs": [[1, [7.9]], doc["coeffs"][1]]}),
            lambda doc: json.dumps({**doc, "coeffs": [doc["coeffs"][0], [1, [True]]]}),
            lambda doc: json.dumps({**doc, "coeffs": [[1, ["3"]], doc["coeffs"][1]]}),
            lambda doc: json.dumps({**doc, "coeffs": [[7.9, [1]], doc["coeffs"][1]]}),
            lambda doc: json.dumps({**doc, "coeffs": [doc["coeffs"][0], [True, [2]]]}),
            lambda doc: json.dumps({**doc, "coeffs": [["3", [1]], doc["coeffs"][1]]}),
            # another pair than the name's, the name's pair unsorted, or none
            lambda doc: json.dumps({**doc, "nu": [2]}),
            lambda doc: json.dumps({**doc, "mu": [1], "nu": []}),
            lambda doc: json.dumps({**doc, "mu": None}),
        ],
        ids=[
            "not-json", "nested", "numerator-7.9", "numerator-true", "numerator-string",
            "shift-7.9", "shift-true", "shift-string", "other-pair", "swapped", "none",
        ],
    )
    def test_corrupt_cache_exits_3(self, capsys, tmp_path, corrupt):
        """A cache file that is not the entry its name promises exits 3, with
        the file to delete, and prints no report."""
        argv = ["pt", "--m", "1", "--Q-order", "1", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        assert os.listdir(tmp_path) == ["s_-1.json"]
        path = tmp_path / "s_-1.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "corrupt cache file: %s\ndelete %s or run without --cache-dir\n" % (path, path)
        )

    @pytest.mark.parametrize("task", ["gw", "verify"])
    def test_unusable_cache_dir_exits_3(self, capsys, tmp_path, task):
        """A --cache-dir under a regular file cannot be created: exit 3 and
        one line on stderr that names it and another way to run, not a
        traceback with the exit 1 of a failed check."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        directory = str(blocker / "sub")
        assert main([task, "--Q-order", "2", "--cache-dir", directory]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "cannot write cache directory %r: %s; name another or run without --cache-dir\n"
            % (directory, os.strerror(errno.ENOTDIR))
        )

    def test_empty_cache_dir_exits_3(self, capsys, monkeypatch):
        """An empty --cache-dir names no directory that can be created: exit 3
        and one line on stderr before any S-series is built, not a silent
        memory-only run."""
        monkeypatch.setattr(
            vx, "s_ratio_squared", refuse("an S-series was built before the cache error")
        )
        assert main(["pt", "--m", "1", "--Q-order", "1", "--cache-dir", ""]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "cannot write cache directory ''" in captured.err

    @pytest.mark.parametrize(
        "argv, module, name, planted, message",
        [
            (
                ["gw", "--m-max", "1", "--Q-order", "2"], gw, "log_z",
                # q^2/(1 - q)^4 at Q_c^1 Q^1: even in u, with a u^-4 pole
                lambda *args, **kwargs: {1: (0, {1: [1, 0, 0]}, [1, -4, 6, -4, 1])},
                "u-pole deeper than genus 0 at Q_c^1 Q^1",
            ),
            (
                ["pt", "--m", "1", "--Q-order", "4"], vx, "_divide",
                # n X_n of Z_0's strip recurrence, so every a_k, times (1 + q)
                lambda total, n, words, width, divide=vx._divide:
                    divide(total * (1 + (1 << 64 * words)), n, words, width),
                "n X_n is not divisible by n = 3",
            ),
            (
                ["pt", "--m", "1", "--Q-order", "2"], vx, "_divide",
                # n X_n + 1: a remainder that the norm test does not see
                lambda total, n, words, width, divide=vx._divide:
                    divide(total + 1, n, words, width),
                "n X_n is not divisible by n = 2",
            ),
        ],
        ids=["gw-u-pole", "pt-inexact-division", "pt-remainder"],
    )
    def test_internal_invariant_exits_2(
        self, capsys, monkeypatch, tmp_path, argv, module, name, planted, message
    ):
        """A tripped internal invariant, a VertexError, exits 2
        with one line on stderr and writes no report."""
        out = tmp_path / "report.json"
        monkeypatch.setattr(module, name, planted)
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "invariant violation: %s\n" % message
        assert captured.out == ""
        assert not out.exists()


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

    def test_wrong_weight_fails(self, capsys, monkeypatch):
        """fit certifies at weight m(r-2), exactly as verify does."""
        monkeypatch.setattr(rat, "w_dot_beta", lambda m, r: m * (r - 2) + 1)
        code, doc = run_json(
            capsys, "fit", "--r", "0", "--m", "1", "--Q-order", "9", "--g-max", "1"
        )
        assert code == 1
        assert doc["passed"] is False
        for entry in doc["fits"]["0"].values():
            assert entry["exponent"] is None
            assert entry["passed"] is False
            assert entry["fit"] is not None

    def test_column_that_does_not_fit(self, capsys, monkeypatch):
        """One power of (1-Q) short, the genus-0 column -2/(1-Q)^2 leaves a
        tail beyond the window: the entry carries the FitError text and no
        fit, and verify's entry is the same.  (The genus >= 1 columns at
        r = 0 would still fit: their numerators vanish at Q = 1.)"""
        power = rat.column_power
        monkeypatch.setattr(rat, "column_power", lambda m, g: power(m, g) - 1)
        argv = ["--r", "0", "--r", "3", "--Q-order", "9", "--g-max", "0"]
        code, doc = run_json(capsys, "fit", "--m", "1", *argv)
        assert code == 1 and doc["passed"] is False
        _, expected = run_json(capsys, "verify", "--m-max", "1", "--u-order", "2", *argv)
        assert expected["passed"] is False
        for r, (d, hi) in {"0": (2, 1), "3": (3, 2)}.items():
            entry = doc["fits"][r]["0"]
            assert entry == {
                "exponent": None,
                "passed": False,
                "error": "nonvanishing coefficient at Q^%d outside window [0, %d]" % (d, hi),
                "denominator_power": 1,
                "fit": None,
            }
            del entry["denominator_power"], entry["fit"]
            assert entry == expected["checks"]["column_exponents"]["r=" + r]["0"]

    def test_entry_is_verify_entry(self, capsys):
        """A fit entry is verify's column entry plus denominator_power and fit."""
        code, doc = run_json(
            capsys, "fit", "--r", "3", "--m", "1", "--Q-order", "9", "--g-max", "3"
        )
        assert code == 0
        _, expected = run_json(
            capsys, "verify", "--r", "3", "--m-max", "1", "--Q-order", "9",
            "--g-max", "3", "--u-order", "2",
        )
        for g, entry in doc["fits"]["3"].items():
            assert entry.pop("denominator_power") == rat.column_power(1, int(g))
            entry.pop("fit")
            assert entry == expected["checks"]["column_exponents"]["r=3"][g]


# (argv, format, sha256 of the report, gw_extract calls): every report is
# pinned by its CSV bytes or by its canonical JSON, generated_at dropped
REPORTS = [
    ("pt --r 0 --r 1 --m 2 --Q-order 8", "json",
     "efc21601ac1112538e5ecad3dc82638dc20fb3fec05b3fd5bded90895dea81cd", 0),
    ("pt --r 0 --r 1 --m 2 --Q-order 8", "csv",
     "2f88b14235e8fea108f93791ffc4ea260421962694fabc1174a453f41cd858ea", 0),
    # rows past Q^8, read in their q-windows
    ("pt --r 0 --r 2 --m 4 --Q-order 14", "json",
     "c7eb6f98e1a7efe851b81a10a5108d169ce70a02d218b57356f8b17f93d9fde4", 0),
    ("pt --r 0 --r 2 --m 4 --Q-order 14", "csv",
     "5d46359ceaf219dce6329c822bada15453632e6b76d217570861628b07010e68", 0),
    # pole orders and u-orders beyond the benchmark's m <= 2
    ("gw --r 0 --r 3 --m-max 3 --Q-order 10 --g-max 4", "json",
     "7a47569a04effd8143ea3a13fa8b4f860ae875201c526a3676d439318563d3a2", 2),
    ("gw --r 0 --r 3 --m-max 3 --Q-order 10 --g-max 4", "csv",
     "72db8764621106fb8fbf254555897b7a8f7b21f77141459fcbd3ffe7ba58aaf7", 2),
    # a polynomiality window past the Q-order, or g_max 0 or 2: each r
    # extracts one GW table
    ("verify --all --r 5 --r 7 --m-max 1 --Q-order 9", "json",
     "b51739e07046e24fa47bb9f4384cba819337440ca731391d6605c25d78588181", 2),
    ("verify --all --r 0 --r 3 --m-max 1 --Q-order 6 --g-max 0", "json",
     "5e4dd81b4ef0ffd9dbe40764a248ed14b9151061c4fead4d167e34c4668c5c2b", 2),
    ("verify --all --r 0 --r 1 --m-max 1 --Q-order 8 --g-max 2", "json",
     "45241e8915060494da3398aa0cfb965af1700cc9418ec20a6499433214a0692b", 2),
    ("verify --all --r 6 --m-max 2 --Q-order 5 --g-max 3 --u-order 4", "json",
     "04515c46c7705327141d98e58f727a8a07e90acc1b8f33bc436c7a41f39aaf21", 1),
    # m = 0 alone: an empty q_inversion, one integrality entry, and passed
    ("verify --m-max 0 --Q-order 4", "json",
     "b84f94e19a19f66ce5375b8cc6c6de08b2ef7f3bae9c4543a6a15367db2d0e3d", 1),
    ("fit --r 0 --m 2 --Q-order 13", "json",
     "47babb23ffafbcb4b74aa950ab84f4cf0a015b7e8a5f3d96efbe0903dffa8785", 1),
    ("fit --r 1 --r 3 --m 1 --Q-order 12", "json",
     "df872e6011a589610d0b07b89be07a94d1f283c5d7bc9c93954e4eb1c702ecc8", 2),
]


@pytest.mark.parametrize(
    "argv, fmt, pinned, extracts", REPORTS, ids=["%s %s" % row[:2] for row in REPORTS]
)
def test_report_pin(monkeypatch, tmp_path, argv, fmt, pinned, extracts):
    """Each report, written to --out, is the pinned one, from as many
    gw_extract calls as the table says."""
    calls = record_calls(monkeypatch, gw, "gw_extract")
    out = tmp_path / "report.out"
    argv = argv.split() + ["--out", str(out)] + (["--format", "csv"] if fmt == "csv" else [])
    assert main(argv) == 0
    payload = out.read_bytes()
    if fmt == "json":
        payload = json.loads(payload)
        payload.pop("generated_at")
    assert digest(payload) == pinned
    assert len(calls) == extracts


def non_negative(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("must be an integer >= 0, got %r" % text)
    return value


def oracle_parser():
    """The reference reading of a command line: argparse, built from the
    same ``FLAGS`` and ``TASK_FLAGS`` tables as ``cli._read``."""
    parser = argparse.ArgumentParser(prog="localvertex")
    sub = parser.add_subparsers(dest="task", required=True)
    for task, (task_help, flags) in cli.TASK_FLAGS.items():
        # no abbreviations: gw --m would be read as --m-max
        p = sub.add_parser(task, help=task_help, allow_abbrev=False)
        for flag in flags.split():
            default, reads, help_text = cli.FLAGS[flag]
            if reads == "bare":
                p.add_argument(flag, action="store_true", help=help_text)
            else:
                p.add_argument(
                    flag, default=default, help=help_text,
                    action="append" if flag == "--r" else "store",
                    type=non_negative if reads == "int" else None,
                    choices=reads if isinstance(reads, tuple) else None,
                )
    return parser


ORACLE = oracle_parser()


def read_with(reader, argv):
    """``vars`` of what ``reader`` returns for ``argv``, or the status it
    exits with, and what it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(reader(argv))
        except SystemExit as exit:
            result = exit.code
    return result, out.getvalue(), err.getvalue()


def oracle(argv):
    """The oracle's reading of ``argv``, or its exit status; fit --m 0,
    which no fit can pass, is a usage error after parsing."""
    result = read_with(ORACLE.parse_args, argv)[0]
    if isinstance(result, dict) and result["task"] == "fit" and result["m"] == 0:
        return 2
    return result


NEGATIVE = "must be an integer >= 0, got '-1'"
NEGATIVE_FLAGS = [
    ["pt", "--m", "-1"], ["verify", "--m-max", "-1"], ["gw", "--r", "-1"],
    ["fit", "--Q-order", "-1"], ["verify", "--u-order", "-1"], ["gw", "--g-max", "-1"],
]
NON_INTEGERS = ["abc", "1.5", ""]
CSV_OFF_TABLE = ["verify", "fit"]
# flags a task does not read, and the deleted --no-cache
UNREAD_FLAGS = [
    ["pt", "--u-order", "2"], ["gw", "--u-order", "2"], ["fit", "--u-order", "2"],
    ["pt", "--g-max", "1"], ["verify", "--format", "json"], ["fit", "--format", "json"],
    ["pt", "--m-max", "1"], ["pt", "--all"], ["gw", "--m", "1"], ["gw", "--all"],
    ["verify", "--m", "1"], ["fit", "--m-max", "1"], ["fit", "--all"],
    ["pt", "--no-cache"], ["gw", "--no-cache"], ["verify", "--no-cache"],
    ["fit", "--no-cache"],
]


def non_integer(value):
    """The usage-error row of --Q-order ``value``."""
    return ["gw", "--Q-order", value], "argument --Q-order: must be an integer >= 0, got %r" % value


def unrecognized(argv):
    """The usage-error row of an argv whose last word its task does not read."""
    return argv, "unrecognized arguments: " + argv[1]


# (argv, what the error line says): the usage errors of the reader ...
OTHER_READER_ERRORS = [
    (["frobnicate"], "invalid choice: 'frobnicate'"), ([], "arguments are required: task"),
    (["selftest"], "invalid choice: 'selftest'"), (["fit", "--m", "0"], "fit needs --m >= 1"),
    (["pt", "--r", "-1", "--m", "0"], NEGATIVE),
    (["pt", "--out", "-x"], "argument --out: expected one argument"),
    (["gw", "--m-max"], "argument --m-max: expected one argument"),
    unrecognized(["verify", "--all=1"]),
]
READER_ERRORS = (
    OTHER_READER_ERRORS
    + [non_integer(value) for value in NON_INTEGERS]
    + [(argv, NEGATIVE) for argv in NEGATIVE_FLAGS]
    + [unrecognized([task, "--format", "csv"]) for task in CSV_OFF_TABLE]
    + [unrecognized(argv) for argv in UNREAD_FLAGS]
)
# ... and those of main, an --out it cannot write, where {tmp} is a fresh directory
MISSING = "{tmp}/missing/report.json"
NO_DIRECTORY = "cannot write --out %s: no directory {tmp}/missing" % MISSING
IS_DIRECTORY = "cannot write --out {tmp}: it is a directory"
OUT_ERRORS = [
    (["gw", "--out", MISSING], NO_DIRECTORY),
    (["verify", "--out", MISSING], NO_DIRECTORY),
    (["gw", "--Q-order", "2", "--g-max", "1", "--out", "{tmp}"], IS_DIRECTORY),
    (["verify", "--Q-order", "2", "--g-max", "0", "--out", "{tmp}"], IS_DIRECTORY),
    (["gw", "--m-max", "8", "--Q-order", "10", "--out", "{tmp}"], IS_DIRECTORY),
    (["pt", "--m", "1", "--Q-order", "1", "--out", ""], "cannot write --out '': the path is empty"),
]


def spelled(rows):
    """The argv of each row as a test id."""
    return [" ".join(argv) or "(none)" for argv, _ in rows]


@pytest.fixture
def usage_error(capsys, monkeypatch, tmp_path):
    """The check of one usage error: it exits 2 before any task or
    gw_extract runs, with stdout empty: on stderr the reader writes its
    usage line and the error, and main an --out error on one line.  No
    message names a private function of the reader."""

    def check(argv, message):
        for task in cli.TASKS:
            monkeypatch.setitem(cli.TASKS, task, refuse("%s ran before the usage error" % task))
        monkeypatch.setattr(gw, "gw_extract", refuse("gw_extract ran before the usage error"))
        with pytest.raises(SystemExit) as exit_info:
            sys.exit(main([word.format(tmp=tmp_path) for word in argv]))
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        *usage, error = err.splitlines()
        assert out == "" and message.format(tmp=tmp_path) in error
        # the reader's errors follow its usage line; main's --out errors stand alone
        assert len(usage) == (0 if message.startswith("cannot write --out") else 1)
        assert all(line.startswith("usage: localvertex") for line in usage)
        assert "_non_negative" not in err

    return check


class TestUsage:
    @pytest.mark.parametrize(
        "argv, message", OTHER_READER_ERRORS + OUT_ERRORS,
        ids=spelled(OTHER_READER_ERRORS + OUT_ERRORS),
    )
    def test_usage_error(self, usage_error, argv, message):
        usage_error(argv, message)

    @pytest.mark.parametrize("argv", NEGATIVE_FLAGS)
    def test_negative_flag_is_usage_error(self, usage_error, argv):
        usage_error(argv, NEGATIVE)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_non_integer_flag_is_usage_error(self, usage_error, value):
        usage_error(*non_integer(value))

    @pytest.mark.parametrize("task", CSV_OFF_TABLE)
    def test_csv_only_on_table_tasks(self, usage_error, task):
        usage_error(*unrecognized([task, "--format", "csv"]))

    @pytest.mark.parametrize("argv", UNREAD_FLAGS)
    def test_deleted_flag_is_usage_error(self, usage_error, argv):
        usage_error(*unrecognized(argv))

    @pytest.mark.parametrize(
        "argv",
        [["pt", "--m", "1"], ["gw", "--m-max", "1", "--g-max", "1"]],
        ids=["pt", "gw"],
    )
    def test_repeated_r_runs_once(self, capsys, argv):
        """--r 1 --r 1 writes the report of --r 1: one table, one set of CSV rows."""
        argv = argv + ["--Q-order", "1"]
        once = argv + ["--r", "1"]
        twice = once + ["--r", "1"]
        assert run(capsys, *twice, "--format", "csv") == run(capsys, *once, "--format", "csv")
        reports = []
        for args in (once, twice):
            code, doc = run_json(capsys, *args)
            doc.pop("generated_at")
            reports.append((code, doc))
        assert reports[0] == reports[1]
        assert list(reports[0][1]["tables"]) == ["1"]

    @pytest.mark.parametrize(
        "error", [OSError(errno.ENOSPC, "No space left on device"),
                  BrokenPipeError(errno.EPIPE, "Broken pipe")], ids=["full", "pipe"],
    )
    @pytest.mark.parametrize("argv", [["pt", "--Q-order", "1"], ["--help"]], ids=["pt", "help"])
    def test_unwritable_stdout_is_usage_error(self, capsys, argv, error):
        """A report or help text that stdout cannot take (a full disk, a
        closed pipe) exits 2 with one line on stderr, as an --out does."""

        class Unwritable:
            def write(self, text):
                raise error

            def flush(self):
                pass

        with contextlib.redirect_stdout(Unwritable()), pytest.raises(SystemExit) as exit_info:
            sys.exit(main(argv))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(": error: cannot write stdout: %s\n" % error.strerror)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("sink", ["full", "pipe"])
    @pytest.mark.parametrize("argv", [["pt", "--Q-order", "1"], ["--help"]], ids=["pt", "help"])
    def test_unwritable_stdout_in_a_process(self, argv, sink):
        """The same in a fresh interpreter, stdout on /dev/full or on a pipe
        whose reader has closed: the interpreter's own flush of stdout at
        exit adds no second error and does not change the status."""
        if sink == "full":
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            reader, stdout = os.pipe()
            os.close(reader)
        try:
            run = fresh_python("-m", "localvertex.cli", *argv, stdout=stdout)
        finally:
            os.close(stdout)
        assert run.returncode == 2, run.stderr
        assert run.stderr.count("\n") == 1 and ": error: cannot write stdout: " in run.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_out_exits_2(self, capsys):
        """An --out that takes no bytes (a full disk) exits 2 with one line on
        stderr that names it, and writes nothing to stdout."""
        assert main(["pt", "--Q-order", "1", "--out", "/dev/full"]) == 2
        assert capsys.readouterr() == (
            "", "localvertex pt: error: cannot write --out /dev/full: No space left on device\n"
        )

    @pytest.mark.skipif(
        not os.path.exists("/dev/full") or not os.path.isdir("/proc/self/fd"),
        reason="needs /dev/full and /proc/self/fd",
    )
    def test_unwritable_stdout_leaves_no_descriptor(self, capsys):
        """Pointing stdout's descriptor at devnull after a failed write
        closes the descriptor it opened there: a run in this process with
        stdout on /dev/full leaves as many descriptors open as it found."""
        with open("/dev/full", "w") as full:
            before = len(os.listdir("/proc/self/fd"))
            with contextlib.redirect_stdout(full):
                assert main(["pt", "--Q-order", "1"]) == 2
            assert len(os.listdir("/proc/self/fd")) == before
        err = capsys.readouterr().err
        assert err.endswith(": error: cannot write stdout: No space left on device\n")

    @pytest.mark.parametrize("argv", [
        "pt --r 0 --m 1 --Q-order 2", "gw --r 0 --m-max 1 --Q-order 2 --g-max 1",
        "fit --r 0 --m 1 --Q-order 6 --g-max 0", "verify --r 0 --m-max 1 --Q-order 4 --g-max 0",
    ], ids=lambda argv: argv.split()[0])
    def test_tasks_only_fill_the_report(self, capsys, argv):
        """A task writes nothing and returns no exit status: it fills the
        report it is handed, and pt and gw return their CSV rows, which
        main alone writes."""
        args = cli._read(argv.split())
        report = cli._report(args)
        before = set(report)
        rows = cli.TASKS[args.task](args, vx.SCache(), report)
        assert capsys.readouterr() == ("", "")
        assert set(report) > before
        if args.task == "pt":
            assert len(rows) == 1 + len(report["tables"]["0"]) > 1
        elif args.task == "gw":
            assert len(rows) == 1 + len(report["tables"]["0"]["entries"]) > 1
        else:
            assert rows is None and report["passed"] is True

    def test_task_set_and_settable_values(self):
        """Four tasks and 27 settable values, counted on the reader's table
        and on the oracle built from it."""
        assert set(cli.TASK_FLAGS) == set(cli.TASKS) == {"pt", "gw", "fit", "verify"}
        assert sum(len(flags.split()) for _, flags in cli.TASK_FLAGS.values()) == 27
        (tasks,) = [a for a in ORACLE._actions if a.dest == "task"]
        assert set(tasks.choices) == set(cli.TASKS)
        settable = [
            action
            for sub in tasks.choices.values()
            for action in sub._actions
            if action.dest != "help"
        ]
        assert len(settable) == 27


TASK_TOKENS = ["pt", "gw", "verify", "fit", "selftest"]
FLAG_TOKENS = sorted(cli.FLAGS) + ["--no-cache", "--Q", "-h", "--he", "--"]
VALUE_TOKENS = ["0", "7", "-1", "-1.5", "-", "abc", "1.5", "", "json", "csv", "-x", "out.json"]
# the values of the pool that a flag takes
USUAL = {
    flag: list(reads) if isinstance(reads, tuple) else ["0", "7"] if reads == "int"
    else ["out.json", "abc", ""]
    for flag, (_, reads, _) in cli.FLAGS.items()
}


def argparse_reads_more(argv):
    """Whether ``argv`` gives --out or --cache-dir a value after a space
    that argparse reads and the reader does not, -1.5 or -, or holds a --,
    which the reader always rejects and argparse reads differently across
    Python versions."""
    return "--" in argv or any(
        flag in ("--out", "--cache-dir") and value in ("-1.5", "-")
        for flag, value in zip(argv, argv[1:])
    )


@st.composite
def command_lines(draw):
    """An argv of pool tokens: no task or one, then words, each a flag and
    a value, a --flag=value, a lone flag or a lone value.  Seven times in
    eight the flag is one of the task's, and three times in four the value
    is one the flag takes, so that about a fifth of the argv are plain
    command lines."""
    argv = draw(st.sampled_from([[]] + [[task] for task in TASK_TOKENS]))
    own = cli.TASK_FLAGS[argv[0]][1].split() if argv and argv[0] in cli.TASK_FLAGS else []
    for _ in range(draw(st.integers(0, 5))):
        own_flag = own and draw(st.integers(0, 7)) > 0
        flag = draw(st.sampled_from(own if own_flag else FLAG_TOKENS))
        usual_value = flag in USUAL and draw(st.integers(0, 3)) > 0
        value = draw(st.sampled_from(USUAL[flag] if usual_value else VALUE_TOKENS))
        form = draw(st.sampled_from(["pair"] * 5 + ["eq"] * 3 + ["flag", "value"]))
        argv += {"pair": [flag, value], "eq": [flag + "=" + value], "flag": [flag],
                 "value": [value]}[form]
    return argv


class TestReader:
    """``cli._read`` is the one command-line reader; argparse, built from
    the same tables, is its oracle.  What the reader accepts the oracle
    reads alike, and the reader rejects what the oracle accepts only where
    ``argparse_reads_more`` says they are meant to differ."""

    @given(command_lines())
    @settings(max_examples=1000, deadline=None)
    def test_accepts_only_what_argparse_reads_alike(self, argv):
        result, out, err = read_with(cli._read, argv)
        expected = oracle(argv)
        if isinstance(result, dict):
            assert result == expected
            assert not (result["task"] == "fit" and result["m"] == 0)
            assert out == err == ""
        elif result == 0:
            # help only, where argparse prints help as well
            assert {"-h", "--help"} & set(argv) and expected == 0
            assert out.startswith("usage: localvertex") and err == ""
        else:
            assert result == 2 and out == ""
            usage, error = err.splitlines()
            assert usage.startswith("usage: localvertex")
            assert error.startswith("localvertex") and ": error: " in error
            assert not isinstance(expected, dict) or argparse_reads_more(argv), expected

    @pytest.mark.parametrize(
        "argv", [argv for argv, _ in READER_ERRORS], ids=spelled(READER_ERRORS)
    )
    def test_declines_every_usage_error(self, argv):
        """Every argv that the reader rejects in TestUsage exits 2, and so
        does the oracle."""
        with pytest.raises(SystemExit) as exit_info:
            cli._read(argv)
        assert exit_info.value.code == 2
        assert oracle(argv) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gw", "--r", "0", "--r", "1", "--m-max", "2", "--Q-order", "5", "--format", "csv"],
            ["pt", "--r", "0", "--m", "1", "--Q-order=8", "--format=csv"],
            ["fit", "--r", "0", "--m", "2", "--Q-order", "13"],
            ["verify", "--all", "--r", "0", "--r", "1", "--r", "0", "--m-max", "1",
             "--Q-order", "9", "--u-order", "8"],
            ["pt", "--m", "2", "--m", "3", "--out=", "--format", "json", "--format", "csv"],
            # the benchmark's cache fill and its verify job
            ["pt", "--r", "0", "--m", "1", "--Q-order", "9", "--cache-dir", "scache",
             "--out", "report.json"],
            ["verify", "--all", "--r", "2", "--m-max", "1", "--Q-order", "9",
             "--cache-dir", "scache", "--out", "report.json"],
        ],
        ids=["gw", "pt", "fit", "verify", "repeated", "bench-fill", "bench-verify"],
    )
    def test_reads_plain_command_lines(self, argv):
        """Repeated --r appends, any other repeated flag keeps its last value."""
        assert vars(cli._read(argv)) == oracle(argv)

    def test_help_names_every_task(self, capsys):
        """--help names the four tasks, each with its line of help."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: localvertex [-h] {pt,gw,verify,fit} ...\n")
        for task, (help_text, _) in cli.TASK_FLAGS.items():
            assert any(line.split()[:1] == [task] and line.endswith(help_text)
                       for line in out.splitlines()), task

    @pytest.mark.parametrize("task", sorted(cli.TASK_FLAGS))
    def test_task_help_names_its_flags(self, capsys, task):
        """TASK -h names each flag of that task, with its help, and no other."""
        with pytest.raises(SystemExit) as exit_info:
            main([task, "-h"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        flags = cli.TASK_FLAGS[task][1].split()
        named = {word.strip("[],") for word in out.split() if word.startswith(("--", "[--"))}
        assert named == set(flags) | {"--help"}
        for flag in flags:
            assert any(line.split()[:1] == [flag] and line.endswith(cli.FLAGS[flag][2])
                       for line in out.splitlines()), flag


# the localvertex modules each entry point loads: the root alone, then a
# pt run (cli and the vertex stage), gw (the GW stage too), fit (the
# certificates too) and verify (the series ring of tilde_pt0 too)
ROOT = ["localvertex"]
PT = sorted(ROOT + ["localvertex.cli", "localvertex.partitions", "localvertex.qfield",
                    "localvertex.vertex"])
GW = sorted(PT + ["localvertex.gwtheory"])
FIT = sorted(GW + ["localvertex.rationality"])
CERTIFY = sorted(FIT + ["localvertex.series"])

RUN = "from localvertex import cli; assert cli.main(sys.argv[1:]) == 0"


def exits(status):
    """Code that runs cli.main, which must exit ``status`` as the help and
    the usage errors do."""
    return (
        "from localvertex import cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == %d, exit.code\n"
        "else:\n"
        "    raise AssertionError('no exit')" % status
    )


FILES = " --cache-dir {tmp}/scache --out {tmp}/report.out"
# id: (code, argv, the watched modules loaded after it); {tmp} is a fresh
# directory.  Every run has a --cache-dir: the cache names each file by its
# pair, with no hashlib
MODULE_SETS = {
    # local P^2's classes d(c + b), d <= 7, at genus 0 and 1: the only run past
    # m = 5, and the only gw run past m = 2
    "run-gw": (RUN, "gw --r 1 --m-max 7 --Q-order 7 --g-max 1 --format csv" + FILES, GW),
    # at m = 5, e_coeffs multiplies two C_mu lists of more than one part each
    "run-pt": (RUN, "pt --r 2 --m 5 --Q-order 6" + FILES, PT),
    "run-verify": (RUN, "verify --all --r 1 --m-max 1 --Q-order 9 --g-max 1" + FILES, CERTIFY),
    # the palindromy at a positive weight, a + p odd: a = m(r - 2) = 1
    "run-fit": (RUN, "fit --r 3 --m 1 --Q-order 12 --g-max 3" + FILES, FIT),
    # the = form of every flag is read without argparse too
    "cache-pt-eq": (RUN, "pt --r=1 --m=1 --Q-order=3 --format=csv" + FILES, PT),
    # the control: the watch sees a module that is loaded
    "cache-pt-hashlib": ("import hashlib\n" + RUN, "pt --m 1 --Q-order 3" + FILES,
                         sorted(PT + ["hashlib"])),
    # the reader writes the help and the usage errors itself
    "help": (exits(0), "--help", PT),
    "verify-help": (exits(0), "verify -h", PT),
    "usage-error": (exits(2), "pt --m -1", PT),
    # the root loads no stage, and the certificates only the kernel they
    # share with the engine; an import of cli and the stages its task runs is
    # a prefix of that task's run, so the run rows bound it
    "import-root": ("import localvertex", "", ROOT),
    "import-rationality": (
        "import localvertex.rationality", "",
        ["localvertex", "localvertex.qfield", "localvertex.rationality"],
    ),
}
WATCHED = (
    "localvertex", "argparse", "gettext", "locale", "csv", "hashlib", "__future__", "sympy",
    "dataclasses", "inspect",
)


@pytest.mark.parametrize("code, argv, modules", list(MODULE_SETS.values()), ids=list(MODULE_SETS))
def test_loaded_modules(tmp_path, code, argv, modules):
    """In a fresh interpreter in dev mode with warnings as errors, each
    entry point loads exactly the stages it runs: pt the vertex stage and
    the CLI, gw the GW stage too, fit the certificates of ``rationality``
    too, and verify also ``series``, for the exceptional series of
    ``tilde_pt0``.  No entry point loads the
    field Q(t) of qrat, the oracles, symmfun (so the W and power-sum memo
    tables cannot fill), argparse, gettext or locale (a command line is
    read without argparse), csv, hashlib, ``__future__`` (no module defers
    its annotations), sympy (the engine is stdlib only), or dataclasses and
    inspect, which with ast, dis and tokenize would be the largest import
    of a short job.  Each run fills a --cache-dir, whose files are named
    without hashlib, and writes its report.  A warning raised as an
    error fails the entry point, but a ResourceWarning for a file left open
    is only printed when the file is collected, so every entry point but
    the usage error must also leave stderr empty."""
    watch = (
        "\nprint(json.dumps(sorted(m for m in sys.modules "
        "if m in %r or m.startswith('localvertex.'))))" % (WATCHED,)
    )
    argv = [word.format(tmp=tmp_path) for word in argv.split()]
    run = fresh_python("-X", "dev", "-W", "error", "-c", "import json, sys\n" + code + watch, *argv)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == modules
    if code != exits(2):
        assert run.stderr == ""
    if "--out" in argv:
        assert (tmp_path / "report.out").read_text()


def test_package_holds_the_engine_modules():
    """The installed package is the engine, its certificates and the two
    Q(t) modules the tests still read: the oracles sit beside the tests
    that run them, in ``tests/oracles.py``, and the vertex stage holds no
    route that builds Z_0 or Z_m whole, so the tasks read them in their
    q-windows."""
    assert sorted(m.name for m in pkgutil.iter_modules(localvertex.__path__)) == [
        "cli", "gwtheory", "partitions", "qfield", "qrat", "rationality", "series",
        "symmfun", "vertex",
    ]
    for name in ("z0_series", "pt_fractions"):
        assert not hasattr(vx, name), name


def test_package_imports_the_standard_library_only():
    """pyproject declares no dependencies, and sympy is a test oracle only:
    every import in the package, inside functions too, is relative or names
    a module of the standard library.  The runs above load no qrat or
    symmfun, so they cannot show this for those modules."""
    root = os.path.dirname(os.path.abspath(localvertex.__file__))
    outside = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                (os.path.relpath(path, root), node.lineno, name)
                for name in names if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_annotation_resolves():
    """No module defers its annotations, so each one is evaluated when its
    ``def`` runs, and a name quoted for a later class must resolve too:
    ``typing.get_type_hints`` resolves on every function and method that a
    module of the package, or the oracles beside the tests, defines at its
    top level, memoised, static and class methods and properties included.
    The root defines none."""
    import oracles

    checked = 0
    modules = [importlib.import_module("localvertex." + info.name)
               for info in pkgutil.iter_modules(localvertex.__path__)]
    for module in modules + [oracles]:
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.FunctionDef):
                defs = [vars(module)[node.name]]
            elif isinstance(node, ast.ClassDef):
                owner = vars(vars(module)[node.name])
                defs = [owner[d.name] for d in node.body if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for obj in defs:
                func = inspect.unwrap(getattr(obj, "fget", None) or getattr(obj, "__func__", obj))
                assert inspect.isfunction(func), obj
                typing.get_type_hints(func)
                checked += 1
    assert checked > 100, checked


def test_ci_selects_tests_by_live_names():
    """The CI step that runs this file against the installed package picks
    its tests by ``-k`` terms joined by "or": each term is part of the
    name of a test here, so a renamed test cannot leave the step unseen."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, ".github", "workflows", "tier1.yml")) as fh:
        (expression,) = re.findall(r'tests/test_cli\.py -k "([^"]*)"', fh.read())
    names = [node.name for node in ast.walk(ast.parse(inspect.getsource(sys.modules[__name__])))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    terms = expression.split(" or ")
    assert len(terms) > 1
    for term in terms:
        assert any(term in name for name in names), term
