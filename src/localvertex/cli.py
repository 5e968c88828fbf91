"""Command-line entry point.

Computes PT/GW tables, runs the verification suites, and emits
machine-readable reports.  Each task takes only the flags it reads, and a
report's "bounds" lists only the bounds its task reads.  JSON is the
canonical output (exact rationals need num/den fields); CSV, offered by
pt and gw only, is a lossy projection of their tables for spreadsheets,
in the dialect of ``csv.writer``.  A task only fills the report it is
handed (pt and gw return their CSV rows); ``main`` alone writes it, by
``_emit``, and turns it into the exit status.  ``verify`` walks each surface
once.  The S-series disk cache is used only where --cache-dir names it.  Each
task imports its stages past ``vertex`` in its function: ``gw`` imports
``gwtheory``; ``fit`` and ``verify`` import it and ``rationality``, and
certify a GW genus column by ``rationality.column_certificate``: a fit
over (1-Q)^(4m+2g-2) and the Weyl functional equation at weight m(r-2).
No task imports the oracles: they sit beside the tests that run them.
One reader, ``_read``, reads every command line (a task, then its flags,
each ``--flag value`` or ``--flag=value``, and a bare ``--all``) from the
``TASK_FLAGS`` and ``FLAGS`` tables, and writes the help and usage errors.
Exit status: 0 on success, 1 if a verification fails, 2 on a usage error
(``_read``'s, or an ``OutputError``: a report or help text that cannot be
written to --out or stdout) or a ``vertex.VertexError`` (an internal
invariant: an exact division, or realness), 3 on a ``vertex.CacheError``
(an unreadable cache file, or a --cache-dir that cannot be made or written).
"""

import json
import os
import sys
import time
from types import SimpleNamespace

from . import vertex as vx

SCHEMA = 1


# flag: (default, what it reads, help); it reads "int" (an integer >= 0),
# one of a tuple of choices, "text", or nothing ("bare")
FLAGS = {
    "--r": (None, "int", "surface parameter r of F_r; repeatable (default: 0)"),
    "--m": (1, "int", "curve class multiple of c (default: 1)"),
    "--m-max": (2, "int", "largest multiple of c (default: 2)"),
    "--Q-order": (10, "int", "order in the fiber variable Q (default: 10)"),
    "--u-order": (8, "int", "u-order of the exceptional-series membership check; verify uses "
                  "min(u-order, 6), while the report's bounds show the value given (default: 8)"),
    "--g-max": (3, "int", "largest genus (default: 3)"),
    "--format": ("json", ("json", "csv"), "report format (default: json)"),
    "--all": (False, "bare", "run every check"),
    "--out": (None, "text", "output path (default: stdout)"),
    "--cache-dir": (None, "text", "S-series disk cache directory (default: memory only)"),
}

TASK_FLAGS = {
    "pt": ("table of stable-pairs invariants PT_{mc+jb,n}",
           "--r --m --Q-order --format --out --cache-dir"),
    "gw": ("table of Gromov-Witten invariants GW_{g,mc+jb}",
           "--r --m-max --Q-order --g-max --format --out --cache-dir"),
    "verify": ("run the verification suite",
               "--r --m-max --Q-order --u-order --g-max --all --out --cache-dir"),
    "fit": ("rational reconstruction of GW genus columns, certified at weight m(r-2)",
            "--r --m --Q-order --g-max --out --cache-dir"),
}


def _read(argv):
    """The namespace of a command line: a task, then flags of that task,
    each --flag value or --flag=value, and --all bare.  -h or --help exits 0
    with the help, any other line exits 2 with a usage error.  A value after
    a space starts with "-" only as a negative integer: --out -x is an error."""
    task = argv[0] if argv else None
    if task in ("-h", "--help"):
        _exit(None)
    if task not in TASK_FLAGS:
        _exit(None, "the following arguments are required: task" if task is None else
              "argument task: invalid choice: %r (choose from %s)"
              % (task, ", ".join(map(repr, TASK_FLAGS))))
    values = {flag: FLAGS[flag][0] for flag in TASK_FLAGS[task][1].split()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _exit(task)
        flag, eq, text = token.partition("=")
        if flag not in values or flag == "--all" and eq:
            _exit(task, "unrecognized arguments: " + token)
        reads = FLAGS[flag][1]
        if reads == "bare":
            values[flag] = True
            continue
        text = text if eq else next(tokens, "-")  # a missing value reads as "-"
        if not eq and text[:1] == "-" and not text[1:].isdecimal():
            _exit(task, "argument %s: expected one argument" % flag)
        try:
            value = max(int(text), -1) if reads == "int" else text
        except ValueError:
            value = -1
        if value == -1:
            _exit(task, "argument %s: must be an integer >= 0, got %r" % (flag, text))
        if isinstance(reads, tuple) and value not in reads:
            _exit(task, "argument %s: must be one of %s, got %r" % (flag, ", ".join(reads), text))
        values[flag] = (values[flag] or []) + [value] if flag == "--r" else value
    if task == "fit" and values["--m"] == 0:
        _exit(task, "fit needs --m >= 1: the fiber columns at g = 0, 1 are Li_3(Q) "
              "and Li_1(Q), which are not rational")
    return SimpleNamespace(task=task, **{f[2:].replace("-", "_"): v for f, v in values.items()})


def _word(flag) -> str:
    """``flag`` and the value it reads, as usage and help show them."""
    reads = FLAGS[flag][1]
    metavar = "{%s}" % ",".join(reads) if isinstance(reads, tuple) else flag[2:].upper()
    return flag if reads == "bare" else flag + " " + metavar.replace("-", "_")


def _exit(task, error=None):
    """Exit with the usage line of ``task`` (of the command, if None): 2
    with ``error`` on stderr, or 0 with the help on stdout."""
    prog, heading = "localvertex", "Exact vertex computations for local Hirzebruch surfaces."
    rows = [(name, text) for name, (text, _) in TASK_FLAGS.items()]
    words = "{%s} ..." % ",".join(TASK_FLAGS)
    if task:
        prog, heading = prog + " " + task, TASK_FLAGS[task][0]
        rows = [(_word(flag), FLAGS[flag][2]) for flag in TASK_FLAGS[task][1].split()]
        words = " ".join("[%s]" % word for word, _ in rows)
    usage = "usage: %s [-h] %s\n" % (prog, words)
    if error is None:
        rows.append(("-h, --help", "show this help and exit"))
        try:
            _write("%s\n%s\n\n%s" % (usage, heading, "".join("  %-22s %s\n" % r for r in rows)))
            raise SystemExit(0)
        except OutputError as err:
            usage, error = "", err  # the help cannot be written: one line, no usage
    sys.stderr.write("%s%s: error: %s\n" % (usage, prog, error))
    raise SystemExit(2)


class OutputError(Exception):
    """A report or help text cannot be written, to --out or stdout; a usage error."""


def _write(text):
    """Write ``text`` to stdout and flush it.  A failed write (a full disk, a
    closed pipe) raises OutputError, and points stdout's descriptor at
    devnull first: what stdout still holds then drains there at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError):
            pass  # a stdout with no descriptor has nothing to drain
        raise OutputError("cannot write stdout: %s" % (err.strerror or err))


def _emit(args, report, rows):
    """Write the report to --out or stdout: as JSON, or under --format csv
    as ``rows`` of ints, byte for byte what ``csv.writer`` writes (no field
    is quoted, and every line ends in CR LF)."""
    if getattr(args, "format", "json") == "csv":
        payload = "".join(",".join(map(str, row)) + "\r\n" for row in rows)
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as err:
            raise OutputError("cannot write --out %s: %s" % (args.out, err.strerror or err))
    else:
        _write(payload)


def _report(args) -> dict:
    return {
        "schema": SCHEMA,
        "task": args.task,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "bounds": {
            name: getattr(args, name)
            for name in ("Q_order", "u_order", "g_max")
            if hasattr(args, name)
        },
    }


# ---------------------------------------------------------------------------
# Tasks


def run_pt(args, cache, report) -> list:
    report["m"] = args.m
    tables = report["tables"] = {}
    rows = [["r", "m", "j", "n", "value"]]
    for r in args.r:
        ratio = vx.z_ratio(r, args.m, args.Q_order, cache)
        invariants = vx.pt_invariants(ratio, args.Q_order)
        tables[str(r)] = [{"j": j, "n": n, "value": v} for j, n, v in invariants]
        rows += [[r, args.m, j, n, v] for j, n, v in invariants]
    return rows


def run_gw(args, cache, report) -> list:
    from . import gwtheory as gw

    report["m_max"] = args.m_max
    tables = report["tables"] = {}
    rows = [["r", "g", "m", "j", "value_num", "value_den"]]
    for r in args.r:
        table = gw.gw_extract(r, args.m_max, args.Q_order, args.g_max, cache=cache).to_json()
        tables[str(r)] = table
        rows += [[r, e["g"], e["m"], e["j"], e["num"], e["den"]] for e in table["entries"]]
    return rows


def run_fit(args, cache, report):
    from . import gwtheory as gw
    from . import rationality as rat

    report["m"] = args.m
    fits = {}
    for r in args.r:
        table = gw.gw_extract(r, args.m, args.Q_order, args.g_max, cache=cache)
        per_genus = fits[str(r)] = {}
        for g in range(args.g_max + 1):
            entry, fit = rat.column_certificate(table, args.m, g, args.Q_order)
            entry["denominator_power"] = rat.column_power(args.m, g)
            entry["fit"] = fit
            per_genus[str(g)] = entry
    report["fits"] = fits
    report["passed"] = _all_passed(fits)


def run_verify(args, cache, report):
    from . import gwtheory as gw
    from . import rationality as rat

    # one walk per surface r, each entry written straight into the report
    checks = report["checks"] = {"q_inversion": {}, "integrality": {}, "column_exponents": {}}
    if args.all:
        checks["polynomiality"] = {}
    for r in args.r:
        # q -> 1/q invariance of the normalized PT series Z_m/Z_0, and
        # integrality of the PT invariants pt prints, from one assembly per m
        for m in range(args.m_max + 1):
            ratio = vx.z_ratio(r, m, args.Q_order, cache)
            key = "r=%d,m=%d" % (r, m)
            if m:
                ok, witness = rat.check_q_inversion(ratio)
                checks["q_inversion"][key] = {"passed": ok, "witness": witness}
            rows = vx.pt_invariants(ratio, args.Q_order)
            checks["integrality"][key] = {"passed": rat.check_integrality(rows)}

        # per-genus Weyl functional equation of the GW columns of class c + jb
        # through Q^Q_order, weight w.c = r - 2; under --all, from the same table,
        # their eventual polynomiality in j (g = 0, 1) from j = max(r-2, 0) + 1
        # on, as the numerator over (1-Q)^p reaches degree p + max(r-2, 0)
        j_lo = max(3, r - 1)  # the window checked, [j_lo, j_lo + 6], starts there or later
        order, g_max = args.Q_order, args.g_max
        if args.all:
            order, g_max = max(order, j_lo + 6), max(g_max, 1)
        table = gw.gw_extract(r, 1, order, g_max, cache=cache)
        checks["column_exponents"]["r=%d" % r] = {
            str(g): rat.column_certificate(table, 1, g, args.Q_order)[0]
            for g in range(args.g_max + 1)
        }
        if args.all:
            for g in (0, 1):
                entry = rat.polynomiality_check(table, g, j_lo, j_lo + 6)
                checks["polynomiality"]["r=%d,g=%d" % (r, g)] = entry

    # membership of the modified exceptional series in R_{0,0}, which no r changes
    tp = gw.tilde_pt0(args.Q_order, min(args.u_order, 6))
    checks["exceptional_membership"] = rat.verify_R(tp)
    report["passed"] = _all_passed(checks)


def _all_passed(node) -> bool:
    if isinstance(node, dict):
        if "passed" in node and not node["passed"]:
            return False
        return all(_all_passed(v) for v in node.values())
    return True


TASKS = {"pt": run_pt, "gw": run_gw, "fit": run_fit, "verify": run_verify}


def main(argv=None) -> int:
    args = _read(sys.argv[1:] if argv is None else argv)
    # a repeated --r runs once, in the order first given
    args.r = list(dict.fromkeys(args.r or [0]))
    try:
        # an empty --out, one in a missing directory, or one that is a
        # directory, fails before any work
        if args.out == "":
            raise OutputError("cannot write --out '': the path is empty")
        if args.out is not None:
            directory = os.path.dirname(os.path.abspath(args.out))
            if not os.path.isdir(directory):
                raise OutputError("cannot write --out %s: no directory %s" % (args.out, directory))
            if os.path.isdir(args.out):
                raise OutputError("cannot write --out %s: it is a directory" % args.out)
        # a --cache-dir that cannot be made fails here; one not writable, at its first store
        report = _report(args)
        _emit(args, report, TASKS[args.task](args, vx.SCache(args.cache_dir), report))
        return 1 if report.get("passed") is False else 0
    except OutputError as err:
        sys.stderr.write("localvertex %s: error: %s\n" % (args.task, err))
        return 2
    except vx.VertexError as err:
        sys.stderr.write("invariant violation: %s\n" % err)
        return 2
    except vx.CacheError as err:
        sys.stderr.write("%s\n" % err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
