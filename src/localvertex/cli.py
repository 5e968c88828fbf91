"""Command-line entry point.

Computes PT/GW tables, runs the verification suites, and emits
machine-readable reports.  JSON is the canonical output (exact rationals
need num/den fields); CSV, offered by pt and gw only, is a lossy
projection of their tables for spreadsheets.  Exit status: 0 on success,
1 if a verification fails, 2 on a usage error or if an internal
invariant (parity, realness, integrality) trips, 3 if a disk-cache file
is unreadable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import gwtheory as gw
from . import rationality as rat
from . import vertex as vx
from .partitions import Partition, partitions_up_to
from .qfield import QRat
from .series import polylog_neg
from .symmfun import schur_principal, schur_principal_jt, w_two

SCHEMA = 1
CACHE_ENV = "LOCALVERTEX_CACHE_DIR"

DEFAULT_Q_ORDER = 10
DEFAULT_U_ORDER = 8
DEFAULT_M_MAX = 2
DEFAULT_G_MAX = 3


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localvertex",
        description="Exact vertex computations for local Hirzebruch surfaces.",
    )
    sub = parser.add_subparsers(dest="task", required=True)

    def common(p, m_flag, formats=("json",)):
        p.add_argument(
            "--r", action="append", type=_non_negative, default=None,
            help="surface parameter r of F_r; repeatable (default: 0)",
        )
        if m_flag == "m":
            p.add_argument(
                "--m", type=_non_negative, default=1, help="curve class multiple of c"
            )
        elif m_flag == "m-max":
            p.add_argument("--m-max", type=_non_negative, default=DEFAULT_M_MAX)
        p.add_argument("--Q-order", type=_non_negative, default=DEFAULT_Q_ORDER)
        p.add_argument("--u-order", type=_non_negative, default=DEFAULT_U_ORDER)
        p.add_argument("--g-max", type=_non_negative, default=DEFAULT_G_MAX)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--cache-dir", default=None,
            help="S-series disk cache directory (default: $%s)" % CACHE_ENV,
        )
        p.add_argument("--no-cache", action="store_true", help="disable the disk cache")

    p_pt = sub.add_parser("pt", help="table of stable-pairs invariants PT_{mc+jb,n}")
    common(p_pt, "m", ("json", "csv"))
    p_gw = sub.add_parser("gw", help="table of Gromov-Witten invariants GW_{g,mc+jb}")
    common(p_gw, "m-max", ("json", "csv"))
    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify, "m-max")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_fit = sub.add_parser(
        "fit", help="rational reconstruction of GW genus columns with exponent search"
    )
    common(p_fit, "m")
    p_selftest = sub.add_parser(
        "selftest", help="oracle-equivalence and symmetry property suites"
    )
    common(p_selftest, None)
    return parser


def _make_cache(args) -> vx.SCache:
    if getattr(args, "no_cache", False):
        return vx.SCache()
    directory = args.cache_dir or os.environ.get(CACHE_ENV)
    return vx.SCache(directory)


def _emit(args, document, csv_text=None):
    if args.format == "csv":
        payload = csv_text
    else:
        payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _report(task, args) -> dict:
    return {
        "schema": SCHEMA,
        "task": task,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "bounds": {
            "Q_order": args.Q_order,
            "u_order": args.u_order,
            "g_max": args.g_max,
        },
    }


# ---------------------------------------------------------------------------
# Tasks


def run_pt(args) -> int:
    cache = _make_cache(args)
    report = _report("pt", args)
    report["m"] = args.m
    tables = {}
    for r in args.r:
        rows = vx.pt_invariants(r, args.m, args.Q_order, cache=cache)
        tables[str(r)] = [{"j": j, "n": n, "value": v} for j, n, v in rows]
    report["tables"] = tables
    lines = ["r,m,j,n,value"]
    for r in args.r:
        for row in tables[str(r)]:
            lines.append("%d,%d,%d,%d,%d" % (r, args.m, row["j"], row["n"], row["value"]))
    _emit(args, report, "\n".join(lines) + "\n")
    return 0


def run_gw(args) -> int:
    cache = _make_cache(args)
    report = _report("gw", args)
    report["m_max"] = args.m_max
    tables = {}
    csv_chunks = []
    for r in args.r:
        table = gw.gw_extract(r, args.m_max, args.Q_order, args.g_max, cache=cache)
        tables[str(r)] = table.to_json()
        csv_chunks.append(table.to_csv())
    report["tables"] = tables
    _emit(args, report, "".join(csv_chunks))
    return 0


def run_fit(args) -> int:
    cache = _make_cache(args)
    report = _report("fit", args)
    report["m"] = args.m
    failed = False
    fits = {}
    for r in args.r:
        table = gw.gw_extract(r, args.m, args.Q_order, args.g_max, cache=cache)
        per_genus = {}
        a = rat.w_dot_beta(args.m, 0, r)
        for g in range(args.g_max + 1):
            column = table.column(g, args.m)
            power = gw.column_power(args.m, g)
            entry = {"denominator_power": None, "fit": None, "exponent": None}
            try:
                certified = rat.certify_column(column, power, a)
                if certified is None:
                    entry["skipped"] = (
                        "Q-order %d leaves no surplus for denominator power %d"
                        % (column.order, power)
                    )
                else:
                    fit = certified[0]
                    entry["denominator_power"] = power
                    entry["fit"] = fit.to_json()
                    entry["exponent"] = rat.find_exponent(fit, -8, 8)
            except ArithmeticError as err:
                entry["error"] = str(err)
                failed = True
            per_genus[str(g)] = entry
        fits[str(r)] = per_genus
    report["fits"] = fits
    report["passed"] = not failed
    _emit(args, report)
    return 1 if failed else 0


def run_verify(args) -> int:
    cache = _make_cache(args)
    report = _report("verify", args)
    checks = {}

    # q -> 1/q invariance of the normalized PT series Z_m/Z_0, and
    # integrality of the PT coefficients Z_m, from one assembly per r
    q_inversion = {}
    integrality = {}
    z0 = vx.log_z0(args.Q_order).exp()
    for r in args.r:
        ratios = vx.z_ratios(r, args.m_max, args.Q_order, cache=cache)
        for m, ratio in ratios.items():
            key = "r=%d,m=%d" % (r, m)
            if m:
                ok, witness = rat.check_q_inversion(ratio)
                q_inversion[key] = {"passed": ok, "witness": witness}
            integrality[key] = {"passed": vx.check_integrality(z0 * ratio)}
    checks["q_inversion"] = q_inversion
    checks["integrality"] = integrality

    # membership of the modified exceptional series in R_{0,0}
    tp = gw.tilde_pt0(args.Q_order, min(args.u_order, 6))
    membership = gw.verify_R(tp, 0, 0, min(args.u_order, 6))
    checks["exceptional_membership"] = membership.to_json()

    # per-genus Weyl functional equation of the GW columns of class c + jb:
    # weight w.c = r - 2
    exponents = {}
    tables = {}
    for r in args.r:
        table = tables[r] = gw.gw_extract(r, 1, args.Q_order, args.g_max, cache=cache)
        a = rat.w_dot_beta(1, 0, r)
        per_genus = {}
        for g in range(args.g_max + 1):
            entry = {"exponent": None, "passed": False}
            try:
                certified = rat.certify_column(
                    table.column(g, 1), gw.column_power(1, g), a
                )
                if certified is None:
                    entry["passed"] = True
                    entry["skipped"] = "Q-order too small for this genus"
                elif certified[1]:
                    entry["exponent"] = a
                    entry["passed"] = True
            except rat.FitError as err:
                entry["error"] = str(err)
            per_genus[str(g)] = entry
        exponents["r=%d" % r] = per_genus
    checks["column_exponents"] = exponents

    # eventual polynomiality in j of the genus columns
    if args.all:
        poly = {}
        order = max(args.Q_order, 9)
        for r in args.r:
            # the column tables hold the same g <= 1 values when they reach
            # this order and genus 1
            if order == args.Q_order and args.g_max >= 1:
                table = tables[r]
            else:
                table = gw.gw_extract(r, 1, order, 1, cache=cache)
            for g in (0, 1):
                passed, details = gw.polynomiality_check(table, g, 1, 3, 9)
                poly["r=%d,g=%d" % (r, g)] = details
        checks["polynomiality"] = poly

    report["checks"] = checks
    passed = _all_passed(checks)
    report["passed"] = passed
    _emit(args, report)
    return 0 if passed else 1


def _all_passed(node) -> bool:
    if isinstance(node, dict):
        if "passed" in node and not node["passed"]:
            return False
        return all(_all_passed(v) for v in node.values())
    return True


def run_selftest(args) -> int:
    report = _report("selftest", args)
    checks = {}

    schur_ok = all(
        schur_principal(mu) == schur_principal_jt(mu) for mu in partitions_up_to(6)
    )
    checks["schur_oracle_agreement"] = {"passed": schur_ok}

    sym_ok = True
    pairs = [p for p in partitions_up_to(3)]
    for mu in pairs:
        for nu in pairs:
            if w_two(mu, nu) != w_two(nu, mu):
                sym_ok = False
    checks["w_symmetry"] = {"passed": sym_ok}

    triple_ok = True
    small = [Partition(), Partition([1]), Partition([2]), Partition([1, 1])]
    for mu in small:
        for nu in small:
            direct = vx.s_direct(mu, nu, 3)
            if vx.s_closed(mu, nu, 3) != direct or vx.s_product(mu, nu, 3) != direct:
                triple_ok = False
    checks["s_triple_agreement"] = {"passed": triple_ok}

    poly_ok = True
    for n in range(2, 8):
        li = polylog_neg(n)  # Li_{1-n}(Q)
        if li.invert_t() != li * (-1) ** n:
            poly_ok = False
    li0 = polylog_neg(1)
    q = QRat.t_power(1)
    if li0 != q / (QRat.one() - q):
        poly_ok = False
    checks["polylog_identities"] = {"passed": poly_ok}

    report["checks"] = checks
    passed = _all_passed(checks)
    report["passed"] = passed
    _emit(args, report)
    return 0 if passed else 1


TASKS = {
    "pt": run_pt,
    "gw": run_gw,
    "fit": run_fit,
    "verify": run_verify,
    "selftest": run_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.r is None:
        args.r = [0]
    try:
        return TASKS[args.task](args)
    except (vx.VertexError, gw.RealityError) as err:
        sys.stderr.write("invariant violation: %s\n" % err)
        return 2
    except vx.CacheError as err:
        sys.stderr.write("%s\ndelete %s or pass --no-cache\n" % (err, err.path))
        return 3


if __name__ == "__main__":
    sys.exit(main())
