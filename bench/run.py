"""Benchmark driver for localvertex; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A closed loop with one client:
each job is a fresh interpreter (bench/job.py), started only after the
previous one exited.  The last line of stdout is the result as JSON;
progress and the environment go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True  # no __pycache__ in the checkout
import pace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")
R_RANGE = (0, 1, 2)
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0
WORKLOADS = ("gw_m2", "exceptional", "verify_warm")


class SetupError(RuntimeError):
    pass


class Bench:
    def __init__(self, root, scratch, reference):
        self.root = root
        self.scratch = scratch
        self.reference = reference
        self.started = time.perf_counter()
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("LOCALVERTEX_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        # no bytecode files: the jobs write nothing outside the run's scratch dir
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.cache_dir = None

    def spawn(self, kind, *args, trace=False):
        """Run one job to completion; returns its record with its times and rss.

        ``wall`` is spawn to exit as the clock read it; ``job`` is the same
        stretch and ``setup`` spawn to ``import localvertex``, both paced to
        the reference speed (pace.py).
        """
        self.count += 1
        out = os.path.join(self.scratch, "job%d.json" % self.count)
        cmd = [sys.executable, JOB, out, kind, *map(str, args)] + (["--trace"] if trace else [])
        with open(os.path.join(self.scratch, "job%d.log" % self.count), "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log, stderr=log)
            # a blocking wait keeps the parent off the CPU; the timer kills a hung job
            watchdog = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = time.perf_counter()
            wall = t1 - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"exit": proc.returncode}
        if proc.returncode == 0:
            with open(out) as fh:
                record = json.load(fh)
            record["setup"] = pace.paced_seconds(record["probes"], t0, record["t_import"])
            record["job"] = pace.paced_seconds(record["probes"], t0, t1)
        record.update(kind=kind, args=list(args), trace=trace, wall=wall,
                      rss_mb=usage.ru_maxrss / 1024.0)
        record["ok"] = self.check(record)
        print("bench: %s %s%s exit=%s wall=%.3fs job=%.3fs rss=%.1fMB ok=%s" % (
            kind, " ".join(str(a) for a in args if isinstance(a, int)), " traced" if trace else "",
            record["exit"], wall, record.get("job", 0.0), record["rss_mb"], record["ok"]),
            file=sys.stderr)
        return record

    def check(self, record) -> bool:
        """The exact-output gate: exit 0 and every hash equal to the pinned one."""
        if record["exit"] != 0:
            return False
        kind, args = record["kind"], record["args"]
        pinned = self.reference.get(kind, {})
        if kind == "import":
            expected = {}
        elif kind == "exceptional":
            expected = pinned
        else:
            expected = {str(r): pinned.get(str(r)) for r in args[:2 if kind == "gw_m2" else 1]}
        if record["hashes"] != expected:
            return False
        return kind != "verify" or record["passed"] is True

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)


def rounds(workload, rng, bench):
    """Endless rounds of job specs drawn from the seeded generator.

    gw_m2 runs the three pairs (a, b), (b, c), (c, a) of a seeded
    permutation, so every r is once the surface that builds the S-series
    and once the one that reuses them.  verify_warm runs a seeded pair of
    distinct r: two samples per run, where a round of all three (about
    60 s) would overrun the average run budget.
    """
    while True:
        if workload == "gw_m2":
            a, b, c = rng.sample(R_RANGE, 3)
            yield [("gw_m2", a, b), ("gw_m2", b, c), ("gw_m2", c, a)]
        elif workload == "exceptional":
            yield [("exceptional",)]
        else:
            yield [("verify", r, bench.cache_dir, os.path.join(bench.scratch, "report.json"))
                   for r in rng.sample(R_RANGE, 2)]


def set_up(workload, bench):
    """Import probes, then the workload's fixture; returns setup-time samples."""
    bench.spawn("import")  # warms the page cache; not counted
    probes = [bench.spawn("import") for _ in range(SETUP_PROBES)]
    if not all(p["ok"] for p in probes):
        raise SetupError("import of localvertex failed")
    if workload == "verify_warm":
        # fixture: every S-series verify needs at Q-order 9, written by this checkout
        bench.cache_dir = os.path.join(bench.scratch, "scache")
        fill = subprocess.run(
            [sys.executable, "-m", "localvertex.cli", "pt", "--r", "0", "--m", "1",
             "--Q-order", "9", "--cache-dir", bench.cache_dir, "--out", os.devnull],
            cwd=bench.root, env=bench.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=bench.remaining(),
        )
        if fill.returncode != 0:
            raise SetupError("filling the S-series cache failed")
    return [p["setup"] for p in probes]


def measure(workload, seed, seconds, trace, bench, units):
    rng = random.Random(seed)
    setup_samples = set_up(workload, bench)
    jobs = []
    start = time.perf_counter()
    longest = 0.0
    for round_specs in rounds(workload, rng, bench):
        if trace:
            # one untraced and one traced job on the same input
            round_specs = [round_specs[0]]
        t0 = time.perf_counter()
        for spec in round_specs:
            jobs.append(bench.spawn(*spec))
            if trace:
                jobs.append(bench.spawn(*spec, trace=True))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds or bench.remaining() < 1.5 * longest:
            break

    failed = sum(not j["ok"] for j in jobs)
    plain = [j for j in jobs if not j["trace"] and j["ok"]]
    traced = [j for j in jobs if j["trace"] and j["ok"]]
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed}
    if not plain or (trace and not traced):
        result["metrics"] = {}
        return result
    job = statistics.median(j["job"] for j in plain)
    print("bench: median wall %.3fs, median paced job %.3fs" % (
        statistics.median(j["wall"] for j in plain), job), file=sys.stderr)
    if trace:
        values = {}
        for name in traced[0]["layers"]:
            values[name] = statistics.median(j["layers"][name] for j in traced)
        values["trace.overhead_s"] = statistics.median(j["job"] for j in traced) - job
        for name, calls in sorted(traced[0]["span_calls"].items()):
            print("bench: span %-40s %d calls" % (name, calls), file=sys.stderr)
    else:
        setup_samples += [j["setup"] for j in plain]
        values = {
            "job_s": job,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(j["rss_mb"] for j in plain),
        }
    if set(values) != set(units):
        raise RuntimeError("metrics %s differ from BENCHMARK.json" % sorted(set(values) ^ set(units)))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    print("bench: %d jobs (%d failed), %d set-up samples" % (
        len(jobs), failed, len(setup_samples)), file=sys.stderr)
    return result


def environment() -> dict:
    """What the timings depend on besides the code: cores, Python, sympy and
    sympy's integer type (gmpy2 would speed up qfield with no code change)."""
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy.__version__, "ground_types": GROUND_TYPES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "localvertex", "__init__.py")):
        print("bench: no localvertex source tree under %s" % root, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    print("bench: environment %s" % json.dumps(environment()), file=sys.stderr)

    scratch_root = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         Bench(root, scratch, reference), units)
    except SetupError as err:
        print("bench: set-up failed: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
