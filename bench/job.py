"""One benchmark job, run by run.py in a fresh interpreter.

    python3 bench/job.py OUT KIND [ARG ...] [--trace]

KIND is one of
  import                  import localvertex and exit (set-up probe)
  gw_m2 R1 R2             gw_extract(r, 2, 7, 3) for both r, one fresh SCache
  exceptional             tilde_pt0(11, 6) with a fresh SCache
  verify R DIR REPORT     localvertex verify --all --r R --m-max 1 --Q-order 9
                          --cache-dir DIR --out REPORT

Every job runs in its own process because vertex._default_cache and the
lru_caches in symmfun live for the life of the interpreter.  OUT receives
a JSON object: the perf_counter reading when ``import localvertex``
returned (the parent took one just before spawning, and perf_counter is
CLOCK_MONOTONIC, shared by all processes), the job's exit status, the
sha256 of each exact result, the pacing probes (pace.py) taken from
before the import to the end of the job, and with --trace the per-layer
metrics.
"""

import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import pace

PACER = pace.start()  # before the import, so set-up is paced too

import localvertex  # noqa: E402

T_IMPORT = time.perf_counter()


def digest(document) -> str:
    """sha256 of the canonical JSON of an exact result."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def exact(x):
    """A scalar as [re_num, re_den, im_num, im_den], whatever type holds it."""
    re, im = (x.re, x.im) if hasattr(x, "im") else (x, 0)
    re, im = Fraction(re), Fraction(im)
    return [re.numerator, re.denominator, im.numerator, im.denominator]


def series_value(s):
    """A (nested) truncated series by value: its order and stored coefficients.

    TruncSeries stores no zero coefficient, so equal series give equal values.
    """
    if not hasattr(s, "coeffs"):
        return exact(s)
    return {"order": s.order, "coeffs": {str(d): series_value(c) for d, c in s.coeffs.items()}}


def run(kind, args):
    """Run one job; returns (exit status, hashes, verify's passed flag)."""
    from localvertex import cli, gwtheory, vertex

    if kind == "import":
        return 0, {}, None
    if kind == "gw_m2":
        cache = vertex.SCache()
        hashes = {}
        for r in map(int, args):
            hashes[str(r)] = digest(gwtheory.gw_extract(r, 2, 7, 3, cache=cache).to_json())
        return 0, hashes, None
    if kind == "exceptional":
        result = gwtheory.tilde_pt0(11, 6, cache=vertex.SCache())
        return 0, {"tilde_pt0": digest(series_value(result))}, None
    if kind == "verify":
        r, directory, report = args
        status = cli.main([
            "verify", "--all", "--r", r, "--m-max", "1", "--Q-order", "9",
            "--cache-dir", directory, "--out", report,
        ])
        with open(report) as fh:
            document = json.load(fh)
        document.pop("generated_at", None)
        return status, {r: digest(document)}, document.get("passed")
    raise SystemExit("unknown job kind %r" % kind)


def main(argv):
    trace = "--trace" in argv
    out, kind, *args = [a for a in argv if a != "--trace"]
    source = os.path.join(os.getcwd(), "src", "localvertex")
    if os.path.dirname(os.path.abspath(localvertex.__file__)) != source:
        raise SystemExit("localvertex imported from %s, not %s" % (localvertex.__file__, source))
    tracer = None
    if trace:
        import spans

        tracer = spans.install(localvertex)
    status, hashes, passed = run(kind, args)
    record = {"t_import": T_IMPORT, "exit": status, "hashes": hashes, "passed": passed}
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["span_calls"] = tracer.span_table()
    record["probes"] = PACER.stop()
    with open(out, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
