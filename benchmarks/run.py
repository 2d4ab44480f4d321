#!/usr/bin/env python3
"""liequad benchmark: one caller, closed loop, seeded workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload exp --seed 1 --seconds 36 --trace 0

The run imports ``liequad`` from the checkout's ``src``, then repeats passes
until the next one would end past ``--seconds``; every pass draws fresh
inputs from (seed, pass index), builds fresh objects, calls the workload's
routes one after another and checks every emitted sample against an
independent reference outside the timed section.  The last line of standard
output is the result as JSON; the line before it records the environment
and the raw per-pass figures.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` alternates an untraced pass with a traced pass on the same
inputs and reports the per-layer metrics; the spans of the first traced pass
are written to ``.bench_trace/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools must be sized before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("exp", "long-flow", "reconstruct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


IMPORT_PROBES = 3
_IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import liequad, liequad.reconstruct\n"
    "print(time.perf_counter() - t0)\n"
)


def import_package():
    """Import liequad from the checkout; returns the seconds the import took."""
    if not (SRC / "liequad" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no liequad package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import liequad
    import liequad.reconstruct  # noqa: F401  (pulls in every other module)
    seconds = time.perf_counter() - t0
    if Path(liequad.__file__).resolve().parent != SRC / "liequad":
        raise SystemExit(f"benchmark: liequad imported from {liequad.__file__}, not {SRC}")
    return seconds


def probe_imports():
    """Scaled import times of liequad in fresh interpreters, one after another."""
    gauge = SpeedGauge()
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]) * gauge.speed())
    return out


# -- machine speed -------------------------------------------------------------------
#
# The machine this runs on is shared, and its speed drifts by tens of per
# cent over minutes, in wall and in CPU time alike.  Every timed interval
# (a route call, a pass's set-up, an import) is bracketed by a fixed
# calibration loop that uses no liequad code, and its time is scaled by
# CALIBRATION_REF_S over the loop's mean time around it: times are reported
# in seconds of a machine on which the loop takes CALIBRATION_REF_S.  The
# unscaled wall times are kept in the info line.

CALIBRATION_REPS = 1000
CALIBRATION_REF_S = 0.05  # about the loop's median time on the 2-core x86-64 VM it was written on


def calibrate():
    """Seconds taken by a fixed loop of small dense solves, like the package's inner loops."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((12, 9)), rng.standard_normal(12)
    m, v = rng.standard_normal((6, 6)) + 6.0 * np.eye(6), rng.standard_normal(6)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(CALIBRATION_REPS):
        x = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]
        y = np.linalg.solve(m, v)
        acc += float(np.linalg.norm(np.concatenate([x, y])))
    return time.perf_counter() - t0


class SpeedGauge:
    """Calibration loops between consecutive measurements, each loop shared by two."""

    def __init__(self):
        self.last = calibrate()

    def speed(self):
        """CALIBRATION_REF_S over the mean loop time around the interval just ended."""
        now = calibrate()
        speed = 2.0 * CALIBRATION_REF_S / (self.last + now)
        self.last = now
        return speed


# -- one pass ----------------------------------------------------------------------


def run_pass(build, seed, index, tracer=None, compare_to=None):
    """Build and run one pass; returns its set-up time and per-call records.

    With a tracer, spans are recorded during the route calls only, and the
    emitted samples are compared with those of ``compare_to`` (the untraced
    pass on the same inputs) instead of recomputing the reference.
    """
    rng = np.random.default_rng([seed, index])
    gauge = SpeedGauge()
    t0 = time.perf_counter()
    calls = build(rng)
    setup_s = (time.perf_counter() - t0) * gauge.speed()
    records = []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, error = call.run(), None
        except Exception as exc:  # a failing route call is a result, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            wall_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        speed = gauge.speed()
        rec = {"route": call.route, "wall_s": wall_s, "seconds": wall_s * speed,
               "speed": speed, "samples": 0, "sup_err": None, "ok": False,
               "error": error, "ref_kind": call.ref_kind, "ref_s": 0.0, "rows": None}
        records.append(rec)
        if out is not None:
            try:
                check(call, out, rec, None if compare_to is None else compare_to[i]["rows"])
            except Exception as exc:  # malformed output fails the call
                rec["ok"], rec["error"] = False, f"checking the output: {type(exc).__name__}: {exc}"
    return setup_s, records


def check(call, out, rec, twin_rows):
    """Fill ``rec`` with the samples of ``out`` and the verdict on them.

    Against the independent reference, or, given ``twin_rows``, against the
    untraced output on the same inputs, which must match exactly.
    """
    rows = call.emitted(out)
    rec["samples"], rec["rows"] = len(rows), rows
    if twin_rows is not None:
        rec["ok"] = len(twin_rows) == len(rows) and all(
            np.array_equal(a, b) for a, b in zip(rows, twin_rows))
        if not rec["ok"]:
            rec["error"] = "traced output differs from the untraced output"
        return
    t0 = time.perf_counter()
    ref = call.reference()
    rec["ref_s"] = (time.perf_counter() - t0) * rec["speed"]
    if len(ref) != len(rows):
        rec["error"] = f"{len(rows)} samples emitted, {len(ref)} expected"
        return
    rec["sup_err"] = max(float(np.linalg.norm(a - b)) for a, b in zip(rows, ref))
    rec["ok"] = rec["sup_err"] <= call.tol
    if not rec["ok"]:
        rec["error"] = f"sup error {rec['sup_err']:.3e} above tolerance {call.tol:.1e}"


def drop_rows(records):
    """Forget the emitted samples once checked, so passes do not pile up memory."""
    for r in records:
        r["rows"] = None
    return records


def pass_sup_err(records):
    """Worst error of any sample a pass emitted; None when no call got checked."""
    errs = [r["sup_err"] for r in records if r["sup_err"] is not None]
    return max(errs) if errs else None


def accuracy_digits(sup_errs):
    """Median over passes of -log10 of the pass's worst error.

    The error of a converged solve varies from input to input by orders of
    magnitude, its logarithm by a few per cent.  Errors below double
    precision count as 1e-17; a run without a checked call reads 0 digits.
    """
    digits = [-math.log10(max(e, 1e-17)) for e in sup_errs if e is not None]
    return statistics.median(digits) if digits else 0.0


def run_loop(seconds, one_pass):
    """Run passes until the next, at the median pass length, would overrun."""
    start = time.perf_counter()
    lengths, results = [], []
    while not results or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        lengths.append(time.perf_counter() - t0)
    return results


# -- the two kinds of run ------------------------------------------------------------


def untraced_run(args, build, import_s):
    def one(k):
        setup_s, records = run_pass(build, args.seed, k)
        return setup_s, drop_rows(records)

    passes = run_loop(args.seconds, one)
    import_times = probe_imports()
    records = [r for _, recs in passes for r in recs]
    sup_errs = [pass_sup_err(recs) for _, recs in passes]
    metrics = {
        "ms_per_sample": layers.metric(statistics.median(layers.ms_per_sample(recs) for _, recs in passes), "ms"),
        "accuracy_digits": layers.metric(accuracy_digits(sup_errs), "digits"),
        "setup_s": layers.metric(statistics.median(import_times) + statistics.median(s for s, _ in passes), "s"),
        "peak_rss_mb": layers.metric(peak_rss_mb(), "MB"),
    }
    info = {
        "passes": len(passes),
        "pass_ms_per_sample": [layers.ms_per_sample(recs) for _, recs in passes],
        "pass_wall_ms_per_sample": [layers.ms_per_sample(recs, "wall_s") for _, recs in passes],
        "call_wall_s": [r["wall_s"] for r in records],
        "call_speed": [r["speed"] for r in records],
        "pass_sup_err": sup_errs,
        "import_s": import_s,
        "scaled_import_s": import_times,
        "pass_setup_s": [s for s, _ in passes],
    }
    return records, metrics, info


def traced_run(args, build):
    import tracing

    tracer = tracing.Tracer()
    first_spans = []

    def pair(k):
        _, plain = run_pass(build, args.seed, k)
        patch = tracing.Patch(tracer).install()
        try:
            tracer.reset()
            _, traced = run_pass(build, args.seed, k, tracer=tracer, compare_to=plain)
        finally:
            patch.uninstall()
        if not first_spans:
            first_spans.extend(tracer.spans)
        return drop_rows(plain), drop_rows(traced), tracing.summarize(tracer.spans)

    pairs = run_loop(args.seconds, pair)
    metrics = layers.per_layer_metrics(pairs)
    write_spans(args, first_spans)
    records = [r for plain, traced, _ in pairs for r in plain + traced]
    info = {"pairs": len(pairs), "spans_first_pass": len(first_spans)}
    return records, metrics, info


def write_spans(args, spans):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_row()) + "\n")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment():
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.trace:
        records, metrics, info = traced_run(args, build)
    else:
        records, metrics, info = untraced_run(args, build, import_s)
    failed = [r for r in records if not r["ok"]]
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, env=environment(),
                errors=sorted({f"{r['route']}: {r['error']}" for r in failed}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
