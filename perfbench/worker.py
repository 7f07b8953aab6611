"""One workload in its own process: set up, time whole passes over the
workload's inputs in a closed loop with one client, then check every
result.

Protocol on stdout: the line READY once set-up is done (the parent times
set-up up to it), then one JSON line with the run's counts, metrics and
run facts.  The parent sets PYTHONPATH to the checkout's `src` and pins
BLAS/OpenMP threads to 1 before this process starts.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from fractions import Fraction

import numpy

import alexkit
import layertrace as tracing
import workloads

# On a shared host the speed of plain Python code can drift by 40%
# within minutes, and every timing drifts with it.  A fixed pure-Python
# kernel is timed next to the work, and end-to-end times are scaled as if
# the kernel had taken REF_CALIB_S.
REF_CALIB_S = 0.007
CALIB_EVERY_S = 0.5
CALIB_SAMPLES = 5


def calibrate():
    """Seconds for the calibration kernel: Fraction arithmetic and dict
    updates, the operations alexkit spends its time on.  The collector is
    off so that the program's heap size cannot change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = {}
        t0 = time.perf_counter()
        for i in range(1500):
            acc[i % 97] = acc.get(i % 97, Fraction(0)) + Fraction(i, 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The median of the latest calibration samples, refreshed between
    inputs every CALIB_EVERY_S."""

    def __init__(self):
        self.samples = deque(maxlen=CALIB_SAMPLES)
        self.due = 0.0

    def refresh(self):
        if time.perf_counter() >= self.due:
            self.samples.append(calibrate())
            self.due = time.perf_counter() + CALIB_EVERY_S

    def scale(self):
        """Factor from measured seconds to reference seconds."""
        return REF_CALIB_S / statistics.median(self.samples)


def _timed(case, api):
    try:
        return workloads.execute(case, api), None
    except Exception as exc:  # counted as a failed input; the run goes on
        return None, exc


def _fits(start, last, seconds):
    """Another pass as long as the last one ends within `seconds`."""
    return time.perf_counter() - start + last <= seconds


def timed_passes(cases, api, seconds):
    """Closed loop, one client: whole passes over the inputs while the
    next one fits in `seconds` (at least one).  Returns every run and
    every latency grouped by input, measured and scaled."""
    runs = []
    raw, scaled = [[] for _ in cases], [[] for _ in cases]
    speed = Speed()
    clock = time.perf_counter
    start = clock()
    last = 0.0
    while not runs or _fits(start, last, seconds):
        p0 = clock()
        for i, case in enumerate(cases):
            speed.refresh()
            t0 = clock()
            out, err = _timed(case, api)
            dt = clock() - t0
            raw[i].append(dt)
            scaled[i].append(dt * speed.scale())
            runs.append((case, out, err))
        last = clock() - p0
    return runs, raw, scaled


def latency_metrics(latencies):
    """inputs_per_s, latency_p50_s and latency_p90_s from latencies
    grouped by input."""
    # A pass made of each input's median time: robust to a burst of load
    # from outside that slows one pass.
    busy = sum(statistics.median(times) for times in latencies)
    pooled = [x for times in latencies for x in times]
    deciles = statistics.quantiles(pooled, n=10, method="inclusive")
    return {"inputs_per_s": len(latencies) / busy,
            "latency_p50_s": statistics.median(pooled),
            "latency_p90_s": deciles[8]}


def traced_passes(cases, api, seconds):
    """An untraced pass to warm caches, then pairs of passes over the
    inputs, one untraced and one traced, the first of a pair alternating,
    while the next pair fits in `seconds` (at least one)."""
    tracer = tracing.Tracer(api)
    runs, totals = [], {}
    clock = time.perf_counter
    wall = {False: 0.0, True: 0.0}
    root_time = 0.0
    pairs = 0
    start = clock()
    for case in cases:
        out, err = _timed(case, api)
        runs.append((case, out, err))
    last = 0.0
    while pairs == 0 or _fits(start, last, seconds):
        p0 = clock()
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                t0 = clock()
                for case in cases:
                    if traced:
                        try:
                            out, err = tracer.run_input(
                                case.ident, workloads.execute, case, api), None
                        except Exception as exc:
                            out, err = None, exc
                    else:
                        out, err = _timed(case, api)
                    runs.append((case, out, err))
                wall[traced] += clock() - t0
            finally:
                tracer.uninstall()
        last = clock() - p0
        pairs += 1
        root_time += tracing.aggregate(tracer.take(), totals)
    metrics = tracing.per_input(totals, pairs * len(cases))
    metrics["trace.overhead_ratio"] = wall[True] / wall[False] - 1
    metrics["trace.accounted_ratio"] = root_time / wall[True]
    return runs, metrics


def check_runs(runs, checker):
    """Check each distinct input once; a repeat must match the first
    result.  Returns (attempted, failure descriptions)."""
    verdicts = {}
    failures = []
    for case, out, err in runs:
        if err is not None:
            failures.append("input %d raised %s: %s"
                            % (case.ident, type(err).__name__, err))
            continue
        fp = workloads.fingerprint(case, out)
        if case.ident not in verdicts:
            problem = None
            try:
                workloads.check(case, out, checker)
            except Exception as exc:  # a mismatch or a crash in the check
                problem = "failed its check: %s: %s" % (type(exc).__name__,
                                                        exc)
            verdicts[case.ident] = (problem, fp)
        else:
            problem, first = verdicts[case.ident]
            if problem is None and fp != first:
                problem = "changed its result on a repeat"
        if problem:
            failures.append("input %d %s" % (case.ident, problem))
    return len(runs), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="exit once set-up is done")
    parser.add_argument("--smoke", action="store_true",
                        help="run only a few of the inputs")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb every reference value")
    args = parser.parse_args(argv)

    workdir = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        rng = random.Random(args.seed)
        cases = workloads.make_corpus(args.workload, rng, workdir)
        digest = hashlib.sha256(
            workloads.corpus_digest_text(cases).encode()).hexdigest()
        api = workloads.make_api()
        for case in workloads.warmup_cases(args.workload):
            workloads.execute(case, api)
        print("READY", flush=True)
        calib = statistics.median(calibrate() for _ in range(CALIB_SAMPLES))
        if args.probe:
            print(json.dumps({"setup_scale": REF_CALIB_S / calib}))
            return 0

        if args.smoke:
            cases = cases[::len(cases) // 8 or 1]
        if args.trace:
            runs, metrics = traced_passes(cases, api, args.seconds)
            unscaled, samples = {}, None
        else:
            runs, raw, scaled = timed_passes(cases, api, args.seconds)
            metrics = latency_metrics(scaled)
            unscaled = latency_metrics(raw)
            samples = sum(len(times) for times in raw)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
        attempted, failures = check_runs(
            runs, workloads.Checker(corrupt=args.corrupt))
        for line in ([] if args.corrupt else failures[:20]):
            print("failure: " + line, file=sys.stderr)
        print(json.dumps({
            "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "unscaled": unscaled,
            "setup_scale": REF_CALIB_S / calib, "latency_samples": samples,
            "corpus_size": len(cases), "corpus_digest": digest,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "alexkit": alexkit.__version__,
        }), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
