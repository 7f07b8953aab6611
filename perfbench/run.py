"""alexkit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload fox_long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The workload runs in a child process
(perfbench/worker.py) with BLAS/OpenMP threads pinned to 1; set-up is
timed in that process and in a few extra ones that stop after set-up, and
the median is reported.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones; the lines
before it name every metric with its unit, the failed ratio with its
base, the latency sample count, the run's facts and the corpus digest.

--smoke runs every workload briefly, untraced, traced and with corrupted
reference values, and checks the output against BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("fox_long", "burau_multivar", "tangle_spans", "cli_mixed")

END_TO_END = (("inputs_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Extra processes per run that only set up, so setup_s is a median.
SETUP_PROBES = 2

# A workload process that has not finished by then is killed.
CHILD_LIMIT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args):
    """Start a worker, time it to its READY line, wait for it to end.
    Returns (set-up seconds, the JSON object it printed last or None)."""
    cmd = [sys.executable, str(WORKER)] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError("worker %s exited with code %s" % (args, code))
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run_workload(workload, seed, seconds, trace, smoke=False, corrupt=False):
    """One benchmark run; returns (result object, report lines)."""
    base = ["--workload", workload, "--seed", str(seed)]
    probes = 0 if smoke else SETUP_PROBES
    raw_setups, setups = [], []
    for _ in range(probes):
        setup, out = run_child(base + ["--seconds", "0", "--probe"])
        raw_setups.append(setup)
        setups.append(setup * out["setup_scale"])
    extra = (["--smoke"] if smoke else []) + (["--corrupt"] if corrupt else [])
    setup, out = run_child(base + ["--seconds", str(seconds), "--trace",
                                   str(trace)] + extra)
    if out is None:
        raise BenchError("worker printed no result")
    raw_setups.append(setup)
    setups.append(setup * out["setup_scale"])
    measured = dict(out["metrics"], setup_s=statistics.median(setups))
    declared = layertrace.METRICS if trace else END_TO_END
    missing = [name for name, _ in declared if name not in measured]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in declared}
    attempted, failed = out["attempted"], out["failed"]
    lines = [
        "workload=%s seed=%d seconds=%s trace=%d nproc=%s python=%s "
        "numpy=%s alexkit=%s" % (workload, seed, seconds, trace,
                                 out["nproc"], out["python"], out["numpy"],
                                 out["alexkit"]),
        "corpus: %d inputs, sha256 %s" % (out["corpus_size"],
                                          out["corpus_digest"]),
        "failed_ratio: %d failed / %d attempted = %.6f"
        % (failed, attempted, failed / attempted),
    ]
    if out["latency_samples"] is not None:
        lines.append("latency samples: %d (%d beyond p90)"
                     % (out["latency_samples"], out["latency_samples"] // 10))
    lines.append("setup samples (s, as measured): %s"
                 % " ".join("%.4f" % s for s in raw_setups))
    for name, value in out["unscaled"].items():
        lines.append("as measured: %s = %.6g" % (name, value))
    for name, entry in metrics.items():
        lines.append("%s = %.6g %s" % (name, entry["value"], entry["unit"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def smoke():
    """Every workload briefly: the metrics BENCHMARK.json declares are all
    emitted with their units, results pass on the seed corpus, and a
    corrupted reference value is counted as a failure."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_workload(workload, 1, 1, trace, smoke=True)
            for entry in spec[key]:
                got = result["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append("%s trace=%d: %s missing or not in %s"
                                    % (workload, trace, entry["name"],
                                       entry["unit"]))
            extra = set(result["metrics"]) - {e["name"] for e in spec[key]}
            if extra:
                problems.append("%s trace=%d: undeclared metrics %s"
                                % (workload, trace, sorted(extra)))
            if not result["correct"] or result["attempted"] < 1:
                problems.append("%s trace=%d: %d of %d inputs failed"
                                % (workload, trace, result["failed"],
                                   result["attempted"]))
        result, _ = run_workload(workload, 1, 1, 0, smoke=True, corrupt=True)
        if result["failed"] != result["attempted"]:
            problems.append("%s: only %d of %d inputs failed against "
                            "corrupted references" % (workload,
                                                      result["failed"],
                                                      result["attempted"]))
    for line in problems:
        print("smoke: " + line)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="alexkit benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-check of the benchmark")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alexkit" / "__init__.py").is_file():
        print("perfbench: no alexkit sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
