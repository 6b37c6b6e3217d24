"""The gammaspace benchmark: time to a correct verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one caller: each pass is a fresh interpreter
(worker.py) that builds the workload's inputs from the seed and runs its
cases once, back to back, like one `gammaspace` or CI invocation.  Passes
repeat until S seconds have gone by, and at least MIN_PASSES times.  The last line of standard
output is one JSON object:

  --trace 0  the end-to-end metrics.  On a shared host the same code
             runs 20-50% slower for stretches of seconds to minutes, so
             times are given at a fixed machine speed: each pass times a
             fixed pure-Python loop between cases (worker.py), and its
             times are scaled by REF_S over that pass's median loop time.
             Every case counts with its median scaled latency over the
             passes: wall_s is their sum, case_s.p50 and case_s.tail are
             percentiles over the cases.  setup_s is the median scaled
             set-up time of the passes, peak_rss_mb their median RSS;
  --trace 1  one untraced pass, one counting pass (tracer.py), then timing
             passes; the counters of the counting pass, the calls, times
             and failures of the timing passes (medians), and
             trace.overhead, timing-pass over untraced wall time.

`correct` requires every case of every pass to match its known answer and
every pass to give the same verdict digest, traced or not.  Exits 1
without a result when a pass cannot run (for instance when the library
source is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
TAIL_CASES = 10  # cases that must lie above the tail percentile
# The reference loop's time at the speed times are given at: about its
# median on a 2-core x86_64 VM with Python 3.11, so the scaled figures are
# close to that machine's seconds.
REF_S = 0.0007

sys.path.insert(0, BENCH_DIR)
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, trace):
    """Start one worker (trace: None, "time" or "count") and return (its
    result, seconds from launch to the first case)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed)] + (["--trace", trace] if trace else [])
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["first"] - launched


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n):
    """The highest whole percentile that leaves TAIL_CASES of n cases above
    it.  A workload draws the same number of cases for every seed, so this
    is fixed per workload."""
    return max(q for q in range(1, 100) if n - math.ceil(q / 100 * n) >= TAIL_CASES)


def measure(workload, seed, seconds, trace):
    start = time.monotonic()
    passes = []  # (result, setup seconds, tracer mode)
    modes = [None, "count"] if trace else []
    min_passes = 3 if trace else MIN_PASSES
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        mode = modes[len(passes)] if len(passes) < len(modes) else ("time" if trace else None)
        result, setup = run_pass(workload, seed, mode)
        passes.append((result, setup, mode))

    rows = [row for p in passes for row in p[0]["cases"]]
    digests = {p[0]["digest"] for p in passes}
    correct = all(ok for _, _, ok in rows) and len(digests) == 1
    failed = sum(1 for _, _, ok in rows if not ok)
    if trace:
        metrics = layer_metrics(passes)
    else:
        q = tail_percentile(len(passes[0][0]["cases"]))
        metrics = end_to_end(passes, q)
        sys.stderr.write(f"{workload}: {len(passes)} passes of {len(passes[0][0]['cases'])} "
                         f"cases, case_s.tail is p{q}\n")
    return {"correct": correct, "attempted": len(rows), "failed": failed,
            "metrics": metrics}


def end_to_end(passes, q):
    def scale(p):
        return REF_S / p[0]["ref_s"]

    # every pass runs the same cases in the same order
    scaled = ([row[1] * scale(p) for row in p[0]["cases"]] for p in passes)
    latencies = sorted(statistics.median(case) for case in zip(*scaled))
    values = {
        "wall_s": sum(latencies),
        "case_s.p50": statistics.median(latencies),
        "case_s.tail": nearest_rank(latencies, q),
        "setup_s": statistics.median(p[1] * scale(p) for p in passes),
        "peak_rss_mb": statistics.median(p[0]["rss_kb"] / 1024 for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(passes):
    def of(mode):
        return [r for r, _, m in passes if m == mode]

    def wall(results):
        return statistics.median(r["last"] - r["first"] for r in results)

    timed = of("time")
    values = dict(of("count")[0]["layers"])
    values.update({name: statistics.median(r["layers"][name] for r in timed)
                   for name in timed[0]["layers"]})
    values["trace.overhead"] = wall(timed) / wall(of(None))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
