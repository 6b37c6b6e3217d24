"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace time|count]

Builds the workload's inputs from the seed, runs its cases once, back to
back, checks each fingerprint against golden.json, and prints one JSON
line: the monotonic clock at the first case and after the last verdict,
per-case latency and correctness, the median time of the reference loop
run between cases, a digest of every fingerprint, the peak RSS and, with
--trace, the per-layer metrics of that tracer mode.  run.py
starts one of these per pass, so no in-process memo survives from one
pass to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gammaspace

    if not os.path.abspath(gammaspace.__file__).startswith(src + os.sep):
        raise ImportError(f"gammaspace imported from {gammaspace.__file__}, not {src}")


REF_EVERY_S = 0.01  # time the reference loop at the first case boundary after this long


def reference_loop():
    """Seconds one fixed pure-Python loop takes.  Timed between cases, it
    tracks how fast the shared core runs at the moment; it calls no
    library code, so no change to the library moves it."""
    t0 = time.perf_counter()
    totals = {}
    for i in range(6000):
        totals[i % 97] = totals.get(i % 97, 0) + i
    return time.perf_counter() - t0


def run_pass(workload, seed, trace):
    import workloads

    with open(os.path.join(os.path.dirname(__file__), "golden.json")) as fh:
        golden = json.load(fh)[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    cases = workloads.build(workload, seed, ROOT)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(counting=trace == "count").install()
        tracer.case_ids = [c.key for c in cases]
    observed = []
    rows = []
    refs = []
    last_ref = float("-inf")
    first = time.monotonic()
    for index, case in enumerate(cases):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_loop())
            last_ref = time.perf_counter()
        if tracer is not None:
            tracer.case = index
        t0 = time.perf_counter()
        try:
            fingerprint = json.loads(json.dumps(case.run()))
        except Exception:  # a raising case is a failed case; keep going
            traceback.print_exc()
            fingerprint = {"error": traceback.format_exc(limit=1)}
        seconds = time.perf_counter() - t0
        observed.append([case.key, fingerprint])
        ok = case.key in golden and fingerprint == golden[case.key]
        if not ok:
            print(f"{workload}: case {case.key} gave {fingerprint!r}, "
                  f"expected {golden.get(case.key)!r}", file=sys.stderr)
        rows.append([case.key, seconds, ok])
    last = time.monotonic()
    result = {
        "first": first,
        "last": last,
        "cases": rows,
        "ref_s": statistics.median(refs),
        "digest": hashlib.sha256(json.dumps(observed, sort_keys=True).encode()).hexdigest(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}.bin"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", choices=["time", "count"])
    args = parser.parse_args(argv)
    load_library()
    os.chdir(ROOT)  # command-line inputs are addressed relative to the root
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))


if __name__ == "__main__":
    main()
