"""Record the known answers in golden.json.

    python3 bench/golden.py

Runs every case any seed can draw, with canonical labels, refuses to
record a fingerprint whose status differs from what theory predicts
(`workloads.theory_ok`), and writes the fingerprints keyed by case.  Run
it only on a commit whose verdicts are trusted; a change that alters a
fingerprint shows up as a failed case in every benchmark run.
"""

from __future__ import annotations

import json
import os
import sys
import time

from metrics import WORKLOADS
from worker import ROOT, OUT_DIR, load_library


def main():
    load_library()
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    golden = {}
    for workload in WORKLOADS:
        table = golden[workload] = {}
        for case in workloads.pool(workload, ROOT):
            t0 = time.perf_counter()
            fingerprint = json.loads(json.dumps(case.run()))
            print(f"{workload:20s} {case.key:45s} {time.perf_counter() - t0:7.3f}s",
                  file=sys.stderr)
            if not workloads.theory_ok(case.key, fingerprint):
                raise SystemExit(f"{workload}/{case.key}: {fingerprint!r} contradicts theory")
            if table.setdefault(case.key, fingerprint) != fingerprint:
                raise SystemExit(f"{workload}/{case.key}: two fingerprints for one key")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
