"""Self-tests of the benchmark (not of the library):

    python3 -m pytest bench/test_bench.py -q

They start real passes, about two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from metrics import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(workload, seed, *flags):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                           "--workload", workload, "--seed", str(seed), *flags],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def traced():
    # one untraced, one counting and one timing pass per workload;
    # `correct` includes the three passes giving the same verdict digest
    return {w: result_of(bench("--workload", w, "--seed", "1", "--seconds", "0",
                               "--trace", "1")) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_verdicts_agree(traced, workload):
    out = traced[workload]
    assert out["correct"] and out["failed"] == 0
    assert out["metrics"]["trace.overhead"]["value"] > 1


def test_per_layer_names_match_benchmark_json(traced):
    want = declared("per_layer")
    for out in traced.values():
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_end_to_end_names_match_benchmark_json():
    out = result_of(bench("--workload", "gamma-laws", "--seed", "1", "--seconds", "0"))
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_latencies_are_given_at_the_reference_speed():
    # a pass on a core running at half speed: the reference loop, set-up and
    # every case take twice as long, and the end-to-end figures do not move
    import run

    def one_pass(ref_s, slowdown):
        cases = [[key, seconds * slowdown, True]
                 for key, seconds in (("a", 0.01), ("b", 0.03), ("c", 0.02))]
        return {"cases": cases, "ref_s": ref_s, "rss_kb": 1024}, 0.1 * slowdown, None

    quiet = run.end_to_end([one_pass(run.REF_S, 1)] * 3, 50)
    slow = run.end_to_end([one_pass(2 * run.REF_S, 2)] * 3, 50)
    for name, metric in quiet.items():
        assert slow[name]["value"] == pytest.approx(metric["value"]), name
    assert quiet["wall_s"]["value"] == pytest.approx(0.06)


def drawn(workload, seed):
    import workloads

    return {c.key for c in workloads.build(workload, seed, ROOT)}


def test_second_seed_draws_other_inputs():
    # gamma-laws and cli draw commands and level families from the seed
    for workload in ("gamma-laws", "cli"):
        assert drawn(workload, 1) != drawn(workload, 2), workload


def test_second_seed_relabels_the_categories(monkeypatch):
    # cocart-lift runs the same diagrams on every seed, under fresh names
    import workloads

    names = []
    relabel = workloads.relabel_category

    def recording(cat, rng):
        copy, objs = relabel(cat, rng)
        names.append(tuple(objs.values()))
        return copy, objs

    monkeypatch.setattr(workloads, "relabel_category", recording)
    one = (drawn("cocart-lift", 1), names[:])
    names.clear()
    two = (drawn("cocart-lift", 2), names[:])
    assert one[1] and len(one[1]) == len(two[1])
    assert all(a != b for a, b in zip(one[1], two[1]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_stays_correct(workload):
    rows = worker(workload, 2)["cases"]
    assert [key for key, _, ok in rows if not ok] == []


def test_counts_repeat_exactly():
    one = worker("cocart-lift", 1, "--trace", "count")["layers"]
    two = worker("cocart-lift", 1, "--trace", "count")["layers"]
    assert one == two and one["simplicial.act.repeat_share"] > 0


def test_workload_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert [w["name"] for w in json.load(fh)["workloads"]] == WORKLOADS


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gamma-laws", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
