"""Small-size smoke test of the benchmark command.

Each workload runs on a few queries.  The test checks that every metric
BENCHMARK.json names is emitted with its unit, that no answer is wrong
(failed_frac is 0), and that two traced runs of one seed give identical
counts, under different string-hash seeds.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "search_nodes", "pairs_searched")


def run_bench(workload, trace, seed=3, queries=8, hash_seed="0"):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--queries", str(queries)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def table_value(lines, name):
    for line in lines:
        parts = line.split()
        if parts and parts[0] == name:
            return float(parts[1]), parts[2]
    raise AssertionError(f"{name} missing from the report")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    res, table = run_bench(workload, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 8
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert table_value(table, "failed_frac") == (0.0, "ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, _ = run_bench(workload, trace=1, hash_seed="1")
    second, _ = run_bench(workload, trace=1, hash_seed="2")
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k in want if k.endswith(COUNTS)]
    assert counts
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})
