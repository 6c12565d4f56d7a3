"""Smoke test of the benchmark at a tiny corpus (600 entities).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--entities", "600",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(lines[-2]), json.loads(lines[-1])


def _names(group: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[group]}


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("kg_pipeline", 0),
        ("kg_rebuild", 0),
        ("kg_rebuild_dist", 0),
        ("docs_dedup", 0),
        ("kg_rebuild", 1),
    ],
)
def test_bench_reports_every_metric_and_matching_outputs(workload, trace):
    full, result = _bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert full["report"]["outputs_match"] == 1
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    for key in ("nproc", "logical_cpus", "ray_version", "n_entities", "seed"):
        assert key in full["run"]
