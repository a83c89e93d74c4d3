"""A tiny run of each workload emits every metric BENCHMARK.json names, with
its unit, and passes its own correctness checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("engine_batch", 0), ("engine_batch", 1), ("serve_reads", 0), ("serve_mixed", 1)],
)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workloads_record_covers_every_workload():
    record = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    kept = {w["name"] for w in SPEC["workloads"]}
    assert kept <= set(record)
    for name in set(record) - kept:
        assert "dropped" in record[name], f"{name} is neither benchmarked nor marked dropped"


def test_without_the_program_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_reads", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
