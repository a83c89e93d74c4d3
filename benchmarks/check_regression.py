#!/usr/bin/env python
"""Compare a fresh BENCH_compose.json against the committed baseline.

Usage::

    python benchmarks/check_regression.py CURRENT.json [BASELINE.json]

CI runners differ wildly in absolute speed, so raw wall-clock seconds are
reported but not gated.  What is gated:

* **structural metrics must match exactly** — operator counts and eliminated
  fractions are deterministic, so any drift means the algorithm's outputs
  changed;
* **work counts must match exactly** — the engine benchmark counts nodes
  summarized, substitution walks, simplify walks, constraint sets built and
  normalization attempts on its acceptance workload and over one editing
  study, the text benchmark counts nodes summarized and node digests
  while 64 problem records are parsed and fingerprinted, and the
  replication benchmark counts the requests and journal segment reads an
  idle follower's poll and status cost its primary; the counts repeat
  exactly across runs and hash seeds, so a drift means the work changed
  (refresh the baseline when a change means to);
* **scale-free ratios must not regress by more than 25%** — the batch-
  vs-serial, planner, incremental and warm-restart speedups compare two
  measurements taken on the same machine in the same process, so they are
  stable across hosts.

Exits non-zero on any violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Metrics compared exactly (deterministic outputs of the algorithm).
EXACT_METRICS = {
    "figure6": (
        "fractions_complete",
        "fractions_no_view_unfolding",
        "fractions_no_right_compose",
    ),
    "figure7": ("fractions",),
    "engine_chain_batch": (
        "output_operator_count",
        "problems",
        "nodes_summarized",
        "substitution_walks",
        "simplify_walks",
        "constraint_sets_built",
        "normalize_attempts",
    ),
    "editing_study_work": (
        "nodes_summarized",
        "substitution_walks",
        "simplify_walks",
        "constraint_sets_built",
        "normalize_attempts",
    ),
    "textio_parse_work": ("records", "nodes_summarized", "node_digests"),
    "replication_idle_work": (
        "stored_results",
        "idle_poll_requests",
        "status_requests",
        "idle_poll_segment_reads",
    ),
    "engine_partitioned": (
        "problems",
        "components_per_problem",
        "components_total",
        "outputs_equivalent",
        "output_operator_count",
    ),
    "evolution_incremental": (
        "edits",
        "hops_total",
        "hops_replayed",
        "hops_replayed_ratio",
        "outputs_identical",
        "final_operator_count",
    ),
    "service_warm_restart": (
        "hops_total",
        "hops_replayed_warm",
        "outputs_identical",
        "disk_checkpoints",
        "final_operator_count",
    ),
    "service_swarm": (
        "processes",
        "rounds",
        "requests_total",
        "outputs_identical",
        "lost_versions",
        "composed_versions",
    ),
    "service_chaos": (
        "processes",
        "rounds",
        "requests_total",
        "outputs_identical",
        "lost_versions",
        "composed_versions",
    ),
    "service_failover": (
        "processes",
        "writes_total",
        "writes_acknowledged",
        "outputs_identical",
        "lost_versions",
        "failovers_observed",
    ),
    "service_election": (
        "processes",
        "writes_total",
        "writes_acknowledged",
        "outputs_identical",
        "lost_versions",
        "stale_epoch_rejected",
    ),
}

#: Metrics gated as ratios: current must be >= baseline * (1 - tolerance).
RATIO_METRICS = {
    "engine_chain_batch": ("batch_speedup_vs_serial",),
    "engine_partitioned": ("partitioned_speedup",),
    "evolution_incremental": ("incremental_speedup",),
    "service_warm_restart": ("warm_speedup",),
}

TOLERANCE = 0.25


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    current_path = Path(argv[1])
    baseline_path = (
        Path(argv[2]) if len(argv) > 2 else Path(__file__).parent / "BENCH_compose.json"
    )
    current_payload = json.loads(current_path.read_text())
    baseline_payload = json.loads(baseline_path.read_text())
    current = current_payload["workloads"]
    baseline = baseline_payload["workloads"]

    failures = []
    if current_payload.get("params") != baseline_payload.get("params"):
        failures.append(
            "workload params differ: current "
            f"{current_payload.get('params')} vs baseline {baseline_payload.get('params')} "
            "(set REPRO_BENCH_* to the baseline's values)"
        )
    for workload, metrics in EXACT_METRICS.items():
        if workload not in current or workload not in baseline:
            failures.append(f"{workload}: missing from current or baseline results")
            continue
        for metric in metrics:
            got = current[workload].get(metric)
            want = baseline[workload].get(metric)
            if got != want:
                failures.append(f"{workload}.{metric}: expected {want!r}, got {got!r}")

    for workload, metrics in RATIO_METRICS.items():
        for metric in metrics:
            got = current.get(workload, {}).get(metric)
            want = baseline.get(workload, {}).get(metric)
            if got is None or want is None:
                failures.append(f"{workload}.{metric}: missing measurement")
                continue
            floor = want * (1.0 - TOLERANCE)
            if got < floor:
                failures.append(
                    f"{workload}.{metric}: {got:.4f} regressed more than "
                    f"{TOLERANCE:.0%} below the baseline {want:.4f} (floor {floor:.4f})"
                )

    def _wall(record: dict):
        for metric in (
            "wall_seconds",
            "batch_seconds",
            "incremental_seconds",
            "partitioned_seconds",
            "cold_seconds",
            "swarm_seconds",
            "chaos_seconds",
            "failover_seconds",
            "election_seconds",
        ):
            if record.get(metric) is not None:
                return record[metric]
        return None

    for workload in sorted(set(current) | set(baseline)):
        cur_s = _wall(current.get(workload, {}))
        base_s = _wall(baseline.get(workload, {}))
        print(f"{workload:24s} baseline {base_s!s:>10}s  current {cur_s!s:>10}s")

    if failures:
        print("\nREGRESSIONS DETECTED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno regressions against the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
