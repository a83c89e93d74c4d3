"""Benchmark: the serving layer's durability — cold start vs. warm restart.

The acceptance workload simulates a service restart: a mapping chain is
registered in a catalog, composed once through the composition service (cold
— every hop computed, every checkpoint written through to disk), and then the
whole serving stack is torn down and rebuilt on the same catalog root (a
fresh :class:`MappingCatalog` + :class:`CompositionService` is exactly what a
new process constructs — ``tests/test_cli.py`` proves the same reuse across
real processes).  The warm recomposition must

* replay **zero** hops (the persistent checkpoint store answers the deepest
  prefix probe from disk),
* produce byte-identical outputs, and
* be at least 2x faster end-to-end than the cold serve — asserted on process
  CPU time, as in the other engine benchmarks (both contenders are
  deterministic in-process work; wall-clock on busy CI runners drowns in
  scheduler noise), with wall-clock recorded alongside.  Cold serves and
  warm restarts alternate, best of ``ROUNDS`` each, so drift in the host's
  load hits both sides alike.

Recorded as the ``service_warm_restart`` workload in BENCH_compose.json:
structural metrics (hop counts, checkpoint counts, output identity, operator
count) are gated exactly by ``check_regression.py``; the cold/warm speedup is
gated as a scale-free ratio.
"""

import gc
import time

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower
from repro.service import CompositionService, ServiceConfig

#: The acceptance workload: one 14-hop chain over a 14-relation schema —
#: large enough that the cold composition dominates scheduling overhead.
#: Fixed (not env-tunable) so the gated structural metrics are deterministic.
NUM_HOPS = 14
SCHEMA_SIZE = 14
ROUNDS = 9


def _serve_once(root):
    """One full serving stack lifetime on ``root``: construct, serve, tear down.

    Returns (wall_seconds, cpu_seconds, result) of the served request.  The
    cyclic GC is paused over that call, as in ``test_bench_incremental``'s
    ``_timed``: the warm side is only milliseconds of CPU, so one
    generation-2 collection — whose cost scales with everything the
    surrounding pytest session has allocated — would swamp the gated ratio.
    """
    catalog = MappingCatalog(root)
    with CompositionService(catalog, ServiceConfig()) as svc:
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            result = svc.compose_catalog("chain", "history")
            wall_elapsed = time.perf_counter() - wall_started
            cpu_elapsed = time.process_time() - cpu_started
        finally:
            if gc_was_enabled:
                gc.enable()
    return wall_elapsed, cpu_elapsed, result


def test_bench_service_warm_restart(benchmark, bench_params, bench_record, tmp_path):
    chain = ChainGrower(seed=bench_params["seed"], schema_size=SCHEMA_SIZE).grow_many(
        NUM_HOPS + 1
    )

    # One warmed root: every later serve on it is a restart.
    warm_root = tmp_path / "warm"
    warm_catalog = MappingCatalog(warm_root)
    warm_catalog.put_chain("history", chain)
    _serve_once(warm_root)
    disk_checkpoints = warm_catalog.checkpoints.disk_entries()

    # Alternate cold serves, each on a fresh catalog root (no stored state),
    # with warm restarts (a fresh stack on the warmed root); best of N each.
    cold_wall, cold_cpu, warm_wall, warm_cpu = [], [], [], []
    cold_result = warm_result = None
    for round_index in range(ROUNDS):
        root = tmp_path / f"cold{round_index}"
        MappingCatalog(root).put_chain("history", chain)
        wall, cpu, cold_result = _serve_once(root)
        cold_wall.append(wall)
        cold_cpu.append(cpu)
        wall, cpu, warm_result = _serve_once(warm_root)
        warm_wall.append(wall)
        warm_cpu.append(cpu)
    assert cold_result.reused_hops == 0
    benchmark.pedantic(lambda: _serve_once(warm_root), rounds=1, iterations=1)

    # Durability: the restarted stack replays nothing and answers identically.
    assert warm_result.reused_hops == len(warm_result.hops) == NUM_HOPS
    outputs_identical = (
        warm_result.constraints.to_text() == cold_result.constraints.to_text()
        and warm_result.residual_symbols == cold_result.residual_symbols
    )
    assert outputs_identical
    assert disk_checkpoints == NUM_HOPS

    warm_speedup = min(cold_cpu) / max(min(warm_cpu), 1e-9)
    assert warm_speedup >= 2.0, (
        f"warm restart must be >= 2x faster: cold {min(cold_cpu):.4f}s "
        f"vs warm {min(warm_cpu):.4f}s"
    )

    bench_record(
        "service_warm_restart",
        hops_total=NUM_HOPS,
        hops_replayed_warm=warm_result.replayed_hops,
        outputs_identical=outputs_identical,
        disk_checkpoints=disk_checkpoints,
        final_operator_count=warm_result.constraints.operator_count(),
        cold_seconds=round(min(cold_wall), 4),
        cold_cpu_seconds=round(min(cold_cpu), 4),
        warm_seconds=round(min(warm_wall), 4),
        warm_cpu_seconds=round(min(warm_cpu), 4),
        warm_speedup=round(warm_speedup, 4),
    )
