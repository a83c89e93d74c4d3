"""Benchmark: the batch composition engine vs. a naive serial loop.

The acceptance workload is a seeded batch of >= 50 randomized chained
composition problems (chain length >= 4) from the workload generator.  The
engine must (a) complete the whole batch with zero crashes and (b) beat a
naive per-problem loop for the same workload.

The engine's edge on a single CPU comes from the shared expression cache:
repeated sub-expressions across hops and problems are simplified once.  The
engine runs every job in-process and in order, so the comparison measures
exactly that, independent of the host's core count.  Because both contenders are
single-threaded in-process loops, the win is *asserted* on process CPU time — immune to other processes
stealing the core on busy 1-CPU runners, where the few-percent wall margin
drowns in scheduler noise — while wall-clock is still measured and recorded.
"""

import time
from contextlib import contextmanager

from repro.algebra import simplify, summary, traversal
from repro.constraints.constraint_set import ConstraintSet
from repro.engine import (
    BatchComposer,
    BatchConfig,
    WorkloadConfig,
    compose_chain,
    generate_workload,
)


def _best_of_interleaved(fns, rounds=9):
    """Best-of-N measurement for several contenders, round-robin.

    The batch-vs-serial margin on this workload is a few percent, so the
    contenders are measured in alternating rounds — a load spike or thermal
    drift then hits both, instead of biasing whichever ran second — and the
    minima get enough samples to shake off scheduler noise.  Returns
    ``[(best_wall_seconds, best_cpu_seconds, last_result), ...]`` in input
    order.
    """
    wall = [[] for _ in fns]
    cpu = [[] for _ in fns]
    results = [None] * len(fns)
    for _ in range(rounds):
        for position, fn in enumerate(fns):
            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            results[position] = fn()
            cpu[position].append(time.process_time() - cpu_started)
            wall[position].append(time.perf_counter() - wall_started)
    return [
        (min(wall_series), min(cpu_series), result)
        for wall_series, cpu_series, result in zip(wall, cpu, results)
    ]


@contextmanager
def _counting_work():
    """Count the engine's units of work while the block runs.

    Wraps, for the duration of the block only, the functions that do one
    unit each: a node summarized (a leaf summary or a combined one), a
    substitution walk, a simplify walk and a constraint set built.  The
    wrappers live here, so the library carries no counters; the counts are
    deterministic for a given workload, so they are gated exactly.
    """
    counts = dict.fromkeys(
        (
            "nodes_summarized",
            "substitution_walks",
            "simplify_walks",
            "constraint_sets_built",
        ),
        0,
    )
    targets = (
        (summary, "_leaf_summary", "nodes_summarized"),
        (summary, "_combine", "nodes_summarized"),
        (traversal, "_substitute", "substitution_walks"),
        (simplify, "_simplify_dag", "simplify_walks"),
        (ConstraintSet, "__init__", "constraint_sets_built"),
    )

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = []
    for owner, name, key in targets:
        fn = getattr(owner, name)
        originals.append((owner, name, fn))
        setattr(owner, name, counted(fn, key))
    try:
        yield counts
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def _acceptance_workload(seed):
    config = WorkloadConfig(
        num_problems=50,
        min_chain_length=10,
        max_chain_length=14,
        schema_size=5,
        seed=seed,
    )
    workload = generate_workload(config)
    assert len(workload) >= 50
    assert all(problem.chain_length >= 4 for problem in workload)
    return workload


def test_bench_engine_batch_beats_serial(benchmark, bench_params, bench_record):
    workload = _acceptance_workload(bench_params["seed"])
    # Hop checkpoints are disabled so repeat runs of the same workload keep
    # exercising the expression cache (a warm checkpoint store would turn
    # every measured round into pure replay); the incremental benchmark
    # (test_bench_incremental.py) measures the checkpoint effect.
    composer = BatchComposer(BatchConfig(share_checkpoints=False))

    # Warm both paths once so interpreter warm-up is not part of the timing.
    for problem in workload[:2]:
        compose_chain(problem.mappings)
    composer.run_chains(workload[:2])

    (
        (serial_seconds, serial_cpu, serial_results),
        (batch_seconds, batch_cpu, report),
    ) = _best_of_interleaved(
        (
            lambda: [compose_chain(problem.mappings) for problem in workload],
            lambda: composer.run_chains(workload),
        )
    )
    benchmark.pedantic(lambda: composer.run_chains(workload), rounds=1, iterations=1)

    # Zero crashes over the full acceptance workload.
    assert len(report) == len(workload)
    assert report.all_succeeded, report.summary()

    # Batch mode must do less work than the naive serial loop on the same
    # workload (CPU time: both loops are single-threaded and in-process, so
    # this is the noise-immune form of "batch is faster").
    assert batch_cpu < serial_cpu, (
        f"batch {batch_cpu:.3f}s CPU did not beat serial {serial_cpu:.3f}s CPU "
        f"(wall: {batch_seconds:.3f}s vs {serial_seconds:.3f}s)"
    )

    # The shared cache is doing real work, and the results are identical to
    # the serial loop's (memoization must not change any output).
    assert report.cache_stats is not None
    assert report.cache_stats["hit_rate"] > 0.2
    for serial_result, item in zip(serial_results, report.items):
        assert serial_result.constraints == item.result.constraints
        assert serial_result.residual_symbols == item.result.residual_symbols

    # The work counts come from one more batch, untimed and on a fresh
    # composer, so the wrappers never sit inside a timed window.
    with _counting_work() as work:
        BatchComposer(BatchConfig(share_checkpoints=False)).run_chains(workload)

    bench_record(
        "engine_chain_batch",
        **work,
        serial_seconds=round(serial_seconds, 4),
        batch_seconds=round(batch_seconds, 4),
        serial_cpu_seconds=round(serial_cpu, 4),
        batch_cpu_seconds=round(batch_cpu, 4),
        # The gated ratio compares CPU seconds: scale-free and immune to
        # co-tenant load on 1-CPU runners.
        batch_speedup_vs_serial=round(serial_cpu / batch_cpu, 4),
        cache_hit_rate=round(report.cache_stats["hit_rate"], 4),
        output_operator_count=sum(
            item.result.constraints.operator_count() for item in report.items
        ),
        problems=len(report),
    )


def test_bench_engine_pairwise_problems(benchmark, bench_params):
    """The pair-wise entry point composes every adjacent hop of the workload."""
    from repro.engine import pairwise_problems

    workload = _acceptance_workload(bench_params["seed"])[:10]
    problems = [problem for chain in workload for problem in pairwise_problems(chain)]
    composer = BatchComposer()

    report = benchmark.pedantic(
        lambda: composer.run(problems), rounds=1, iterations=1
    )
    assert report.all_succeeded, report.summary()
    # Every hop consumes its whole input schema; almost all of it is renames,
    # so the pair-wise compositions should eliminate the bulk of the symbols.
    assert report.mean_fraction_eliminated() > 0.5
