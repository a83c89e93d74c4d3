"""Benchmark guard: the work of parsing served problem records.

Every served ``POST /compose`` parses its record before COMPOSE starts, and
the service fingerprints the parsed problem to key its request
deduplication.  This row counts that work over a fixed seeded set of 64
generated problem records (adjacent hops of ``engine_chain_batch``-shaped
chains): the nodes summarized (a leaf summary or a combined one) and the
node digests computed while each record is parsed and fingerprinted.  A
parser that stops sharing a record's relation leaves, or a pass that starts
redoing nodes, moves these exact counts; the best-of-5 seconds of the same
pass are recorded, not gated.
"""

import time

from repro.algebra import digest, summary
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.textio.format import problem_from_text, problem_to_text
from work_counts import counting_calls

RECORDS = 64


def _problem_records(seed):
    workload = generate_workload(
        WorkloadConfig(
            num_problems=8, min_chain_length=10, max_chain_length=14, schema_size=5, seed=seed
        )
    )
    texts = [problem_to_text(p) for chain in workload for p in pairwise_problems(chain)]
    assert len(texts) >= RECORDS
    return texts[:RECORDS]


def _parse_and_fingerprint(texts):
    for text in texts:
        problem_from_text(text).fingerprint()


def test_bench_textio_parse_work(bench_params, bench_record):
    texts = _problem_records(bench_params["seed"])
    with counting_calls(
        (
            (summary, "_leaf_summary", "nodes_summarized"),
            (summary, "_combine", "nodes_summarized"),
            (digest, "_node_digest", "node_digests"),
        )
    ) as work:
        _parse_and_fingerprint(texts)
    seconds = []
    for _ in range(5):
        started = time.perf_counter()
        _parse_and_fingerprint(texts)
        seconds.append(time.perf_counter() - started)
    bench_record(
        "textio_parse_work", records=len(texts), wall_seconds=round(min(seconds), 4), **work
    )
