"""Benchmark guard: the work an idle follower causes on its primary.

A caught-up follower keeps polling its primary, and routers health-check the
follower twice a second.  An idle poll should cost the primary one small
request answered from a stat, and a health check of the follower should not
reach the primary at all.  This row counts, on an in-process primary holding
a few stored results and a caught-up HTTP follower:

* ``idle_poll_requests`` — HTTP requests the primary handles during one
  idle ``catch_up()`` pass;
* ``status_requests`` — requests it handles during one follower
  ``status()`` call;
* ``idle_poll_segment_reads`` — journal segment files the primary reads
  during that idle pass.

The counts repeat exactly across runs and hash seeds (shards are chosen by
a keyed BLAKE2b of the name, not by ``hash``), so ``check_regression.py``
gates them exactly; the best-of-5 seconds of an idle pass are recorded, not
gated.
"""

import time
from contextlib import contextmanager
from pathlib import Path

from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.literature.problems import problem_by_name
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    ReplicationFollower,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.service.http import _Handler
from work_counts import counting_calls

#: The stored results: names and the literature problems composed for them.
STORED = {
    "movies": "example1_movies",
    "glav": "glav_chain",
    "movies-again": "example1_movies",
    "glav-again": "glav_chain",
}


@contextmanager
def _segment_reads(directory: Path):
    """Count the journal segment files under ``directory`` read while the block runs."""
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        if path.suffix == ".seg" and directory in path.parents:
            reads.append(path)
        return read_bytes(path)

    Path.read_bytes = counted
    try:
        yield reads
    finally:
        Path.read_bytes = read_bytes


def test_bench_replication_idle_work(tmp_path, bench_record):
    primary = MappingCatalog(tmp_path / "primary")
    for name, problem in STORED.items():
        primary.put_result(name, compose(problem_by_name(problem).problem))
    service = CompositionService(primary, ServiceConfig())
    service.start()
    server = ServiceHTTPServer(service, port=0).start()
    host, port = server.address
    follower = ReplicationFollower(
        MappingCatalog(tmp_path / "follower"), HTTPJournalSource(f"http://{host}:{port}")
    )
    try:
        assert follower.catch_up() == len(STORED)
        assert follower.lag() == 0
        with counting_calls(((_Handler, "do_GET", "idle_poll_requests"),)) as poll_work:
            with _segment_reads(primary.journal.directory) as reads:
                assert follower.catch_up() == 0
        with counting_calls(((_Handler, "do_GET", "status_requests"),)) as status_work:
            assert follower.status()["lag_entries"] == 0
        seconds = []
        for _ in range(5):
            started = time.perf_counter()
            follower.catch_up()
            seconds.append(time.perf_counter() - started)
    finally:
        follower.stop()
        server.stop()
        service.stop()
    bench_record(
        "replication_idle_work",
        stored_results=len(STORED),
        idle_poll_segment_reads=len(reads),
        wall_seconds=round(min(seconds), 5),
        **poll_work,
        **status_work,
    )
