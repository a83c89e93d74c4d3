"""Tests for the concurrent composition service.

The load-bearing guarantee: the service adds scheduling — queueing,
deduplication, running each request on the thread that waits for it,
concurrency — but never semantics.  Every payload must be byte-identical to
calling ``compose`` / ``compose_chain`` directly, including under concurrent
overlapping submissions (the acceptance-criterion proof lives in
:class:`TestConcurrentClients`).  :class:`TestExecutionModel` pins down who
runs what: the waiting thread, oldest queued work first, under the
submitter's trace context.
"""

import dataclasses
import inspect
import sys
import threading
import time

import pytest

from repro import obs
from repro.catalog import GcPolicy, MappingCatalog
from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine import ChainGrower, compose_chain
from repro.engine import batch as batch_module
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import (
    EngineError,
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.literature.problems import problem_by_name
from repro.service import CompositionService, ServiceConfig
from repro.service.server import Ticket


def _constraints_text(result) -> str:
    return result.constraints.to_text()


@pytest.fixture()
def chains():
    return [tuple(problem.mappings) for problem in generate_workload(
        WorkloadConfig(num_problems=6, min_chain_length=3, max_chain_length=4, seed=17)
    )]


@pytest.fixture()
def service():
    with CompositionService() as svc:
        yield svc


class TestBasics:
    def test_problem_identical_to_direct_compose(self, service):
        problem = problem_by_name("example1_movies").problem
        direct = compose(problem)
        served = service.compose(problem)
        assert _constraints_text(served) == _constraints_text(direct)
        assert served.residual_sigma2 == direct.residual_sigma2
        assert served.attempted_symbols == direct.attempted_symbols

    def test_chain_identical_to_direct_compose_chain(self, service, chains):
        for chain in chains[:3]:
            direct = compose_chain(chain)
            served = service.compose_chain(chain)
            assert _constraints_text(served) == _constraints_text(direct)
            assert served.residual_symbols == direct.residual_symbols

    def test_partitioned_request(self, service):
        problem = problem_by_name("glav_chain").problem
        direct = compose(problem, ComposerConfig.cost_guided())
        served = service.compose(problem, config=ComposerConfig.cost_guided())
        assert _constraints_text(served) == _constraints_text(direct)

    def test_per_request_config_override(self, service):
        problem = problem_by_name("glav_chain").problem
        fixed = service.compose(problem)
        cost = service.compose(problem, config=ComposerConfig.cost_guided())
        assert fixed.components == 0
        assert cost.components >= 1
        # Different configs never coalesce onto each other.
        assert _constraints_text(fixed) == _constraints_text(
            compose(problem, ComposerConfig())
        )

    def test_submissions_queue_before_start(self, chains):
        svc = CompositionService()
        ticket = svc.submit_chain(chains[0])  # accepted, waits for the loop
        assert not ticket.done()
        svc.start()
        assert _constraints_text(ticket.result(60)) == _constraints_text(
            compose_chain(chains[0])
        )
        svc.stop()
        with pytest.raises(ServiceError):
            svc.submit_chain(chains[0])  # a stopped service refuses work

    def test_failure_is_reported_not_swallowed(self, service, chains):
        # An unsatisfiable submission: empty chains are rejected immediately.
        with pytest.raises(ServiceError):
            service.submit_chain(())

    def test_stop_drains_queue(self, chains):
        svc = CompositionService(config=ServiceConfig())
        svc.start()
        tickets = [svc.submit_chain(chain) for chain in chains]
        svc.stop()  # drain=True: everything already queued is served
        assert all(ticket.done() for ticket in tickets)
        for chain, ticket in zip(chains, tickets):
            assert _constraints_text(ticket.result(0)) == _constraints_text(
                compose_chain(chain)
            )


class TestDeduplication:
    def test_identical_requests_coalesce(self, chains):
        config = ServiceConfig()
        with CompositionService(config=config) as svc:
            tickets = [svc.submit_chain(chains[0]) for _ in range(20)]
            results = [ticket.result(60) for ticket in tickets]
        assert any(ticket.coalesced for ticket in tickets)
        reference = _constraints_text(compose_chain(chains[0]))
        assert all(_constraints_text(result) == reference for result in results)
        metrics = svc.metrics()
        assert metrics["requests"]["deduplicated"] >= 1
        assert metrics["requests"]["submitted"] == 20

    def test_identical_cost_guided_requests_coalesce(self):
        problem = problem_by_name("glav_chain").problem
        cost = ComposerConfig.cost_guided()
        svc = CompositionService()
        # Submitted before start(), so every duplicate meets the queued first.
        tickets = [svc.submit_problem(problem, config=cost) for _ in range(8)]
        svc.start()
        try:
            results = [ticket.result(60) for ticket in tickets]
        finally:
            svc.stop()
        assert [ticket.coalesced for ticket in tickets] == [False] + [True] * 7
        reference = _constraints_text(compose(problem, cost))
        assert all(_constraints_text(result) == reference for result in results)
        assert all(result.components >= 1 for result in results)

    def test_different_configs_do_not_coalesce(self, service):
        problem = problem_by_name("glav_chain").problem
        a = service.submit_problem(problem)
        b = service.submit_problem(problem, config=ComposerConfig.cost_guided())
        assert not b.coalesced or not a.coalesced
        assert a.result(60).components == 0
        assert b.result(60).components >= 1


class TestAdmissionControl:
    def test_overload_rejected_deterministically(self, chains):
        # The loop is not running yet, so the queue fills deterministically.
        config = ServiceConfig(max_pending=2)
        svc = CompositionService(config=config)
        first = svc.submit_chain(chains[0])
        second = svc.submit_chain(chains[1])
        with pytest.raises(ServiceOverloadedError):
            svc.submit_chain(chains[2])
        # Coalesced duplicates ride on an existing item: still admitted.
        duplicate = svc.submit_chain(chains[0])
        assert duplicate.coalesced
        assert svc.metrics()["requests"]["rejected"] == 1

        svc.start()
        svc.stop()  # drain serves the admitted items
        for chain, ticket in ((chains[0], first), (chains[1], second), (chains[0], duplicate)):
            assert _constraints_text(ticket.result(0)) == _constraints_text(
                compose_chain(chain)
            )


class TestBlockingAdmission:
    def test_deadline_error_is_an_overload_error(self):
        # HTTP keeps answering 429: the deadline error is a refinement of
        # overload, not a new failure class.
        assert issubclass(ServiceDeadlineError, ServiceOverloadedError)

    def test_service_wide_deadline_expires_deterministically(self, chains):
        # Not started: the queue can never drain, so a blocked request must
        # ride out the service-wide deadline and then fail.
        config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=0.05)
        svc = CompositionService(config=config)
        svc.submit_chain(chains[0])
        with pytest.raises(ServiceDeadlineError):
            svc.submit_chain(chains[1])
        metrics = svc.metrics()["requests"]
        assert metrics["blocked"] == 1
        assert metrics["deadline_expired"] == 1
        assert metrics["rejected"] == 0

    def test_submissions_take_no_per_request_deadline(self):
        # The admission deadline is service-wide; the HTTP layer never set
        # a per-request one.
        for method in (CompositionService.submit_problem, CompositionService.submit_chain):
            assert "deadline_seconds" not in inspect.signature(method).parameters

    def test_blocked_submission_admitted_when_space_frees(self, chains):
        config = ServiceConfig(max_pending=1, admission="block")
        svc = CompositionService(config=config)
        first = svc.submit_chain(chains[0])
        admitted = {}

        def blocked_submit():
            admitted["ticket"] = svc.submit_chain(chains[1])

        waiter = threading.Thread(target=blocked_submit)
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive()  # genuinely blocked, not rejected
        svc.start()  # draining the queue frees space and admits the waiter
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        svc.stop()
        assert _constraints_text(first.result(0)) == _constraints_text(
            compose_chain(chains[0])
        )
        assert _constraints_text(admitted["ticket"].result(30)) == _constraints_text(
            compose_chain(chains[1])
        )
        assert svc.metrics()["requests"]["blocked"] == 1

    def test_stop_wakes_blocked_submitters(self, chains):
        config = ServiceConfig(max_pending=1, admission="block")
        svc = CompositionService(config=config)
        svc.submit_chain(chains[0])
        outcome = {}

        def blocked_submit():
            try:
                svc.submit_chain(chains[1])
            except ServiceError as exc:
                outcome["error"] = exc

        waiter = threading.Thread(target=blocked_submit)
        waiter.start()
        time.sleep(0.05)
        svc.stop(drain=False)
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert isinstance(outcome["error"], ServiceError)

    def test_expired_deadline_beats_stop_wakeup(self, chains):
        # The race: a waiter whose deadline has already expired is woken by
        # stop()'s broadcast (or by the drain freeing space).  The outcome
        # must be deterministic — once the budget is spent the waiter gets
        # ServiceDeadlineError, never the generic "service is stopped" error,
        # whichever signal wins the wakeup.
        for _ in range(20):
            config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=0.05)
            svc = CompositionService(config=config)
            svc.submit_chain(chains[0])
            outcome = {}
            started = threading.Event()

            def blocked_submit():
                started.set()
                try:
                    svc.submit_chain(chains[1])
                except ServiceError as exc:
                    outcome["error"] = exc

            waiter = threading.Thread(target=blocked_submit)
            waiter.start()
            started.wait()
            # Let the deadline expire while the waiter sleeps, then fire the
            # shutdown broadcast so both wake reasons arrive together.
            time.sleep(0.1)
            svc.stop(drain=False)
            waiter.join(timeout=30)
            assert not waiter.is_alive()
            assert isinstance(outcome["error"], ServiceDeadlineError), outcome[
                "error"
            ]

    def test_blocking_identical_results_under_burst(self, chains):
        # A tiny queue with blocking admission: every client eventually gets
        # a byte-identical result — blocking changes timing, never payloads.
        config = ServiceConfig(max_pending=1, admission="block")
        expected = {
            index: _constraints_text(compose_chain(chain))
            for index, chain in enumerate(chains)
        }
        results = {}
        errors = []
        with CompositionService(config=config) as svc:

            def client(index):
                try:
                    results[index] = _constraints_text(
                        svc.compose_chain(chains[index], timeout=120)
                    )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(len(chains))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors
        assert results == expected


class TestServiceConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in (
                "deadline_seconds",
                "timeout_seconds",
                "gc_interval_seconds",
                "lease_ttl_seconds",
                "replica_ack_timeout_seconds",
            )
            for value in (0, -1.0, float("nan"))
        ]
        + [
            (name, value)
            for name in ("breaker_recovery_seconds", "slow_trace_seconds")
            for value in (-1.0, float("nan"))
        ],
    )
    def test_bad_interval_rejected(self, name, value):
        # A NaN passes a `<= 0` check, and a NaN wait returns at once: the
        # wait around it would spin.  A non-positive timeout used to surface
        # only when the first request built its BatchConfig.
        with pytest.raises(EngineError, match=name):
            ServiceConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_pending", "breaker_failure_threshold"])
    @pytest.mark.parametrize("value", [0, -1, float("nan"), 2.5, 3.0, True])
    def test_bad_count_rejected(self, name, value):
        # A NaN queue bound would answer every submission with 429, and a
        # NaN breaker threshold would never open the breaker.
        with pytest.raises(EngineError, match=name):
            ServiceConfig(**{name: value})

    def test_config_has_only_the_used_knobs(self):
        # The nine gc_* fields are one GcPolicy, and the lease wait is always
        # four lease TTLs: no caller set them apart.
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "max_pending",
            "admission",
            "deadline_seconds",
            "timeout_seconds",
            "composer_config",
            "gc_interval_seconds",
            "gc_policy",
            "breaker_failure_threshold",
            "breaker_recovery_seconds",
            "lease_ttl_seconds",
            "ack_level",
            "replica_ack_timeout_seconds",
            "slow_trace_seconds",
        ]
        assert ServiceConfig().gc_policy == GcPolicy(grace_seconds=5.0)
        for knob in ("gc_checkpoint_max_files", "gc_grace_seconds", "lease_wait_seconds"):
            with pytest.raises(TypeError):
                ServiceConfig(**{knob: 1})

    def test_only_the_entry_store_helpers_remain(self):
        for gone in ("store_result", "store_mapping"):
            assert not hasattr(CompositionService, gone)


class TestServiceGC:
    def test_run_gc_bounds_checkpoints_and_counts(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(gc_policy=GcPolicy(checkpoint_max_files=1))
        with CompositionService(catalog, config) as svc:
            for chain in chains[:3]:
                svc.compose_chain(chain)
            assert catalog.checkpoints.disk_entries() > 1
            report = svc.run_gc()
        assert report["checkpoints"]["retained"] == 1
        assert catalog.checkpoints.disk_entries() == 1
        gc_metrics = svc.metrics()["gc"]
        assert gc_metrics["sweeps"] == 1
        assert gc_metrics["checkpoints_removed"] == report["checkpoints"]["removed"]

    def test_background_sweep_runs_periodically(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(
            gc_interval_seconds=0.05, gc_policy=GcPolicy(checkpoint_max_files=1)
        )
        with CompositionService(catalog, config) as svc:
            svc.compose_chain(chains[0])
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                metrics = svc.metrics()["gc"]
                if metrics["sweeps"] >= 1 and catalog.checkpoints.disk_entries() <= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("background sweep never bounded the checkpoint files")
        # Stopping the service stops the sweeper with it.
        sweeps = svc.metrics()["gc"]["sweeps"]
        time.sleep(0.15)
        assert svc.metrics()["gc"]["sweeps"] == sweeps

    def test_run_gc_without_catalog_is_a_noop(self, service):
        assert service.run_gc() is None


class TestConcurrentClients:
    def test_overlapping_concurrent_clients_byte_identical_to_serial(self, chains):
        """Acceptance criterion: N concurrent clients with overlapping requests
        receive results byte-identical to serial execution."""
        problems = [problem_by_name("example1_movies").problem,
                    problem_by_name("glav_chain").problem]
        serial_chain = {
            index: _constraints_text(compose_chain(chain))
            for index, chain in enumerate(chains)
        }
        serial_problem = {
            index: _constraints_text(compose(problem))
            for index, problem in enumerate(problems)
        }

        num_clients = 8
        outcomes = [[] for _ in range(num_clients)]
        errors = []
        config = ServiceConfig()
        with CompositionService(config=config) as svc:
            barrier = threading.Barrier(num_clients)
            # Requests run on the threads that wait for them, and a client
            # can finish several steps inside one GIL time slice: meeting
            # here once every first request is queued makes the overlap
            # the dedup assertion below relies on certain.
            first_submitted = threading.Barrier(num_clients)

            def client(client_index: int) -> None:
                try:
                    barrier.wait(10)
                    # Every client walks the same workload, offset so requests
                    # overlap heavily but not identically.
                    for step in range(len(chains)):
                        chain_index = (client_index + step) % len(chains)
                        ticket = svc.submit_chain(chains[chain_index])
                        problem_index = (client_index + step) % len(problems)
                        problem_ticket = svc.submit_problem(problems[problem_index])
                        if step == 0:
                            first_submitted.wait(10)
                        outcomes[client_index].append(
                            ("chain", chain_index, ticket.result(120))
                        )
                        outcomes[client_index].append(
                            ("problem", problem_index, problem_ticket.result(120))
                        )
                except Exception as exc:  # noqa: BLE001 - surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        for per_client in outcomes:
            assert len(per_client) == 2 * len(chains)
            for kind, index, result in per_client:
                expected = serial_chain[index] if kind == "chain" else serial_problem[index]
                assert _constraints_text(result) == expected

        metrics = svc.metrics()
        assert metrics["requests"]["completed"] >= 1
        assert metrics["requests"]["deduplicated"] >= 1  # overlap must coalesce
        assert metrics["requests"]["failed"] == 0


class TestCatalogIntegration:
    def test_served_chains_warm_the_persistent_store(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        catalog.put_chain("history", chains[0])
        with CompositionService(catalog) as svc:
            cold = svc.compose_catalog("chain", "history")
        assert cold.reused_hops == 0

        restarted = MappingCatalog(tmp_path / "cat")
        with CompositionService(restarted) as svc:
            warm = svc.compose_catalog("chain", "history")
        assert warm.reused_hops == len(warm.hops)
        assert _constraints_text(warm) == _constraints_text(cold)

    def test_compose_catalog_requires_catalog(self, service):
        with pytest.raises(ServiceError):
            service.compose_catalog("chain", "x")


class TestMetrics:
    def test_snapshot_shape(self, service, chains):
        service.compose_chain(chains[0])
        metrics = service.metrics()
        assert set(metrics) == {
            "requests", "batching", "latency", "phases", "checkpoints", "gc", "degradation", "replication", "breaker", "leases",
            "tracing", "histograms",
        }
        assert metrics["requests"]["completed"] == 1
        assert metrics["batching"]["batches"] == 1
        assert metrics["phases"]  # per-phase buckets aggregated from the hops
        assert metrics["latency"]["execution_seconds_total"] > 0
        assert metrics["checkpoints"]["entries"] >= 1


class TestTracing:
    def test_spans_recorded_before_the_caller_wakes(self, monkeypatch):
        """A ``GET /trace`` issued right after a response must see the
        request's queue, execute and phase spans."""
        obs.configure(service="test", log_path=None)
        trace_ids = []
        seen_at_delivery = []
        deliver = Ticket._deliver

        def spying_deliver(ticket, payload):
            names = {record["name"] for record in obs.recorder().spans(trace_ids[0])}
            seen_at_delivery.append(names)
            deliver(ticket, payload)

        monkeypatch.setattr(Ticket, "_deliver", spying_deliver)
        problem = problem_by_name("example1_movies").problem
        try:
            with CompositionService() as service:
                with obs.span("client.request", new_trace=True) as handle:
                    trace_ids.append(handle.context.trace_id)
                    service.compose(problem)
        finally:
            obs.configure(service="", log_path=None)
        (names,) = seen_at_delivery
        assert {"service.queue", "service.execute"} <= names
        assert any(name.startswith("compose.phase.") for name in names)


@pytest.fixture()
def composing_threads(monkeypatch):
    """Record (problem name, thread) for every problem the engine composes."""
    calls = []
    direct = batch_module.compose

    def spying_compose(problem, config=None):
        calls.append((problem.name, threading.current_thread()))
        return direct(problem, config)

    monkeypatch.setattr(batch_module, "compose", spying_compose)
    return calls


class TestExecutionModel:
    def test_compositions_run_on_the_calling_thread(self, composing_threads):
        problem = problem_by_name("example1_movies").problem
        threads_before = set(threading.enumerate())
        with CompositionService() as svc:
            # Without a catalog there is no GC sweep or storage probe, and
            # no serving thread: starting spawns nothing.
            assert set(threading.enumerate()) == threads_before
            svc.compose(problem)
        assert composing_threads == [(problem.name, threading.current_thread())]

    def test_a_waiter_runs_older_queued_work_first(self, composing_threads):
        older = problem_by_name("example1_movies").problem
        newer = problem_by_name("glav_chain").problem
        with CompositionService() as svc:
            first = svc.submit_problem(older)
            second = svc.submit_problem(newer)
            assert not first.done()  # nothing runs until someone waits
            second.result(60)
            assert first.done()
            assert _constraints_text(first.result(0)) == _constraints_text(compose(older))
        assert [name for name, _ in composing_threads] == [older.name, newer.name]

    def test_blocked_submitter_runs_the_oldest_item(self, chains):
        # One thread queues past the bound before waiting on any ticket:
        # instead of waiting on itself, it frees a slot by running the
        # oldest queued item.
        config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=30)
        with CompositionService(config=config) as svc:
            tickets = [svc.submit_chain(chain) for chain in chains[:3]]
            assert [ticket.done() for ticket in tickets] == [True, True, False]
            results = [ticket.result(60) for ticket in tickets]
        for chain, result in zip(chains, results):
            assert _constraints_text(result) == _constraints_text(compose_chain(chain))
        assert svc.metrics()["requests"]["blocked"] == 2

    def test_spans_follow_the_submitter_into_start(self):
        problem = problem_by_name("example1_movies").problem
        obs.configure(service="test", log_path=None)
        try:
            svc = CompositionService()
            with obs.span("client.request", new_trace=True) as handle:
                trace_id = handle.context.trace_id
                ticket = svc.submit_problem(problem)
            svc.start()  # runs the item here, outside any span
            ticket.result(60)
            svc.stop()
            records = obs.recorder().spans(trace_id)
        finally:
            obs.configure(service="", log_path=None)
        parents = {
            record["name"]: record["parent_id"]
            for record in records
            if record["name"] in ("service.queue", "service.execute")
        }
        assert parents == {
            "service.queue": handle.context.span_id,
            "service.execute": handle.context.span_id,
        }

    def test_a_traced_waiter_records_only_its_own_execution(self):
        untraced_problem = problem_by_name("example1_movies").problem
        traced_problem = problem_by_name("glav_chain").problem
        obs.configure(service="test", log_path=None)
        try:
            with CompositionService() as svc:
                untraced = svc.submit_problem(untraced_problem)
                with obs.span("client.request", new_trace=True) as handle:
                    trace_id = handle.context.trace_id
                    # Runs the older, untraced item first, then its own.
                    svc.compose(traced_problem)
                assert untraced.done()
            names = [record["name"] for record in obs.recorder().spans(trace_id)]
        finally:
            obs.configure(service="", log_path=None)
        assert names.count("service.execute") == 1
        assert names.count("service.queue") == 1

    def test_blocking_admission_under_contention(self):
        # Eight threads, a two-slot queue and a GIL switch on nearly every
        # bytecode: every submission is admitted before its deadline, every
        # result is byte-identical, and the books balance.
        problems = [
            problem_by_name(name).problem
            for name in ("example1_movies", "glav_chain", "example3_inclusion_chain")
        ]
        expected = [_constraints_text(compose(problem)) for problem in problems]
        num_threads, calls_per_thread = 8, 12
        served = [[] for _ in range(num_threads)]
        errors = []
        config = ServiceConfig(max_pending=2, admission="block", deadline_seconds=10)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CompositionService(config=config) as svc:

                def client(index: int) -> None:
                    try:
                        for step in range(calls_per_thread):
                            which = (index + step) % len(problems)
                            result = svc.compose(problems[which], timeout=60)
                            served[index].append((which, _constraints_text(result)))
                    except Exception as exc:  # noqa: BLE001 - surface in the main thread
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(num_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                requests = svc.metrics()["requests"]
        finally:
            sys.setswitchinterval(switch_interval)
        assert not errors
        for per_thread in served:
            assert len(per_thread) == calls_per_thread
            assert all(text == expected[which] for which, text in per_thread)
        assert requests["submitted"] == num_threads * calls_per_thread
        assert requests["completed"] + requests["deduplicated"] == requests["submitted"]
        assert requests["pending"] == requests["in_flight"] == 0
