"""Circuit-breaker tests: state machine first, then graceful degradation.

The degradation contract: a storage tier that keeps failing flips the
service to memory-only serving — requests keep answering correctly, the
skipped writes are counted, ``/healthz`` says ``degraded`` with a reason —
and once storage recovers, a probe closes the breaker and durability
resumes.  No request is ever failed over a cache write.
"""

import pytest

from repro import faults
from repro.catalog import MappingCatalog
from repro.engine import compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload
from repro.faults import FaultInjector
from repro.service import CompositionService, ServiceConfig
from repro.service.breaker import CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestStateMachine:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_open_blocks_until_recovery_then_probes_once(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 4.9
        assert not breaker.allow()
        clock.now = 5.1
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=1.0, clock=clock)
        breaker.record_failure(OSError("disk on fire"))
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_and_rearms_the_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now = 10.0  # only 4s since the re-open: still closed to traffic
        assert not breaker.allow()
        clock.now = 11.1
        assert breaker.allow()

    def test_snapshot_reports_state_and_last_failure(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(OSError(5, "injected"))
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["open_count"] == 1
        assert "injected" in snapshot["last_failure"]
        assert snapshot["opened_age_seconds"] >= 0

    @pytest.mark.parametrize(
        "kwargs", [{"failure_threshold": 0}, {"recovery_seconds": -1}]
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


@pytest.fixture()
def chains():
    problems = generate_workload(
        WorkloadConfig(num_problems=6, min_chain_length=3, max_chain_length=3, seed=11)
    )
    return [tuple(problem.mappings) for problem in problems]


class TestGracefulDegradation:
    def test_persist_failures_open_the_breaker_and_service_stays_correct(
        self, tmp_path, chains
    ):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(
            breaker_failure_threshold=3,
            breaker_recovery_seconds=3600.0,  # stays open for the whole test
        )
        # Every checkpoint persist fails even after retries: the breaker must
        # open, the service must keep serving, and no request may fail.
        faults.install(FaultInjector.from_text("checkpoint.persist:eio"))
        with CompositionService(catalog, config) as svc:
            results = [svc.compose_chain(chain, timeout=120) for chain in chains]
            assert all(result is not None for result in results)
            assert svc.breaker.state == "open"
            stats = catalog.checkpoints.stats()
            assert stats["disk_errors"] >= config.breaker_failure_threshold
            # Once open, writes are skipped without touching the sick disk.
            assert stats["disk_skipped"] >= 1
            health = svc.health()
            assert health["status"] == "degraded"
            assert any("breaker open" in reason for reason in health["reasons"])
        faults.clear()
        # Served results are correct despite the dead store.
        expected = compose_chain(chains[0])
        assert results[0].constraints.to_text() == expected.constraints.to_text()

    def test_probe_closes_the_breaker_when_storage_recovers(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(
            breaker_failure_threshold=1,
            breaker_recovery_seconds=0.01,
        )
        faults.install(FaultInjector.from_text("checkpoint.persist:eio"))
        with CompositionService(catalog, config) as svc:
            svc.compose_chain(chains[0], timeout=120)
            assert svc.breaker.state == "open"
            # Storage "recovers": the injected fault schedule goes away.
            faults.clear()
            assert svc.probe_storage() is True
            assert svc.breaker.state == "closed"
            # Durability resumes: new compositions persist to disk again.
            before = catalog.checkpoints.stats()["disk_writes"]
            svc.compose_chain(chains[1], timeout=120)
            assert catalog.checkpoints.stats()["disk_writes"] > before
            assert svc.health()["status"] == "ok"

    def test_background_probe_loop_recovers_without_intervention(
        self, tmp_path, chains
    ):
        import time

        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(
            breaker_failure_threshold=1,
            breaker_recovery_seconds=0.05,
        )
        faults.install(FaultInjector.from_text("checkpoint.persist:eio"))
        with CompositionService(catalog, config) as svc:
            svc.compose_chain(chains[0], timeout=120)
            assert svc.breaker.state == "open"
            faults.clear()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and svc.breaker.state != "closed":
                time.sleep(0.02)
            assert svc.breaker.state == "closed"
            assert svc.metrics()["degradation"]["probes"] >= 1

    def test_store_result_drops_while_degraded_and_counts(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(
            breaker_recovery_seconds=3600.0
        )
        with CompositionService(catalog, config) as svc:
            mapping = chains[0][0]
            stored = svc.store_mapping_entry("composed", mapping)
            assert stored is not None and stored.version == 1
            svc.breaker.force_open("test")
            assert svc.store_mapping_entry("composed-2", mapping) is None
            degradation = svc.metrics()["degradation"]
            assert degradation["catalog_writes"] == 1
            assert degradation["catalog_writes_dropped"] == 1
        assert catalog.entry("mapping", "composed") is not None
