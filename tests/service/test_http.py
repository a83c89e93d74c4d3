"""Tests for the HTTP front-end — including the service smoke contract.

The smoke contract CI relies on: start the service, submit one composition
over HTTP, and the answer must be byte-identical to a direct ``compose()``.
"""

import json
import os
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.engine import ChainGrower, compose_chain
from repro.literature.problems import problem_by_name
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    ReplicationFollower,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.textio.format import problem_to_text
from repro.textio.records import (
    chain_delta_to_text,
    chain_to_text,
    mapping_from_text,
    result_from_text,
    signature_to_text,
)


@pytest.fixture()
def stack(tmp_path):
    catalog = MappingCatalog(tmp_path / "cat")
    service = CompositionService(catalog, ServiceConfig())
    service.start()
    server = ServiceHTTPServer(service, port=0)  # ephemeral port
    server.start()
    host, port = server.address
    yield catalog, service, f"http://{host}:{port}"
    server.stop()
    service.stop()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode()


def _post(url: str, body: str):
    request = urllib.request.Request(url, data=body.encode(), method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read().decode(), dict(response.headers)


class TestEndpoints:
    def test_healthz(self, stack):
        _, _, base = stack
        status, body = _get(base + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["reasons"] == []
        assert health["breaker"]["state"] == "closed"
        assert "storage" in health and "gc" in health

    def test_healthz_degraded_when_breaker_open(self, stack):
        _, service, base = stack
        service.breaker.force_open("test: storage down")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/healthz")
            with excinfo.value as error:
                assert error.code == 503
                health = json.loads(error.read().decode())
            assert health["status"] == "degraded"
            assert any("breaker" in reason for reason in health["reasons"])
        finally:
            service.breaker.record_success()

    def test_smoke_compose_byte_identical_to_direct(self, stack):
        """Submit one composition; assert byte-identity with direct compose()."""
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        status, text, headers = _post(base + "/compose", problem_to_text(problem))
        assert status == 200
        served = result_from_text(text)
        direct = compose(problem)
        assert served.constraints.to_text() == direct.constraints.to_text()
        assert served.residual_sigma2 == direct.residual_sigma2
        assert headers["X-Repro-Eliminated"] == str(len(direct.eliminated_symbols))

    def test_compose_chain_record(self, stack):
        _, _, base = stack
        chain = ChainGrower(seed=21, schema_size=4).grow_many(4)
        status, text, headers = _post(base + "/compose", chain_to_text(chain))
        assert status == 200
        direct = compose_chain(chain)
        assert mapping_from_text(text) == direct.to_mapping_with_residue()
        assert headers["X-Repro-Hops"] == str(len(direct.hops))

    def test_compose_stores_in_catalog(self, stack):
        catalog, _, base = stack
        problem = problem_by_name("glav_chain").problem
        status, _, _ = _post(
            base + "/compose?store=glav&order=cost", problem_to_text(problem)
        )
        assert status == 200
        stored = catalog.get_result("glav")
        assert stored.components >= 1  # served through the planner

    def test_metrics_endpoint(self, stack):
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        _post(base + "/compose", problem_to_text(problem))
        status, body = _get(base + "/metrics")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["requests"]["completed"] >= 1
        assert "checkpoints" in metrics and "phases" in metrics

    def test_served_composes_list_no_checkpoint_directory(self, stack, monkeypatch):
        catalog, _, base = stack
        directory = os.fspath(catalog.checkpoints.directory)
        listed = []
        scandir, listdir = os.scandir, os.listdir

        def spying_scandir(path="."):
            if os.fspath(path) == directory:
                listed.append("scandir")
            return scandir(path)

        def spying_listdir(path="."):
            if os.fspath(path) == directory:
                listed.append("listdir")
            return listdir(path)

        monkeypatch.setattr(os, "scandir", spying_scandir)
        monkeypatch.setattr(os, "listdir", spying_listdir)
        problem = problem_by_name("example1_movies").problem
        status, _, _ = _post(base + "/compose", problem_to_text(problem))
        assert status == 200
        chain = ChainGrower(seed=23, schema_size=4).grow_many(4)
        status, _, _ = _post(base + "/compose", chain_to_text(chain))
        assert status == 200
        assert listed == []
        # A reader that asks still gets the count.
        _, body = _get(base + "/metrics")
        on_disk = len(list(catalog.checkpoints.directory.glob("*.ckpt")))
        assert on_disk > 0
        assert json.loads(body)["checkpoints"]["disk_entries"] == on_disk
        assert listed

    def test_catalog_endpoints(self, stack):
        catalog, _, base = stack
        chain = ChainGrower(seed=22, schema_size=3).grow_many(3)
        catalog.put_chain("history", chain)
        catalog.put_schema("first", chain[0].input_signature)

        status, body = _get(base + "/catalog")
        listing = json.loads(body)
        assert status == 200
        assert {entry["name"] for entry in listing["entries"]} == {"history", "first"}

        status, body = _get(base + "/catalog/schema/first")
        assert status == 200
        assert body == catalog.text("schema", "first")
        assert body == signature_to_text(chain[0].input_signature, name="first")

    def test_errors(self, stack):
        _, _, base = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/catalog/mapping/missing")
        with excinfo.value as error:
            assert error.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        with excinfo.value as error:
            assert error.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/compose", "[garbage\n")
        with excinfo.value as error:
            assert error.code == 400

    def test_uncomposable_records_keep_their_400_messages(self, stack):
        _, _, base = stack
        chain = ChainGrower(seed=24, schema_size=3).grow_many(3)
        delta = chain_delta_to_text(chain[1:], base_version=1, base_fingerprint="ab", prefix_hops=1)
        for body, message in (
            ("[stuff]\nR/2\n", "record declares no '# kind:' and is not a composition problem\n"),
            (delta, "cannot compose a 'chain-delta' record (expected problem or chain)\n"),
            (
                signature_to_text(chain[0].input_signature),
                "cannot compose a 'schema' record (expected problem or chain)\n",
            ),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base + "/compose", body)
            with excinfo.value as error:
                assert (error.code, error.read().decode()) == (400, message)

    def test_a_served_compose_scans_its_body_once(self, stack, record_scans):
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        chain = ChainGrower(seed=25, schema_size=4).grow_many(4)
        for body in (problem_to_text(problem), chain_to_text(chain)):
            record_scans["scans"] = 0
            status, _, _ = _post(base + "/compose", body)
            assert status == 200
            assert record_scans["scans"] == 1

    def test_malformed_content_length_is_400(self, stack):
        import http.client

        _, _, base = stack
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest("POST", "/compose")
            connection.putheader("Content-Length", "not-a-number")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()


class TestMalformedRecords:
    """Every malformed record is a ParseError, answered 400 on a live connection."""

    MALFORMED = (
        "[sigma1]\nR/2\n[sigma2]\nS/2\n[sigma3]\n[sigma12]\nR/1.5 <= S/2\n[sigma23]\n",
        "[sigma1]\nR/2\n[sigma2]\nS/2\n[sigma3]\n[sigma12]\nproject[1.5](R/2) <= S/2\n"
        "[sigma23]\n",
        "[sigma1]\nR/2 key=a\n[sigma2]\nS/2\n[sigma3]\n[sigma12]\nR/2 <= S/2\n[sigma23]\n",
    )

    @staticmethod
    def _connection(base):
        import http.client

        host, port = base.removeprefix("http://").split(":")
        return http.client.HTTPConnection(host, int(port), timeout=60)

    @staticmethod
    def _exchange(connection, body: str):
        connection.request("POST", "/compose", body=body.encode())
        response = connection.getresponse()
        return response.status, response.read().decode()

    def test_malformed_number_is_400_and_the_connection_lives_on(self, stack):
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        connection = self._connection(base)
        try:
            for body in self.MALFORMED:
                status, text = self._exchange(connection, body)
                assert status == 400, text
                sock = connection.sock
                status, text = self._exchange(connection, problem_to_text(problem))
                assert status == 200
                assert connection.sock is sock  # the same connection answered
                assert result_from_text(text).constraints.to_text() == (
                    compose(problem).constraints.to_text()
                )
        finally:
            connection.close()

    def test_deeply_nested_record_gets_an_answer(self, stack):
        _, _, base = stack
        depth = 3000
        nested = "(" * depth + "R/2" + ")" * depth
        # Condition objects are recursive: this one is too deep to build.
        not_depth = 3 * sys.getrecursionlimit()
        deep_condition = "not (" * not_depth + "#0 = 1" + ")" * not_depth
        connection = self._connection(base)
        try:
            for line, expected in (
                (f"{nested} <= S/2", 200),
                (f"select[{deep_condition}](R/2) <= S/2", 400),
            ):
                body = f"[sigma1]\nR/2\n[sigma2]\nS/2\n[sigma3]\n[sigma12]\n{line}\n[sigma23]\n"
                status, _ = self._exchange(connection, body)
                assert status == expected
        finally:
            connection.close()


class TestRetryAfter:
    """Degraded answers tell clients *when* to come back (satellite of PR 8)."""

    def test_degraded_healthz_carries_retry_after(self, stack):
        import math

        _, service, base = stack
        service.breaker.force_open("test: storage down")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/healthz")
            with excinfo.value as error:
                assert error.code == 503
            expected = max(1, math.ceil(service.config.breaker_recovery_seconds))
            assert int(error.headers["Retry-After"]) == expected
        finally:
            service.breaker.record_success()

    def test_store_dropped_carries_retry_after(self, stack):
        _, service, base = stack
        problem = problem_by_name("example1_movies").problem
        service.breaker.force_open("test: storage down")
        try:
            status, _, headers = _post(
                base + "/compose?store=dropped", problem_to_text(problem)
            )
            # The composition still succeeds; only durability degraded.
            assert status == 200
            assert headers["X-Repro-Store-Dropped"] == "1"
            assert int(headers["Retry-After"]) >= 1
        finally:
            service.breaker.record_success()

    def test_overloaded_submission_carries_retry_after(self, tmp_path):
        from repro.catalog import MappingCatalog
        from repro.service import CompositionService, ServiceConfig, ServiceHTTPServer

        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog,
            ServiceConfig(max_pending=1),
        )
        # Deliberately NOT started: the queue never drains, so the second
        # submission over HTTP is rejected at admission.
        server = ServiceHTTPServer(service, port=0)
        server.start()
        try:
            host, port = server.address
            base = f"http://{host}:{port}"
            service.submit_problem(problem_by_name("example1_movies").problem)
            # A *different* problem: an identical one would coalesce with the
            # in-flight ticket instead of being admission-rejected.
            other = problem_by_name("example3_inclusion_chain").problem
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base + "/compose", problem_to_text(other))
            with excinfo.value as error:
                assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
        finally:
            server.stop()


class TestReplicaAcks:
    """``ack_level=replica``: acks wait for a follower, or degrade to 202."""

    @pytest.fixture()
    def rstack(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog,
            ServiceConfig(
                ack_level="replica",
                replica_ack_timeout_seconds=0.2,
            ),
        )
        service.start()
        server = ServiceHTTPServer(service, port=0)
        server.start()
        host, port = server.address
        yield catalog, service, f"http://{host}:{port}"
        server.stop()
        service.stop()

    def test_ack_level_validation(self):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError):
            ServiceConfig(ack_level="paxos")
        with pytest.raises(EngineError):
            ServiceConfig(replica_ack_timeout_seconds=0)

    def test_store_without_followers_degrades_to_202(self, rstack):
        catalog, _, base = rstack
        problem = problem_by_name("example1_movies").problem
        status, _, headers = _post(
            base + "/compose?store=pending", problem_to_text(problem)
        )
        assert status == 202
        assert headers["x-repro-ack-pending"] == "1"
        assert headers["x-repro-epoch"] == "0"
        # The write is durable on the primary either way.
        assert "pending" in catalog.names("result")

    def test_store_with_caught_up_follower_acks_200(self, rstack):
        catalog, service, base = rstack
        # A follower far ahead on every shard: the ack wait is satisfied
        # the moment the entry lands.
        service.record_follower_applied("f1", [10**9] * 16)
        problem = problem_by_name("example1_movies").problem
        status, _, headers = _post(
            base + "/compose?store=acked", problem_to_text(problem)
        )
        assert status == 200
        assert "x-repro-ack-pending" not in headers
        assert headers["x-repro-epoch"] == "0"
        metrics = service.metrics()
        assert metrics["replication"]["replica_acks_satisfied"] >= 1

    def test_journal_poll_piggybacks_the_ack(self, rstack):
        catalog, service, base = rstack
        cursors = [shard + 1 for shard in range(16)]
        status, body = _get(
            base + f"/journal?since={','.join(map(str, cursors))}&follower=f1"
        )
        assert status == 200
        assert json.loads(body) == {"last_seqs": [0] * 16, "entries": {}}
        assert [service.replica_applied_seq(shard) for shard in range(16)] == cursors
        # ... and the floor is persisted for GC retention.
        acks = json.loads((catalog.journal.directory / "replica-acks.json").read_text())
        assert acks["followers"]["f1"]["applied"] == {
            str(shard): shard + 1 for shard in range(16)
        }
        # A poll that names no follower acknowledges nothing.
        _get(base + "/journal?since=" + ",".join(["99"] * 16))
        assert service.replica_applied_seq(0) == 1

    def test_tailing_http_follower_acks_stored_writes(self, tmp_path):
        """End to end: a real HTTP follower's polls satisfy replica acks."""
        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog, ServiceConfig(ack_level="replica", replica_ack_timeout_seconds=30.0)
        )
        service.start()
        server = ServiceHTTPServer(service, port=0).start()
        host, port = server.address
        base = f"http://{host}:{port}"
        follower = ReplicationFollower(
            MappingCatalog(tmp_path / "follower"),
            HTTPJournalSource(base),
            poll_interval_seconds=0.02,
        ).start()
        try:
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                base + "/compose?store=mirrored", problem_to_text(problem)
            )
            assert status == 200
            assert "x-repro-ack-pending" not in headers
            # The ack is the follower's cursor: the write is already there.
            assert "mirrored" in follower.catalog.names("result")
            shard = service.journal_shard("result", "mirrored")
            assert service.replica_applied_seq(shard) == catalog.journal.last_seq(shard)
            assert service.metrics()["replication"]["replica_acks_satisfied"] == 1
        finally:
            follower.stop()
            server.stop()
            service.stop()

    def test_stale_epoch_store_is_409(self, rstack):
        catalog, service, base = rstack
        catalog.journal.fence(1)  # a promoted replica outranks this root
        problem = problem_by_name("example1_movies").problem
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/compose?store=zombie", problem_to_text(problem))
        with excinfo.value as error:
            assert error.code == 409
        assert "zombie" not in catalog.names("result")
        # Fencing is not storage sickness: the breaker stays closed.
        assert service.breaker.state == "closed"
        metrics = service.metrics()
        assert metrics["replication"]["stale_epoch_rejected"] == 1

    def test_metrics_and_health_report_the_epoch(self, stack):
        catalog, _, base = stack
        catalog.bump_epoch()
        _, body = _get(base + "/metrics")
        assert json.loads(body)["epoch"] == 1
        _, body = _get(base + "/healthz")
        assert json.loads(body)["epoch"] == 1


class TestThreadFailureCounters:
    def test_gc_sweep_failures_surface_in_health_and_metrics(self, stack):
        _, service, base = stack
        service.metrics_store.record_gc_sweep_failure("OSError")
        service._gc_consecutive_failures = 2
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/healthz")
            with excinfo.value as error:
                assert error.code == 503
                health = json.loads(error.read().decode())
            assert any("gc sweep failing (2 consecutive)" in r for r in health["reasons"])
            assert health["gc"]["sweep_failures"] == 1
            assert health["gc"]["consecutive_failures"] == 2
            _, body = _get(base + "/metrics")
            metrics = json.loads(body)
            assert metrics["gc"]["gc_sweep_failures"] == 1
            assert metrics["gc"]["gc_sweep_failure_types"] == {"OSError": 1}
        finally:
            service._gc_consecutive_failures = 0

    def test_failing_gc_sweep_keeps_the_loop_alive(self, tmp_path):
        from repro.catalog import MappingCatalog
        from repro.service import CompositionService, ServiceConfig

        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog,
            ServiceConfig(gc_interval_seconds=0.01),
        )

        def broken_gc(**kwargs):
            raise OSError("injected sweep failure")

        catalog.gc = broken_gc
        service.start()
        try:
            import time as _time

            deadline = _time.monotonic() + 10
            while _time.monotonic() < deadline:
                if service.metrics_store.gc_sweep_failures >= 2:
                    break
                _time.sleep(0.01)
            assert service.metrics_store.gc_sweep_failures >= 2
            assert service._gc_thread.is_alive()
            health = service.health()
            assert health["status"] == "degraded"
            assert any("gc sweep failing" in r for r in health["reasons"])
        finally:
            service.stop()


class TestAccessLog:
    def _serve(self, tmp_path, access_log):
        service = CompositionService(MappingCatalog(tmp_path / "cat")).start()
        server = ServiceHTTPServer(service, port=0, access_log=access_log).start()
        host, port = server.address
        return service, server, f"http://{host}:{port}"

    def _requests(self, base):
        """A GET, a traced POST and a 404; returns the POST's trace id."""
        assert _get(base + "/healthz")[0] == 200
        trace_id = "ab" * 16
        request = urllib.request.Request(
            base + "/compose",
            data=problem_to_text(problem_by_name("example1_movies").problem).encode(),
            method="POST",
            headers={"x-repro-trace-id": trace_id, "x-repro-span-id": "cd" * 8},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        with excinfo.value as error:
            assert error.code == 404
        return trace_id

    def test_one_json_line_per_request(self, tmp_path):
        log = tmp_path / "access.jsonl"
        service, server, base = self._serve(tmp_path, str(log))
        try:
            trace_id = self._requests(base)
            # Each line lands just after its response is sent: wait for the
            # third rather than racing the handler thread.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if log.exists() and len(log.read_text().splitlines()) >= 3:
                    break
                time.sleep(0.01)
        finally:
            server.stop()
            service.stop()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        # Handler threads append concurrently, so lines need not follow
        # request order.
        assert sorted(
            (r["method"], r["path"], r["status"], r["trace_id"] or "") for r in records
        ) == [
            ("GET", "/healthz", 200, ""),
            ("GET", "/nope", 404, ""),
            ("POST", "/compose", 200, trace_id),
        ]

    def test_unwritable_log_is_silenced_without_failing_requests(self, tmp_path):
        # A directory cannot be opened for append: the first write latches
        # the sink off and every request is still answered.
        service, server, base = self._serve(tmp_path, str(tmp_path))
        try:
            self._requests(base)
            assert _get(base + "/healthz")[0] == 200
        finally:
            server.stop()
            service.stop()
