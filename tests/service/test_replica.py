"""Tests for catalog replication: journal sources, followers, and promotion."""

import http.server
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower
from repro.exceptions import JournalError, ReplicationError
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    LocalJournalSource,
    ReplicationFollower,
    RouterHTTPServer,
    ServiceConfig,
    ServiceHTTPServer,
    open_source,
)
from repro.service.replica import JournalSource


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def mappings():
    return tuple(ChainGrower(seed=7, schema_size=4).grow_many(6))


@pytest.fixture()
def primary(tmp_path):
    return MappingCatalog(tmp_path / "primary")


@pytest.fixture()
def replica_catalog(tmp_path):
    return MappingCatalog(tmp_path / "replica")


@pytest.fixture()
def primary_server(primary):
    service = CompositionService(primary, ServiceConfig())
    service.start()
    server = ServiceHTTPServer(service, port=0)
    server.start()
    host, port = server.address
    yield primary, f"http://{host}:{port}"
    server.stop()
    service.stop()


def _assert_mirrored(primary, replica, kinds=("mapping", "chain")):
    for kind in kinds:
        assert replica.names(kind) == primary.names(kind)
        for name in primary.names(kind):
            ours = [e.fingerprint for e in replica.versions(kind, name)]
            theirs = [e.fingerprint for e in primary.versions(kind, name)]
            assert ours == theirs


class TestSources:
    def test_open_source_selects_by_scheme(self, tmp_path):
        root = tmp_path / "cat"
        MappingCatalog(root)
        assert isinstance(open_source(root), LocalJournalSource)
        assert isinstance(open_source(f"file://{root}"), LocalJournalSource)
        assert isinstance(open_source("http://127.0.0.1:9"), HTTPJournalSource)
        assert isinstance(open_source("https://example.test"), HTTPJournalSource)

    def test_open_source_rejects_missing_root_and_odd_schemes(self, tmp_path):
        with pytest.raises(ReplicationError):
            open_source(tmp_path / "no-such-root")
        with pytest.raises(ReplicationError):
            open_source("ftp://example.test")

    def test_local_source_polls_live_journal(self, primary, mappings):
        primary.put_mapping("m", mappings[0])
        source = LocalJournalSource(primary.root)
        shard = primary._shard_id("mapping", "m")
        last_seqs, entries = source.poll([0] * 16, 256)
        assert len(last_seqs) == 16
        assert last_seqs[shard] == 1
        assert list(entries) == [shard]
        assert [entry["op"] for entry in entries[shard]] == ["put"]
        cursors = [0] * 16
        cursors[shard] = 1
        assert source.poll(cursors, 256) == (last_seqs, {})

    def test_http_source_round_trip(self, primary_server, mappings):
        primary, base = primary_server
        primary.put_mapping("m", mappings[0])
        source = HTTPJournalSource(base)
        shard = primary._shard_id("mapping", "m")
        try:
            last_seqs, entries = source.poll([0] * 16, 256)
            assert [entry["name"] for entry in entries[shard]] == ["m"]
            assert last_seqs[shard] == 1
            cursors = [0] * 16
            cursors[shard] = 1
            assert source.poll(cursors, 256) == (last_seqs, {})
        finally:
            source.close()

    def test_http_source_rejects_malformed_answers(self):
        """Anything but the expected JSON shape is a ReplicationError."""
        bodies = [
            b"<html>not json</html>",
            b"[1, 2]",
            json.dumps({"last_seqs": [0] * 15, "entries": {}}).encode(),
            json.dumps({"last_seqs": [0] * 16, "entries": {"16": []}}).encode(),
            json.dumps({"last_seqs": [0] * 16, "entries": {"3": [{"op": "put"}]}}).encode(),
            json.dumps({"last_seqs": ["x"] * 16, "entries": {}}).encode(),
        ]
        with _StubPrimary(bodies[0]) as stub:
            source = HTTPJournalSource(stub.base)
            for body in bodies:
                stub.body = body
                with pytest.raises(ReplicationError):
                    source.poll([0] * 16, 256)
            source.close()


class _StubPrimary:
    """A primary that answers every GET with ``200`` and :attr:`body`."""

    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self) -> "_StubPrimary":
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib naming
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(stub.body)))
                self.end_headers()
                self.wfile.write(stub.body)

            def log_message(self, *args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"
        return self

    def __exit__(self, *exc_info) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


class TestFollower:
    def test_catch_up_mirrors_local_source(self, primary, replica_catalog, mappings):
        for index, mapping in enumerate(mappings):
            primary.put_mapping(f"m-{index % 3}", mapping)
        primary.put_chain("chain", mappings[:3])
        follower = ReplicationFollower(replica_catalog, LocalJournalSource(primary.root))
        applied = follower.catch_up()
        assert applied > 0
        _assert_mirrored(primary, replica_catalog)
        assert follower.lag() == 0
        assert follower.verify_failures == 0
        # Nothing new: another pass applies zero entries.
        assert follower.catch_up() == 0

    def test_background_tail_follows_new_writes(self, primary, replica_catalog, mappings):
        with ReplicationFollower(
            replica_catalog, LocalJournalSource(primary.root), poll_interval_seconds=0.02
        ) as follower:
            assert follower.is_running
            primary.put_mapping("live", mappings[0])
            assert _wait_for(lambda: replica_catalog.names("mapping") == ("live",))
        assert not follower.is_running
        assert replica_catalog.get_mapping("live") == mappings[0]

    def test_restart_resumes_from_own_journal(self, primary, replica_catalog, mappings):
        primary.put_mapping("m", mappings[0])
        source = LocalJournalSource(primary.root)
        ReplicationFollower(replica_catalog, source).catch_up()
        primary.put_mapping("m", mappings[1])
        # A brand-new follower over the same catalog resumes from the cursor
        # persisted in its own journal — it does not re-apply entry 1.
        fresh = ReplicationFollower(replica_catalog, source)
        assert fresh.catch_up() == 1
        assert fresh.entries_skipped == 0
        _assert_mirrored(primary, replica_catalog, kinds=("mapping",))

    def test_unreachable_source_counts_not_crashes(self, replica_catalog, tmp_path):
        source = HTTPJournalSource("http://127.0.0.1:1", timeout_seconds=0.2)
        follower = ReplicationFollower(
            replica_catalog, source, poll_interval_seconds=0.02
        )
        assert follower.lag() is None
        with pytest.raises(ReplicationError):
            follower.catch_up()
        follower.start()
        assert _wait_for(lambda: follower.poll_failures > 0)
        follower.stop()
        status = follower.status()
        assert status["source_reachable"] is False
        assert status["lag_entries"] is None

    def test_verification_failure_is_counted_and_raised(
        self, primary, replica_catalog, mappings
    ):
        primary.put_mapping("m", mappings[0])
        shard = primary._shard_id("mapping", "m")
        (entry,) = primary.journal.read_since(shard)
        corrupted = dict(entry)
        corrupted["record"] = dict(entry["record"], fingerprint="0" * 32)
        follower = ReplicationFollower(replica_catalog, LocalJournalSource(primary.root))
        with pytest.raises(ReplicationError):
            follower._apply(shard, corrupted)
        assert follower.verify_failures == 1

    @pytest.mark.parametrize(
        "setting",
        [
            {"poll_interval_seconds": 0},
            {"poll_interval_seconds": float("nan")},
            {"batch_limit": 0},
        ],
    )
    def test_parameters_validated(self, replica_catalog, primary, setting):
        source = LocalJournalSource(primary.root)
        with pytest.raises(ReplicationError):
            ReplicationFollower(replica_catalog, source, **setting)

    def test_batched_catch_up_pages_through_backlog(
        self, primary, replica_catalog, mappings
    ):
        for index, mapping in enumerate(mappings):
            primary.put_mapping("hot", mapping)  # one name: one shard backlog
        follower = ReplicationFollower(
            replica_catalog, LocalJournalSource(primary.root), batch_limit=2
        )
        assert follower.catch_up() == len(mappings)
        _assert_mirrored(primary, replica_catalog, kinds=("mapping",))

    def test_catch_up_pages_a_backlog_across_shards(
        self, primary, replica_catalog, mappings
    ):
        for index, mapping in enumerate(mappings):
            primary.put_mapping(f"m-{index}", mapping)
        shards = {primary._shard_id("mapping", f"m-{i}") for i in range(len(mappings))}
        assert len(shards) > 1
        source = LocalJournalSource(primary.root)
        answered = []
        poll = source.poll

        def counted_poll(cursors, limit):
            last_seqs, entries = poll(cursors, limit)
            answered.append(sum(len(page) for page in entries.values()))
            return last_seqs, entries

        source.poll = counted_poll
        follower = ReplicationFollower(replica_catalog, source, batch_limit=4)
        assert follower.catch_up() == len(mappings)
        # Full answers are polled again; the pass ends on a short one.
        assert answered == [4, len(mappings) - 4]
        assert follower.polls == 1
        assert follower.lag() == 0
        _assert_mirrored(primary, replica_catalog, kinds=("mapping",))

    def test_lag_comes_from_the_last_poll(
        self, primary, replica_catalog, mappings, monkeypatch
    ):
        source = LocalJournalSource(primary.root)
        follower = ReplicationFollower(replica_catalog, source)
        assert follower.lag() is None
        assert follower.status()["lag_entries"] is None
        follower.catch_up()
        assert follower.lag() == 0
        primary.put_mapping("m", mappings[0])
        # Nothing asks the source: the lag stays as the last poll saw it.
        assert follower.lag() == 0

        def failing_poll(cursors, limit):
            raise JournalError("injected read failure")

        monkeypatch.setattr(source, "poll", failing_poll)
        with pytest.raises(ReplicationError):
            follower.catch_up()
        assert follower.lag() is None
        assert follower.status()["source_reachable"] is False
        monkeypatch.undo()
        assert follower.catch_up() == 1
        assert follower.lag() == 0
        assert replica_catalog.names("mapping") == ("m",)

    def test_malformed_answer_is_a_replication_error_and_promote_still_promotes(
        self, replica_catalog
    ):
        with _StubPrimary(b"<html><body>maintenance</body></html>") as stub:
            follower = ReplicationFollower(replica_catalog, HTTPJournalSource(stub.base))
            with pytest.raises(ReplicationError):
                follower.catch_up()
            assert follower.status()["source_reachable"] is False
            report = follower.promote()
        assert report["promoted"] is True
        assert report["final_catch_up_error"]
        assert follower.promoted


class TestPromotion:
    def test_promote_stops_tailing_and_reports(self, primary, replica_catalog, mappings):
        primary.put_mapping("m", mappings[0])
        follower = ReplicationFollower(
            replica_catalog, LocalJournalSource(primary.root), poll_interval_seconds=0.02
        ).start()
        assert _wait_for(lambda: follower.lag() == 0)
        report = follower.promote()
        assert report["promoted"] is True
        assert report["final_catch_up_error"] is None
        assert not follower.is_running
        assert follower.promoted
        assert follower.status()["role"] == "primary"
        with pytest.raises(ReplicationError):
            follower.start()

    def test_promote_tolerates_dead_source(self, replica_catalog):
        source = HTTPJournalSource("http://127.0.0.1:1", timeout_seconds=0.2)
        follower = ReplicationFollower(replica_catalog, source)
        report = follower.promote()
        assert report["promoted"] is True
        assert report["final_catch_up_error"] is not None

    def test_promoted_catalog_continues_sequence_space(
        self, primary, replica_catalog, mappings
    ):
        primary.put_mapping("m", mappings[0])
        follower = ReplicationFollower(replica_catalog, LocalJournalSource(primary.root))
        follower.catch_up()
        follower.promote()
        shard = replica_catalog._shard_id("mapping", "m")
        before = replica_catalog.journal.last_seq(shard)
        replica_catalog.put_mapping("m", mappings[1])
        assert replica_catalog.journal.last_seq(shard) == before + 1
        # A second-generation follower can tail the promoted root in turn.
        grandchild = MappingCatalog(replica_catalog.root.parent / "grandchild")
        second = ReplicationFollower(grandchild, LocalJournalSource(replica_catalog.root))
        second.catch_up()
        _assert_mirrored(replica_catalog, grandchild, kinds=("mapping",))


class TestFollowerHTTP:
    @pytest.fixture()
    def replicated_stack(self, primary_server, tmp_path):
        primary, primary_base = primary_server
        catalog = MappingCatalog(tmp_path / "follower-cat")
        follower = ReplicationFollower(
            catalog, HTTPJournalSource(primary_base), poll_interval_seconds=0.02
        ).start()
        service = CompositionService(catalog, ServiceConfig())
        service.start()
        server = ServiceHTTPServer(service, port=0, follower=follower)
        server.start()
        host, port = server.address
        yield primary, primary_base, catalog, follower, f"http://{host}:{port}"
        server.stop()
        service.stop()
        if not follower.promoted:
            follower.stop()

    def _get_json(self, url):
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read().decode())

    def test_follower_replicates_over_http(self, replicated_stack, mappings):
        primary, _, catalog, follower, _ = replicated_stack
        primary.put_mapping("m", mappings[0])
        assert _wait_for(lambda: catalog.names("mapping") == ("m",))
        assert catalog.get_mapping("m") == mappings[0]
        assert follower.entries_applied >= 1

    def test_roles_and_replication_in_health_and_metrics(self, replicated_stack):
        _, primary_base, _, follower, follower_base = replicated_stack
        # source_reachable stays None until the follower's first poll completes.
        assert _wait_for(lambda: follower.status()["last_catch_up_age_seconds"] is not None)
        _, health = self._get_json(primary_base + "/healthz")
        assert health["role"] == "primary"
        assert "replication" not in health
        _, health = self._get_json(follower_base + "/healthz")
        assert health["role"] == "follower"
        assert health["replication"]["source_reachable"] is True
        _, metrics = self._get_json(follower_base + "/metrics")
        assert metrics["role"] == "follower"
        assert metrics["replication"]["verify_failures"] == 0

    def test_follower_rejects_store_writes(self, replicated_stack):
        from repro.literature.problems import problem_by_name
        from repro.textio.format import problem_to_text

        _, _, _, _, follower_base = replicated_stack
        problem = problem_by_name("example1_movies").problem
        request = urllib.request.Request(
            follower_base + "/compose?store=x",
            data=problem_to_text(problem).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value as error:
            assert error.code == 409

    def test_promote_endpoint(self, replicated_stack):
        _, _, _, follower, follower_base = replicated_stack
        request = urllib.request.Request(follower_base + "/admin/promote", method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            report = json.loads(response.read().decode())
        assert report["promoted"] is True
        assert follower.promoted
        _, health = self._get_json(follower_base + "/healthz")
        assert health["role"] == "primary"
        # A second promote is an idempotent acknowledgement.
        with urllib.request.urlopen(request, timeout=30) as response:
            again = json.loads(response.read().decode())
        assert again == {"promoted": True, "already": True}

    def test_promote_on_non_follower_is_409(self, primary_server):
        _, base = primary_server
        request = urllib.request.Request(base + "/admin/promote", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value as error:
            assert error.code == 409

    def test_journal_endpoint_shapes(self, primary_server, mappings):
        primary, base = primary_server
        primary.put_mapping("m", mappings[0])
        shard = primary._shard_id("mapping", "m")
        since = ",".join(["0"] * 16)
        _, payload = self._get_json(f"{base}/journal?since={since}")
        assert set(payload) == {"last_seqs", "entries"}
        assert payload["last_seqs"] == [1 if s == shard else 0 for s in range(16)]
        assert list(payload["entries"]) == [str(shard)]
        assert [entry["op"] for entry in payload["entries"][str(shard)]] == ["put"]
        # An idle poll: every last seq, no entries.
        cursors = ",".join("1" if s == shard else "0" for s in range(16))
        _, idle = self._get_json(f"{base}/journal?since={cursors}")
        assert idle == {"last_seqs": payload["last_seqs"], "entries": {}}

    def test_journal_endpoint_pages_a_backlog_across_shards(
        self, primary_server, mappings
    ):
        primary, base = primary_server
        for index, mapping in enumerate(mappings):
            primary.put_mapping(f"m-{index}", mapping)
        cursors = [0] * 16
        seen = []
        while True:
            _, page = self._get_json(
                f"{base}/journal?since={','.join(map(str, cursors))}&limit=4"
            )
            count = sum(len(entries) for entries in page["entries"].values())
            assert count <= 4
            for shard, entries in page["entries"].items():
                seqs = [entry["seq"] for entry in entries]
                assert seqs == sorted(seqs) and seqs[0] > cursors[int(shard)]
                cursors[int(shard)] = seqs[-1]
                seen.extend((entry["kind"], entry["name"]) for entry in entries)
            if count < 4:
                break
        assert cursors == page["last_seqs"]
        assert sorted(seen) == [("mapping", f"m-{i}") for i in range(len(mappings))]
        assert len({name for _, name in seen}) > 4  # more than one page, several shards

    @pytest.mark.parametrize(
        "query",
        [
            "",
            "?since=" + ",".join(["0"] * 15),
            "?since=" + ",".join(["0"] * 17),
            "?since=" + ",".join(["0"] * 15 + ["x"]),
            "?since=" + ",".join(["0"] * 16) + "&limit=0",
            "?since=" + ",".join(["0"] * 16) + "&limit=many",
        ],
    )
    def test_journal_endpoint_rejects_a_bad_cursor_list(self, primary_server, query):
        _, base = primary_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/journal{query}", timeout=30)
        with excinfo.value as error:
            assert error.code == 400

    def test_journal_endpoint_without_catalog_is_404(self):
        service = CompositionService(None, ServiceConfig())
        service.start()
        server = ServiceHTTPServer(service, port=0).start()
        host, port = server.address
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/journal?since=" + ",".join(["0"] * 16),
                    timeout=30,
                )
            with excinfo.value as error:
                assert error.code == 404
        finally:
            server.stop()
            service.stop()


class TestHungPrimary:
    """A primary that accepts connections but never answers."""

    @pytest.fixture()
    def hung_primary(self):
        """A listening socket nobody accepts on: connections queue, no answer."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        yield listener
        listener.close()

    def test_follower_health_and_routed_reads_survive(
        self, hung_primary, replica_catalog, mappings
    ):
        host, port = hung_primary.getsockname()
        replica_catalog.put_mapping("m", mappings[0])
        follower = ReplicationFollower(
            replica_catalog,
            HTTPJournalSource(f"http://{host}:{port}"),
            poll_interval_seconds=0.02,
        ).start()
        service = CompositionService(replica_catalog, ServiceConfig())
        service.start()
        server = ServiceHTTPServer(service, port=0, follower=follower).start()
        host, port = server.address
        follower_base = f"http://{host}:{port}"
        router = RouterHTTPServer(
            [follower_base], port=0, health_interval_seconds=0.1
        ).start()
        router_host, router_port = router.address
        try:
            started = time.monotonic()
            with urllib.request.urlopen(follower_base + "/healthz", timeout=30) as response:
                health = json.loads(response.read().decode())
            assert time.monotonic() - started < 0.5
            assert health["role"] == "follower"
            assert health["replication"]["lag_entries"] is None
            assert _wait_for(
                lambda: router.status()["backends"][0]["healthy"], timeout=10.0
            )
            with urllib.request.urlopen(
                f"http://{router_host}:{router_port}/catalog/mapping/m", timeout=30
            ) as response:
                assert response.status == 200
                assert response.headers["x-repro-backend"] == follower_base
        finally:
            router.stop()
            server.stop()
            service.stop()
            # Closing the listener resets the queued connections, so the
            # tail thread's pending poll fails at once and stop() is quick.
            hung_primary.close()
            follower.stop()


class TestSourceABC:
    def test_abstract_poll_raises(self):
        source = JournalSource()
        with pytest.raises(NotImplementedError):
            source.poll([0] * 16, 256)
        source.close()  # releases nothing, raises nothing
