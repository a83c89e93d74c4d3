"""Tests for the health-routing front tier (``repro route``)."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower
from repro.exceptions import ServiceError
from repro.literature.problems import problem_by_name
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    ReplicationFollower,
    RouterHTTPServer,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.service.router import BackendState
from repro.textio.format import problem_to_text


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Stack:
    """One backend: catalog + service + HTTP server, with optional follower."""

    def __init__(self, root, follower=None):
        self.catalog = MappingCatalog(root)
        self.follower = follower
        self.service = CompositionService(
            self.catalog, ServiceConfig()
        )
        self.service.start()
        self.server = ServiceHTTPServer(self.service, port=0, follower=follower)
        self.server.start()
        host, port = self.server.address
        self.base = f"http://{host}:{port}"

    def stop(self):
        self.server.stop()
        self.service.stop()
        if self.follower is not None and not self.follower.promoted:
            self.follower.stop()


@pytest.fixture()
def primary(tmp_path):
    stack = _Stack(tmp_path / "primary")
    yield stack
    stack.stop()


@pytest.fixture()
def follower_stack(primary, tmp_path):
    catalog = MappingCatalog(tmp_path / "follower")
    follower = ReplicationFollower(
        catalog, HTTPJournalSource(primary.base), poll_interval_seconds=0.02
    ).start()
    stack = _Stack.__new__(_Stack)
    stack.catalog = catalog
    stack.follower = follower
    stack.service = CompositionService(
        catalog, ServiceConfig()
    )
    stack.service.start()
    stack.server = ServiceHTTPServer(stack.service, port=0, follower=follower)
    stack.server.start()
    host, port = stack.server.address
    stack.base = f"http://{host}:{port}"
    yield stack
    stack.stop()


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


def _post(url, body=b"", timeout=60):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


class TestCandidateSelection:
    def _backend(self, url, healthy=True, reachable=True, role="primary"):
        state = BackendState(url)
        state.healthy = healthy
        state.reachable = reachable
        state.role = role
        return state

    def _router(self, backends):
        router = RouterHTTPServer.__new__(RouterHTTPServer)
        router.backends = backends
        import threading

        router._lock = threading.Lock()
        router._rotation = 0
        return router

    def test_reads_prefer_followers_then_primary_then_degraded(self):
        follower = self._backend("http://f", role="follower")
        primary = self._backend("http://p")
        degraded = self._backend("http://d", healthy=False)
        router = self._router([degraded, primary, follower])
        order = [b.url for b in router._read_candidates()]
        assert order == ["http://f", "http://p", "http://d"]

    def test_reads_rotate_among_followers(self):
        followers = [
            self._backend(f"http://f{n}", role="follower") for n in range(3)
        ]
        router = self._router(followers)
        first = [b.url for b in router._read_candidates()]
        second = [b.url for b in router._read_candidates()]
        assert sorted(first) == sorted(second)
        assert first != second  # the rotation moved

    def test_writes_only_go_to_primaries(self):
        follower = self._backend("http://f", role="follower")
        primary = self._backend("http://p")
        degraded_primary = self._backend("http://dp", healthy=False)
        router = self._router([follower, degraded_primary, primary])
        order = [b.url for b in router._write_candidates()]
        assert order == ["http://p", "http://dp"]

    def test_unreachable_backends_are_never_candidates(self):
        dead = self._backend("http://dead", healthy=False, reachable=False)
        router = self._router([dead])
        assert router._read_candidates() == []
        assert router._write_candidates() == []

    def test_writes_prefer_the_highest_epoch_primary(self):
        old = self._backend("http://old")
        promoted = self._backend("http://promoted")
        promoted.epoch = 2
        old.epoch = 1
        router = self._router([old, promoted])
        order = [b.url for b in router._write_candidates()]
        assert order == ["http://promoted", "http://old"]

    def test_equal_epochs_preserve_configured_order(self):
        first = self._backend("http://first")
        second = self._backend("http://second")
        router = self._router([first, second])
        order = [b.url for b in router._write_candidates()]
        assert order == ["http://first", "http://second"]

    def test_idempotency_rules(self):
        assert RouterHTTPServer._idempotent("GET", "/metrics")
        assert RouterHTTPServer._idempotent("POST", "/compose")
        assert RouterHTTPServer._idempotent("POST", "/compose?store=x")
        assert not RouterHTTPServer._idempotent("POST", "/admin/promote")

    @pytest.mark.parametrize(
        "backends, setting",
        [
            ([], {}),
            (["http://x"], {"health_interval_seconds": 0}),
            (["http://x"], {"health_interval_seconds": float("nan")}),
            (["http://x"], {"min_consecutive_ok": 0}),
        ],
    )
    def test_constructor_validation(self, backends, setting):
        with pytest.raises(ServiceError):
            RouterHTTPServer(backends, **setting)


class TestRouting:
    def test_routes_reads_and_writes(self, primary, follower_stack):
        with RouterHTTPServer(
            [primary.base, follower_stack.base], port=0, health_interval_seconds=0.05
        ) as router:
            host, port = router.address
            base = f"http://{host}:{port}"
            # Reads go to the healthy follower first.
            status, _, headers = _get(base + "/healthz")
            assert status == 200
            assert headers["x-repro-backend"] == follower_stack.base
            # Writes (a stored composition) go to the primary.
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                base + "/compose?store=routed", problem_to_text(problem).encode()
            )
            assert status == 200
            assert headers["x-repro-backend"] == primary.base
            assert "routed" in primary.catalog.names("result")
            # ... and the stored problem replicates to the follower.
            assert _wait_for(
                lambda: "routed" in follower_stack.catalog.names("result")
            )

    def test_router_status_reports_backends(self, primary):
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            _, body, _ = _get(f"http://{host}:{port}/router/status")
            status = json.loads(body)
            (backend,) = status["backends"]
            assert backend["url"] == primary.base
            assert backend["healthy"] is True
            assert backend["role"] == "primary"
            assert status["failovers_observed"] == 0

    def test_backend_errors_are_relayed_verbatim(self, primary):
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{host}:{port}/no/such/endpoint")
            assert excinfo.value.code == 404
            # An answering backend is authoritative: no retry was counted.
            assert router.request_retries == 0

    def test_malformed_record_is_relayed_as_400_and_the_backend_stays_up(self, primary):
        malformed = b"[sigma1]\nR/2\n[sigma2]\nS/2\n[sigma3]\n[sigma12]\nR/1.5 <= S/2\n[sigma23]\n"
        problem = problem_by_name("example1_movies").problem
        with RouterHTTPServer([primary.base], port=0, health_interval_seconds=30) as router:
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://{host}:{port}/compose", malformed)
            assert excinfo.value.code == 400
            assert b"expected an integer" in excinfo.value.read()
            (backend,) = router.backends
            assert backend.reachable and backend.healthy
            status, _, headers = _post(
                f"http://{host}:{port}/compose", problem_to_text(problem).encode()
            )
            assert status == 200
            assert headers["x-repro-backend"] == primary.base
            assert router.requests_failed == 0

    def test_dead_backend_read_retries_to_survivor(self, primary, tmp_path):
        doomed = _Stack(tmp_path / "doomed")
        with RouterHTTPServer(
            [doomed.base, primary.base], port=0, health_interval_seconds=30
        ) as router:
            doomed.stop()
            host, port = router.address
            # The health loop races the stop() above (start() runs one
            # synchronous pass and the loop thread runs another before its
            # first wait), so halt it and pin the router's belief — doomed
            # healthy, tried first.  The request itself is then what
            # discovers the death.
            router._health_stop.set()
            router._health_thread.join()
            state = next(b for b in router.backends if b.url == doomed.base)
            state.healthy = True
            state.reachable = True
            router.backends.sort(key=lambda b: b.url != doomed.base)
            status, _, headers = _get(f"http://{host}:{port}/healthz")
            assert status == 200
            assert headers["x-repro-backend"] == primary.base
            assert headers["x-repro-retries"] == "1"
            assert router.request_retries == 1
            # The failed backend was marked down immediately.
            state = next(b for b in router.backends if b.url == doomed.base)
            assert state.reachable is False

    def test_no_backend_means_503_with_retry_after(self, tmp_path):
        stack = _Stack(tmp_path / "gone")
        base = stack.base
        stack.stop()
        with RouterHTTPServer([base], port=0, health_interval_seconds=30) as router:
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{host}:{port}/healthz")
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            assert router.requests_failed == 1

    def test_non_idempotent_post_is_not_retried(self, primary, tmp_path):
        doomed = _Stack(tmp_path / "doomed")
        with RouterHTTPServer(
            [doomed.base, primary.base], port=0, health_interval_seconds=30
        ) as router:
            doomed.stop()
            # Halt the health loop and pin the router's belief, as in
            # test_dead_backend_read_retries_to_survivor above.
            router._health_stop.set()
            router._health_thread.join()
            state = next(b for b in router.backends if b.url == doomed.base)
            state.healthy = True
            state.reachable = True
            router.backends.sort(key=lambda b: b.url != doomed.base)
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://{host}:{port}/admin/promote")
            assert excinfo.value.code == 503
            assert router.request_retries == 0


class TestFlapDamping:
    def test_recovering_backend_needs_consecutive_ok_polls(self, primary):
        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=30
        ) as router:
            # Halt the health loop so the polls below are the only ones.
            router._health_stop.set()
            router._health_thread.join()
            (backend,) = router.backends
            # Pretend the backend just came back from an unreachable streak.
            backend.healthy = False
            backend.consecutive_failures = 3
            backend.consecutive_ok = 0
            router.check_backend(backend)
            assert backend.consecutive_ok == 1
            assert backend.healthy is False  # one OK poll is not enough
            router.check_backend(backend)
            assert backend.consecutive_ok == 2
            assert backend.healthy is True
            assert backend.consecutive_failures == 0
            assert backend.last_poll_at is not None

    def test_cold_start_backend_is_healthy_on_first_poll(self, primary):
        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=30, min_consecutive_ok=3
        ) as router:
            # start() runs a synchronous check_all: never-failed backends
            # enter rotation on their very first OK poll.
            (backend,) = router.backends
            assert backend.healthy is True
            assert backend.consecutive_ok >= 1

    def test_status_exposes_damping_fields(self, primary):
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            _, body, _ = _get(f"http://{host}:{port}/router/status")
            (backend,) = json.loads(body)["backends"]
            assert backend["consecutive_ok"] >= 1
            assert backend["last_poll_at"] is not None
            assert backend["epoch"] == 0


class TestFailover:
    def test_promotion_is_observed_and_writes_flow(self, primary, follower_stack):
        with RouterHTTPServer(
            [primary.base, follower_stack.base], port=0, health_interval_seconds=0.05
        ) as router:
            host, port = router.address
            base = f"http://{host}:{port}"
            assert _wait_for(
                lambda: any(b.role == "follower" for b in router.backends)
            )
            # The primary dies; the operator promotes the follower directly.
            primary.stop()
            _post(follower_stack.base + "/admin/promote")
            assert _wait_for(
                lambda: any(
                    b.role == "primary" and b.healthy and b.url == follower_stack.base
                    for b in router.backends
                )
            )
            assert router.failovers >= 1
            # Writes flow again — through the promoted replica.
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                base + "/compose?store=after-failover",
                problem_to_text(problem).encode(),
            )
            assert status == 200
            assert headers["x-repro-backend"] == follower_stack.base
            assert "after-failover" in follower_stack.catalog.names("result")
            _, body, _ = _get(base + "/router/status")
            assert json.loads(body)["failovers_observed"] >= 1


class TestTracing:
    def test_trace_id_survives_idempotent_retry(self, primary, tmp_path):
        """A write retried onto the second backend keeps its trace id.

        The router starts the trace at ingress; each forwarding attempt is
        its own span carrying the same trace id in the outbound headers, so
        the attempt that dies and the attempt that succeeds — and the
        backend's own spans — all land in one tree.
        """
        from repro import obs

        doomed = _Stack(tmp_path / "doomed")
        with RouterHTTPServer(
            [doomed.base, primary.base], port=0, health_interval_seconds=30
        ) as router:
            doomed.stop()
            # Halt the health loop and pin the router's belief, as in
            # test_dead_backend_read_retries_to_survivor above.
            router._health_stop.set()
            router._health_thread.join()
            state = next(b for b in router.backends if b.url == doomed.base)
            state.healthy = True
            state.reachable = True
            router.backends.sort(key=lambda b: b.url != doomed.base)
            host, port = router.address
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                f"http://{host}:{port}/compose", problem_to_text(problem).encode()
            )
            assert status == 200
            assert headers["x-repro-retries"] == "1"
            trace_id = headers[obs.TRACE_ID_HEADER]
            assert trace_id
            # Router and backend run in this process, so the process-global
            # ring holds both sides of the story.
            records = obs.recorder().spans(trace_id)
            attempts = [r for r in records if r["name"] == "router.attempt"]
            assert len(attempts) == 2  # the death and the survivor
            assert len({a["span_id"] for a in attempts}) == 2
            assert {a["attrs"]["backend"] for a in attempts} == {
                doomed.base,
                primary.base,
            }
            dead = next(a for a in attempts if a["attrs"]["backend"] == doomed.base)
            assert dead["attrs"].get("unreachable") is True
            # The surviving backend's ingress span joined the router's trace,
            # parented on the attempt that reached it.
            ingress = [r for r in records if r["name"] == "http.request"]
            assert ingress, "backend recorded no http.request span in the trace"
            survivor = next(
                a for a in attempts if a["attrs"]["backend"] == primary.base
            )
            assert any(r["parent_id"] == survivor["span_id"] for r in ingress)

    def test_response_echoes_only_the_router_span(self, primary):
        """The backend's trace echo is dropped with the hop headers, so the
        client sees one trace/span pair: the router's ingress span, the root
        of the merged tree."""
        from repro import obs

        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=30
        ) as router:
            host, port = router.address
            problem = problem_by_name("example1_movies").problem
            request = urllib.request.Request(
                f"http://{host}:{port}/compose",
                data=problem_to_text(problem).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                trace_ids = response.headers.get_all(obs.TRACE_ID_HEADER)
                span_ids = response.headers.get_all(obs.SPAN_ID_HEADER)
        assert len(trace_ids) == 1
        assert len(span_ids) == 1
        records = obs.recorder().spans(trace_ids[0])
        assert {r["name"] for r in records if r["span_id"] == span_ids[0]} == {
            "router.request"
        }
        # The backend did echo its own ingress span; the router dropped it.
        assert any(r["name"] == "http.request" for r in records)

    def test_poll_loop_failure_bumps_the_status_counter(self, primary):
        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=0.01
        ) as router:
            # Patch the started instance: start()'s own synchronous pass has
            # already run, so only the background loop sees the explosion.
            def exploding_check_all():
                raise RuntimeError("probe exploded")

            router.check_all = exploding_check_all
            host, port = router.address
            assert _wait_for(lambda: router.poll_failures >= 1)
            _, body, _ = _get(f"http://{host}:{port}/router/status")
            assert json.loads(body)["poll_failures"] >= 1
