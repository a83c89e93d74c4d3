"""Tests for persistent connections: the shared server and the pooled client."""

import http.client
import json
import re
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.catalog import MappingCatalog
from repro.literature.problems import problem_by_name
from repro.service import CompositionService, RouterHTTPServer, ServiceConfig, ServiceHTTPServer
from repro.service.wire import PooledClient
from repro.textio.format import problem_to_text

#: A complete request hidden in a body the server answers without reading.
_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture()
def service(tmp_path):
    service = CompositionService(
        MappingCatalog(tmp_path / "root"), ServiceConfig()
    )
    service.start()
    yield service
    service.stop()


@pytest.fixture()
def server(service):
    server = ServiceHTTPServer(service, port=0).start()
    yield server
    server.stop()


def _halted_router(backends):
    """A started router whose health loop is stopped after its first passes."""
    router = RouterHTTPServer(backends, port=0, health_interval_seconds=30).start()
    router._health_stop.set()
    router._health_thread.join()
    return router


def _one_response_then_eof(address, payload, timeout=10.0):
    """Send raw bytes; assert exactly one response came back before EOF.

    Returns the response head.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(payload)
        received = b""
        while True:
            chunk = sock.recv(65536)  # a timeout here means no EOF ever came
            if not chunk:
                break
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 ")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    assert len(body) == length, f"bytes after the first response: {body[length:]!r}"
    return head


class TestUnreadBody:
    """A body the handler did not read is never parsed as the next request."""

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n",
            b"POST /admin/promote HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n",
            b"POST /compose HTTP/1.1\r\nHost: x\r\nContent-Length: x%d\r\n\r\n",
        ],
        ids=["unknown-path", "promote", "get-with-body", "malformed-length"],
    )
    def test_service_answers_once_then_closes(self, server, head):
        response = _one_response_then_eof(server.address, head % len(_SMUGGLED) + _SMUGGLED)
        assert b"Connection: close" in response

    def test_chunked_body_is_not_parsed_as_a_request(self, server):
        chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(_SMUGGLED), _SMUGGLED)
        response = _one_response_then_eof(
            server.address,
            b"POST /compose HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" + chunk,
        )
        assert b"Connection: close" in response

    def test_router_oversized_post_answers_once_then_closes(self, server):
        host, port = server.address
        router = _halted_router([f"http://{host}:{port}"])
        try:
            response = _one_response_then_eof(
                router.address,
                b"POST /compose HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999\r\n\r\n"
                + _SMUGGLED,
            )
        finally:
            router.stop()
        assert response.startswith(b"HTTP/1.1 400")

    def test_client_drops_a_connection_marked_close(self, server):
        host, port = server.address
        client = PooledClient()
        try:
            status, headers, _ = client.request(
                "GET", f"http://{host}:{port}/healthz", b"unread", timeout=10
            )
            assert status == 200
            assert headers["connection"] == "close"
            status, _, _ = client.request("GET", f"http://{host}:{port}/healthz", timeout=10)
            assert status == 200
            assert client.connections_opened == 2
        finally:
            client.close()


class TestPersistentConnections:
    def test_threads_share_the_client_pool_safely(self, server):
        host, port = server.address
        client = PooledClient()
        problems = []

        def worker(n):
            try:
                for i in range(25):
                    path = f"/nope-{n}-{i}"
                    status, _, body = client.request(
                        "GET", f"http://{host}:{port}{path}", timeout=10
                    )
                    # The 404 names the path: a connection shared by two
                    # threads would hand one of them the other's reply.
                    if status != 404 or path.encode() not in body:
                        problems.append((path, status, body))
            except Exception as exc:  # noqa: BLE001 - asserted on below
                problems.append((n, repr(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
            client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert client.connections_opened <= len(threads)

    def test_keepalive_round_trips_reuse_one_connection_without_stalls(self, server):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.connect()
            sock = connection.sock
            samples = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                samples.append(time.perf_counter() - started)
                assert response.status == 200
            assert connection.sock is sock  # never reconnected
        finally:
            connection.close()
        # A delayed-ACK stall (Nagle on the server) costs >= 40 ms on Linux.
        assert statistics.median(samples) < 0.020

    def test_router_opens_one_connection_per_backend(self, service, tmp_path):
        primary = ServiceHTTPServer(service, port=0).start()
        second = CompositionService(
            MappingCatalog(tmp_path / "second"), ServiceConfig()
        )
        second.start()
        secondary = ServiceHTTPServer(second, port=0).start()
        backends = [
            "http://{}:{}".format(*primary.address),
            "http://{}:{}".format(*secondary.address),
        ]
        router = _halted_router(backends)
        # Pin the second backend as a follower: reads go there, writes to
        # the primary, so both carry relayed traffic.
        router.backends[1].role = "follower"
        body = problem_to_text(problem_by_name("example1_movies").problem).encode()
        connection = http.client.HTTPConnection(*router.address, timeout=30)
        try:
            connection.connect()
            sock = connection.sock
            for n in range(50):
                if n % 2:
                    connection.request("POST", "/compose", body=body)
                else:
                    connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            connection.request("GET", "/router/status")
            status = json.loads(connection.getresponse().read())
            assert connection.sock is sock
        finally:
            connection.close()
            router.stop()
            secondary.stop()
            second.stop()
            primary.stop()
        assert status["requests_routed"] == 50
        assert status["connections_opened"] <= len(backends)

    def test_restarted_backend_is_reached_on_a_fresh_connection(self, service):
        backend = ServiceHTTPServer(service, port=0).start()
        host, port = backend.address
        router = _halted_router([f"http://{host}:{port}"])
        client = http.client.HTTPConnection(*router.address, timeout=30)
        try:
            client.request("GET", "/healthz")
            assert client.getresponse().read()
            opened = router.client.connections_opened
            backend.stop()
            backend = ServiceHTTPServer(service, port=port).start()
            client.request("GET", "/healthz")
            response = client.getresponse()
            response.read()
            assert response.status == 200
            assert router.client.connections_opened == opened + 1
            assert router.request_retries == 0
        finally:
            client.close()
            router.stop()
            backend.stop()

    def test_idle_client_sees_eof_after_stop(self, server):
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            server.stop()
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()
