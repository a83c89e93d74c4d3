"""The load generator's HTTP client: one HTTP/1.1 connection per client.

The connection is reused for as long as the server keeps it open and is
reopened when the server closes it, so a server that gains keep-alive
shows up as fewer connections per operation without a benchmark change.
Every request carries a timeout.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional, Tuple

#: Connection-level errors after which a request on a *reused* connection
#: is sent once more on a fresh one (the server closed it while idle).
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class _CountingConnection(http.client.HTTPConnection):
    def __init__(self, owner: "Client", *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._owner = owner

    def connect(self) -> None:
        super().connect()
        self._owner.connections_opened += 1


class Response:
    __slots__ = ("status", "headers", "body", "seconds")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes, seconds: float):
        self.status = status
        self.headers = headers
        self.body = body
        self.seconds = seconds


class Client:
    """A closed-loop client over one connection (not thread-safe)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.connections_opened = 0
        self._conn = _CountingConnection(self, host, port, timeout=timeout)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Send one request and read the whole reply.

        Raises ``OSError`` (timeouts included) or ``http.client.HTTPException``
        when the request fails; the caller counts it as a failed operation.
        """
        headers = dict(headers or {})
        if body is not None:
            headers.setdefault("Content-Type", "text/plain; charset=utf-8")
        for attempt in range(2):
            reused = self._conn.sock is not None
            started = time.perf_counter()
            try:
                self._conn.request(method, path, body=body, headers=headers)
                reply = self._conn.getresponse()
                payload = reply.read()
            except _STALE:
                self._conn.close()
                if reused and attempt == 0:
                    continue
                raise
            except (OSError, http.client.HTTPException):
                self._conn.close()
                raise
            seconds = time.perf_counter() - started
            # http.client closes the socket itself after a reply the server
            # marked as closing (an HTTP/1.0 reply, or Connection: close);
            # the next request then reconnects through connect().
            return Response(
                reply.status,
                {key.lower(): value for key, value in reply.getheaders()},
                payload,
                seconds,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def get(self, path: str, headers: Optional[Dict[str, str]] = None) -> Response:
        return self.request("GET", path, headers=headers)

    def post(self, path: str, body: bytes, headers: Optional[Dict[str, str]] = None) -> Response:
        return self.request("POST", path, body=body, headers=headers)

    def close(self) -> None:
        self._conn.close()


def fetch_json(host: str, port: int, path: str, timeout: float = 10.0) -> Tuple[int, object]:
    """One-shot GET of a JSON endpoint (for status and metrics scrapes)."""
    client = Client(host, port, timeout=timeout)
    try:
        reply = client.get(path)
    finally:
        client.close()
    try:
        return reply.status, json.loads(reply.body.decode("utf-8"))
    except ValueError:
        return reply.status, None
