"""HTTP plumbing shared by the service tier: one server class, one client class.

Every hop of the tier — client to router, router to backend, follower to
primary — speaks HTTP/1.1 over persistent connections, so a connection is
opened once per client and once per backend rather than once per request.

* :class:`KeepAliveServer` is the threading server of both the composition
  service (:mod:`repro.service.http`) and the router
  (:mod:`repro.service.router`).  One handler thread serves a connection
  for as long as its client keeps it open.  What closes a connection:

  - the client asks (``Connection: close``, or an HTTP/1.0 request);
  - the connection sat idle for :data:`IDLE_TIMEOUT_SECONDS`, so a silent
    client cannot pin a handler thread;
  - the request declared a body the handler did not read (the response
    then carries ``Connection: close``), so unread bytes are never parsed
    as the next request;
  - the server stops: ``server_close()`` shuts down every open connection,
    so a stopped server stops answering at once.

* :class:`BaseHandler` is the request-handler base of both servers: logging
  that stays quiet unless the server is verbose, the bounded body reader,
  and the response writers, which echo the current span context so a
  client can correlate any response with its span tree.

* :class:`PooledClient` carries every outbound call of the tier: the
  router's relay and health polls, the follower's journal polls, the
  election probe, and ``repro metrics``.  It keeps a thread-safe pool of
  keep-alive connections per origin, adds the ambient span context's trace
  headers, and answers ``(status, headers, body)`` for every status code.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Set, Tuple
from urllib.parse import urlsplit

from repro import obs

__all__ = [
    "BaseHandler",
    "IDLE_TIMEOUT_SECONDS",
    "KeepAliveServer",
    "MAX_BODY_BYTES",
    "PooledClient",
    "TRANSPORT_ERRORS",
]

#: Seconds a connection may sit idle before the server closes it.
IDLE_TIMEOUT_SECONDS = 30.0

#: The largest request body a handler reads.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: What :meth:`PooledClient.request` raises when no complete response
#: arrived; callers treat it as "the peer is unreachable".
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

#: Failures of a reused connection that the peer closed while it sat idle in
#: the pool: the request never reached a handler, so it is sent once more on
#: a fresh connection.  ``RemoteDisconnected`` is a ``ConnectionResetError``.
_STALE = (BrokenPipeError, ConnectionResetError)

#: Idle connections kept per origin; more are closed when handed back.
_MAX_IDLE_PER_ORIGIN = 8

_CONNECTION_CLASSES = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}


class KeepAliveServer(ThreadingHTTPServer):
    """The stdlib threading server, with idle and shutdown handling for
    persistent connections.

    The owner pins ``verbose`` (and whatever its handlers reach through
    ``self.server``) onto the instance before serving starts.
    """

    daemon_threads = True
    verbose = False

    def __init__(self, address: Tuple[str, int], handler) -> None:
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def get_request(self):
        connection, address = super().get_request()
        connection.settimeout(IDLE_TIMEOUT_SECONDS)
        with self._open_lock:
            self._open.add(connection)
        return connection, address

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A peer hanging up mid-exchange is routine on persistent connections,
        # and server_close() cuts in-flight ones; anything else still prints
        # the stdlib's traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        # Wakes every handler thread blocked on its connection and tells
        # each client the connection is gone; under the lock no handler can
        # have closed (and so freed) the socket yet.
        with self._open_lock:
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        super().server_close()


class BaseHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # The headers and the body leave in separate writes; with Nagle's
    # algorithm on, the body waits for the client's delayed ACK of the
    # headers on every keep-alive reply.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        # One handler serves every request of its connection: per-request
        # state starts over here.
        self._last_status = 0
        self._body_pending = (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0") != "0"
        )
        return True

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after answering 400 for a bad length."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send_text(400, "malformed Content-Length header\n")
            return None
        if length > MAX_BODY_BYTES:
            self._send_text(400, "request body too large\n")
            return None
        body = self.rfile.read(length)
        # A chunked body is never read: its framing is not supported.
        self._body_pending = "Transfer-Encoding" in self.headers or len(body) < length
        return body

    def _send(self, status: int, body: bytes, content_type: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers:
            self.send_header(key, value)
        if self._body_pending:
            # The unread body would be parsed as the next request.
            self.send_header("Connection", "close")
        context = obs.current()
        if context is not None:
            # Echo the request's trace identity so clients (and the router's
            # relay loop) can correlate the response with the span tree.
            self.send_header(obs.TRACE_ID_HEADER, context.trace_id)
            self.send_header(obs.SPAN_ID_HEADER, context.span_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; charset=utf-8", headers)

    def _send_json(self, status: int, payload: object, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._send(status, body.encode("utf-8"), "application/json", headers)


class PooledClient:
    """An HTTP/1.1 client over a thread-safe pool of keep-alive connections
    per origin.

    :meth:`request` answers ``(status, headers, body)`` for every status
    code, with lower-cased header names.  It raises one of
    :data:`TRANSPORT_ERRORS` only when no complete response arrived.
    ``connections_opened`` counts the connections it opened.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, str], List[http.client.HTTPConnection]] = {}
        self.connections_opened = 0

    def request(
        self,
        method: str,
        url: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        *,
        timeout: float,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request and read the whole response.

        The ambient span context's trace headers ride along.  A reused
        connection that fails before any response byte arrives is retried
        once on a fresh connection; a response marked ``Connection: close``
        drops its connection.
        """
        parts = urlsplit(url)
        origin = (parts.scheme, parts.netloc)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        send_headers = dict(headers or {})
        context = obs.current()
        if context is not None:
            send_headers.update(context.headers())
        connection = self._take(origin)
        while True:
            reused = connection is not None
            if connection is None:
                connection = self._open(origin, timeout)
            else:
                connection.sock.settimeout(timeout)
            try:
                connection.request(method, target, body=body, headers=send_headers)
                response = connection.getresponse()
            except _STALE:
                connection.close()
                if reused:
                    connection = None
                    continue
                raise
            except BaseException:
                connection.close()
                raise
            break
        try:
            payload = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            self._give_back(origin, connection)
        return (
            response.status,
            {key.lower(): value for key, value in response.getheaders()},
            payload,
        )

    def _take(self, origin: Tuple[str, str]) -> Optional[http.client.HTTPConnection]:
        with self._lock:
            idle = self._idle.get(origin)
            return idle.pop() if idle else None

    def _give_back(self, origin: Tuple[str, str], connection: http.client.HTTPConnection) -> None:
        with self._lock:
            idle = self._idle.setdefault(origin, [])
            if len(idle) < _MAX_IDLE_PER_ORIGIN:
                idle.append(connection)
                return
        connection.close()

    def _open(self, origin: Tuple[str, str], timeout: float) -> http.client.HTTPConnection:
        scheme, netloc = origin
        if scheme not in _CONNECTION_CLASSES:
            raise http.client.InvalidURL(f"unsupported URL scheme {scheme!r}")
        connection = _CONNECTION_CLASSES[scheme](netloc, timeout=timeout)
        connection.connect()
        with self._lock:
            self.connections_opened += 1
        return connection

    def close(self) -> None:
        """Close every idle connection; the client stays usable."""
        with self._lock:
            idle = [c for connections in self._idle.values() for c in connections]
            self._idle.clear()
        for connection in idle:
            connection.close()
