"""HTTP plumbing shared by the service tier's two stdlib servers.

:class:`BaseHandler` is the request-handler base of the composition service
(:mod:`repro.service.http`) and of the router (:mod:`repro.service.router`):
logging that stays quiet unless the server is verbose, and the response
writers, which echo the current span context so a client can correlate any
response with its span tree.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Tuple

from repro import obs

__all__ = ["BaseHandler"]


class BaseHandler(BaseHTTPRequestHandler):
    # ``self.server`` is the ThreadingHTTPServer; its owner pins a ``verbose``
    # attribute onto it before serving starts.

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers:
            self.send_header(key, value)
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
