"""Request-scoped tracing: spans, propagation headers, and JSONL sinks.

A trace is born at HTTP ingress (router or primary), rides across process
boundaries in ``x-repro-trace-id`` / ``x-repro-span-id`` headers, and is
stamped into journal entries so follower applies join the same tree.  Each
process records its own spans into a bounded in-memory ring (served by
``GET /trace``) and, when ``REPRO_TRACE_LOG`` points at a file, into a
:class:`~repro.obs.sink.JsonlSink`, the fail-silent JSONL file the fault
audit log also writes to: telemetry must never become a fault of its own.

Spans are cheap to the point of invisibility on untraced paths:
``span(...)`` with no ambient context and ``new_trace=False`` yields a
no-op and records nothing, so direct library use (no HTTP, no tracing
configured) pays a thread-local read and nothing else.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.sink import JsonlSink

TRACE_ID_HEADER = "x-repro-trace-id"
SPAN_ID_HEADER = "x-repro-span-id"

LOG_ENV_VAR = "REPRO_TRACE_LOG"
SERVICE_ENV_VAR = "REPRO_TRACE_SERVICE"

_RING_CAPACITY = 4096


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: enough to parent a child anywhere."""

    trace_id: str
    span_id: str

    def headers(self) -> Dict[str, str]:
        return {TRACE_ID_HEADER: self.trace_id, SPAN_ID_HEADER: self.span_id}


def extract_context(headers: Any) -> Optional[SpanContext]:
    """Pull a SpanContext out of an HTTP header mapping, if one rode in."""
    trace_id = headers.get(TRACE_ID_HEADER)
    span_id = headers.get(SPAN_ID_HEADER)
    if not trace_id:
        return None
    return SpanContext(trace_id=str(trace_id), span_id=str(span_id or ""))


class _Ambient(threading.local):
    context: Optional[SpanContext] = None


_ambient = _Ambient()


def current() -> Optional[SpanContext]:
    """The ambient span context of this thread, if any."""
    return _ambient.context


class TraceRecorder:
    """Bounded span ring + optional JSONL sink + listener fan-out.

    One recorder per process.  The ring answers ``GET /trace`` without
    touching disk; the sink makes spans survive SIGKILL for post-mortem
    merging; listeners let the service layer turn span durations into
    histograms without the catalog layer importing metrics.
    """

    def __init__(
        self,
        service: str = "",
        log_path: Optional[str] = None,
        capacity: int = _RING_CAPACITY,
    ) -> None:
        self.service = service
        self.log_path = log_path
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._listeners: List[Callable[[Dict[str, Any]], None]] = []
        self._sink = JsonlSink(log_path) if log_path else None

    # -- configuration -------------------------------------------------

    def add_listener(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[Dict[str, Any]], None]) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- recording -----------------------------------------------------

    def record(self, record: Dict[str, Any]) -> None:
        record.setdefault("service", self.service)
        with self._lock:
            self._ring.append(record)
            listeners = list(self._listeners)
            if self._sink is not None:
                self._sink.write(record)
        for listener in listeners:
            try:
                listener(record)
            except Exception:
                # A broken listener must not break the traced request.
                pass

    # -- reading -------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._ring)
        if trace_id is not None:
            records = [r for r in records if r.get("trace_id") == trace_id]
        return records

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


# The default recorder honours the environment at import time, so drill
# subprocesses (which build services directly, without the CLI calling
# ``configure``) sink spans purely through REPRO_TRACE_LOG/_SERVICE.
_recorder = TraceRecorder(
    service=os.environ.get(SERVICE_ENV_VAR, ""),
    log_path=os.environ.get(LOG_ENV_VAR) or None,
)


def recorder() -> TraceRecorder:
    return _recorder


def configure(
    service: Optional[str] = None, log_path: Optional[str] = None
) -> TraceRecorder:
    """(Re)configure the process-wide recorder.

    Falls back to ``REPRO_TRACE_SERVICE`` / ``REPRO_TRACE_LOG`` for any
    argument left as None, so subprocess drills configure purely through
    the environment.
    """
    global _recorder
    if service is None:
        service = os.environ.get(SERVICE_ENV_VAR, "")
    if log_path is None:
        log_path = os.environ.get(LOG_ENV_VAR) or None
    _recorder.close()
    _recorder = TraceRecorder(service=service, log_path=log_path)
    return _recorder


class _SpanHandle:
    """The live span yielded by ``span()``; ``context`` parents children."""

    __slots__ = ("context", "name", "attrs")

    def __init__(self, context: Optional[SpanContext], name: str, attrs: Dict[str, Any]):
        self.context = context
        self.name = name
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        if self.context is not None:
            self.attrs[key] = value


_NOOP = _SpanHandle(None, "", {})


@contextmanager
def span(
    name: str,
    parent: Optional[SpanContext] = None,
    new_trace: bool = False,
    record_start: bool = False,
    **attrs: Any,
) -> Iterator[_SpanHandle]:
    """Record a span around a block, parented on ``parent`` or the
    ambient context.

    With no parent, no ambient context, and ``new_trace=False`` this is a
    no-op: nothing is recorded and children see no context.  With
    ``record_start=True`` an immediate start event is written before the
    body runs, so a child recorded by another process never orphans even
    if this process is SIGKILLed before the completed record lands.
    """
    effective_parent = parent if parent is not None else _ambient.context
    if effective_parent is None and not new_trace:
        yield _NOOP
        return

    trace_id = effective_parent.trace_id if effective_parent else new_trace_id()
    context = SpanContext(trace_id=trace_id, span_id=new_span_id())
    handle = _SpanHandle(context, name, dict(attrs))

    if record_start:
        _recorder.record(
            {
                "trace_id": trace_id,
                "span_id": context.span_id,
                "parent_id": effective_parent.span_id if effective_parent else None,
                "name": name,
                "start": time.time(),
                "attrs": dict(handle.attrs),
                "event": "start",
            }
        )

    prior = _ambient.context
    _ambient.context = context
    started_wall = time.time()
    started = time.perf_counter()
    status = "ok"
    try:
        yield handle
    except BaseException:
        status = "error"
        raise
    finally:
        _ambient.context = prior
        _recorder.record(
            {
                "trace_id": trace_id,
                "span_id": context.span_id,
                "parent_id": effective_parent.span_id if effective_parent else None,
                "name": name,
                "start": started_wall,
                "duration": time.perf_counter() - started,
                "status": status,
                "attrs": handle.attrs,
            }
        )


def record_span(
    name: str,
    parent: SpanContext,
    started_at: float,
    duration: float,
    status: str = "ok",
    **attrs: Any,
) -> SpanContext:
    """Record a span retroactively from measured timings.

    For work whose wall time is measured in another thread (queue wait,
    batch execution) or another process (follower applies parented on a
    journal-entry stamp): the caller supplies the wall-clock start and
    the duration, and the span joins ``parent``'s trace.
    """
    context = SpanContext(trace_id=parent.trace_id, span_id=new_span_id())
    _recorder.record(
        {
            "trace_id": parent.trace_id,
            "span_id": context.span_id,
            "parent_id": parent.span_id,
            "name": name,
            "start": started_at,
            "duration": max(0.0, duration),
            "status": status,
            "attrs": dict(attrs),
        }
    )
    return context


@contextmanager
def ambient(context: Optional[SpanContext]) -> Iterator[None]:
    """Temporarily install ``context`` as this thread's ambient context."""
    prior = _ambient.context
    _ambient.context = context
    try:
        yield
    finally:
        _ambient.context = prior
