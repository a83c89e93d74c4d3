"""Observability: request-scoped tracing, sinks, and cross-process merging.

``repro.obs.trace`` records spans into a bounded ring plus an optional
JSONL sink; ``repro.obs.merge`` reassembles the sinks of router, primary,
and followers into one tree per trace id; ``repro.obs.sink`` is the
fail-silent JSONL file that the span sink, the fault audit log and the
HTTP access log all write through.
"""

from repro.obs.trace import (
    LOG_ENV_VAR,
    SERVICE_ENV_VAR,
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    SpanContext,
    TraceRecorder,
    ambient,
    configure,
    current,
    extract_context,
    new_span_id,
    new_trace_id,
    record_span,
    recorder,
    span,
)
from repro.obs.sink import JsonlSink
from repro.obs.merge import (
    build_tree,
    format_trace,
    load_spans,
    merge_spans,
    verify,
)

__all__ = [
    "JsonlSink",
    "LOG_ENV_VAR",
    "SERVICE_ENV_VAR",
    "SPAN_ID_HEADER",
    "TRACE_ID_HEADER",
    "SpanContext",
    "TraceRecorder",
    "ambient",
    "build_tree",
    "configure",
    "current",
    "extract_context",
    "format_trace",
    "load_spans",
    "merge_spans",
    "new_span_id",
    "new_trace_id",
    "record_span",
    "recorder",
    "span",
    "verify",
]
