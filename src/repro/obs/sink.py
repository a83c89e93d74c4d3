"""The fail-silent, append-only JSONL file behind every audit log.

The fault audit log (:mod:`repro.faults`), the span sink
(:class:`~repro.obs.trace.TraceRecorder`) and the HTTP access log share one
contract: each record is appended as one JSON line and flushed as it is
written, and the first ``OSError`` silences the sink for good.  A log is an
audit convenience; it must never become a fault of its own.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Any, Dict, Optional

__all__ = ["JsonlSink"]


class JsonlSink:
    """One append-only JSONL file, opened on the first write (thread-safe)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._failed = False

    def write(self, record: Dict[str, Any]) -> None:
        """Append ``record`` as one JSON line and flush it."""
        with self._lock:
            if self._failed:
                return
            try:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
            except OSError:
                self._failed = True

    def sync(self) -> None:
        """Flush and fsync what was written, e.g. before a deliberate crash."""
        with self._lock:
            if self._handle is None:
                return
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
