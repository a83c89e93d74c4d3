"""Catalog replication: followers that tail a primary's journal and mirror it.

:class:`ReplicationFollower` is the consumer half of the replication protocol
whose producer is :class:`~repro.catalog.journal.CatalogJournal`: it polls a
*source* — the primary's catalog root on a shared/local filesystem
(:class:`LocalJournalSource`) or a running primary's HTTP endpoint
``GET /journal?since=<s0>,…,<s15>`` (:class:`HTTPJournalSource`) — applies
every new entry into its own catalog through
:meth:`~repro.catalog.MappingCatalog.apply_journal_entry`, and verifies each
applied version's content fingerprint afterwards, so mirrored bytes are
checked to reproduce the content the primary acknowledged.

One poll is one request: it carries the follower's applied seq of every
shard and answers every shard's last seq plus the entries past those
cursors, so an idle poll costs one small request, and the primary answers
an idle shard from a stat.  The follower's lag is worked out from the last
poll's answer: :meth:`ReplicationFollower.status` never calls the primary.

The follower's replay cursor is its *own* journal: applied entries are
re-journaled with their original per-shard sequence numbers, so a restarted
follower resumes from ``catalog.journal.last_seq(shard)`` without any extra
cursor file, and a *promoted* follower's journal continues the primary's
sequence space seamlessly — the next follower can tail it in turn.

Promotion (:meth:`ReplicationFollower.promote`) runs one final catch-up pass
against the source (best-effort: a dead primary is the normal case), stops
the tailing thread, and leaves the catalog writable as the new primary.

Transient source unavailability is not an error: the follower keeps polling,
counts the failures, and reports reachability through :meth:`status` — a
follower whose primary just died must stay *healthy* (it is the failover
target), merely lagged.

Fault point: ``replica.apply`` fires before each entry is applied.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union
from urllib.parse import quote, urlsplit

from repro import faults, obs
from repro.catalog.catalog import MappingCatalog
from repro.catalog.journal import DEFAULT_POLL_LIMIT, CatalogJournal, Poll
from repro.catalog.leases import default_owner_id
from repro.exceptions import CatalogError, JournalError, ReplicationError
from repro.service.wire import TRANSPORT_ERRORS, PooledClient

__all__ = [
    "JournalSource",
    "LocalJournalSource",
    "HTTPJournalSource",
    "ReplicationFollower",
    "open_source",
]

#: How long the tailing thread sleeps between polls by default.
DEFAULT_POLL_INTERVAL_SECONDS = 0.2


class JournalSource:
    """Where a follower reads a primary's journal entries from."""

    #: Human-readable origin (a path or URL), for status reporting.
    origin: str = ""

    def poll(self, cursors: Sequence[int], limit: int) -> Poll:
        """Every shard's last seq and up to ``limit`` entries past ``cursors``.

        ``cursors[shard]`` is the follower's applied seq of ``shard``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release what the source holds open (nothing by default)."""


class LocalJournalSource(JournalSource):
    """Tail the journal of a catalog root on the local (or shared) filesystem.

    Strictly read-only: the primary may be alive and appending, so this
    source never heals torn tails — it stops at them and sees the completed
    entry on the next poll.
    """

    def __init__(self, root: Union[str, Path], num_shards: int = 16):
        self.root = Path(root)
        self.origin = str(self.root)
        self._journal = CatalogJournal(self.root / "journal", num_shards=num_shards)
        self.num_shards = num_shards

    def poll(self, cursors: Sequence[int], limit: int) -> Poll:
        return self._journal.poll(cursors, limit)


class HTTPJournalSource(JournalSource):
    """Tail a running primary over its ``GET /journal`` endpoint.

    Each poll's cursors name this follower (``&follower=<id>``), which is
    how the primary's ``ack_level="replica"`` mode learns that an entry is
    durably mirrored — no extra ack round-trip, the replication pull *is*
    the ack.
    """

    def __init__(
        self,
        base_url: str,
        num_shards: int = 16,
        timeout_seconds: float = 5.0,
        follower_id: Optional[str] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.origin = self.base_url
        self.num_shards = num_shards
        self.timeout_seconds = timeout_seconds
        self.follower_id = follower_id or default_owner_id()
        self._client = PooledClient()

    def poll(self, cursors: Sequence[int], limit: int) -> Poll:
        url = (
            f"{self.base_url}/journal?since={','.join(str(c) for c in cursors)}"
            f"&limit={limit}&follower={quote(self.follower_id)}"
        )
        status, _, body = self._client.request("GET", url, timeout=self.timeout_seconds)
        if status != 200:
            raise ReplicationError(f"journal endpoint {url} answered {status}")
        try:
            return _parse_poll(body, len(cursors))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ReplicationError(
                f"journal endpoint {url} answered a malformed payload: {exc}"
            ) from exc

    def close(self) -> None:
        self._client.close()


def _parse_poll(body: bytes, num_shards: int) -> Poll:
    """A journal endpoint's answer; raises ``ValueError`` (or a lookup
    error) when it is not the expected JSON shape."""
    payload = json.loads(body)
    last_seqs = [int(seq) for seq in payload["last_seqs"]]
    entries = {int(shard): list(page) for shard, page in payload["entries"].items()}
    if len(last_seqs) != num_shards or not all(
        0 <= shard < num_shards
        and all(isinstance(entry, dict) and isinstance(entry.get("seq"), int) for entry in page)
        for shard, page in entries.items()
    ):
        raise ValueError("not one last seq per shard and a list of entries per shard")
    return last_seqs, entries


def open_source(target: Union[str, Path]) -> JournalSource:
    """A :class:`JournalSource` for a primary's root directory or base URL."""
    text = str(target)
    scheme = urlsplit(text).scheme
    if scheme in ("http", "https"):
        return HTTPJournalSource(text)
    if scheme and scheme not in ("file", ""):
        raise ReplicationError(
            f"cannot follow {text!r}: expected a catalog root path or an http(s) URL"
        )
    if scheme == "file":
        text = urlsplit(text).path
    path = Path(text)
    if not path.exists():
        raise ReplicationError(
            f"cannot follow {text!r}: the catalog root does not exist"
        )
    return LocalJournalSource(path)


class ReplicationFollower:
    """Continuously mirror a primary's journal into one local catalog.

    The follower applies entries shard by shard, oldest first, and verifies
    every applied ``put``'s content fingerprint (a mismatch is a
    :class:`~repro.exceptions.ReplicationError`, counted in
    ``verify_failures``); counters and per-shard lag are surfaced through
    :meth:`status` (wired into the serving process's ``/metrics`` and
    ``/healthz``).
    """

    def __init__(
        self,
        catalog: MappingCatalog,
        source: JournalSource,
        poll_interval_seconds: float = DEFAULT_POLL_INTERVAL_SECONDS,
        batch_limit: int = DEFAULT_POLL_LIMIT,
    ):
        if not poll_interval_seconds > 0:  # NaN fails too
            raise ReplicationError("poll_interval_seconds must be positive")
        if batch_limit < 1:
            raise ReplicationError("batch_limit must be positive")
        self.catalog = catalog
        self.source = source
        self.poll_interval_seconds = poll_interval_seconds
        self.batch_limit = batch_limit
        self.num_shards = getattr(source, "num_shards", 16)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._promoted = False
        # The restart-safe replay cursor: this catalog's own journal already
        # holds every entry applied before (re-journaled with preserved seq).
        self._applied: Dict[int, int] = {
            shard: catalog.journal.last_seq(shard) for shard in range(self.num_shards)
        }
        self.entries_applied = 0
        self.entries_skipped = 0
        self.apply_failures = 0
        self.verify_failures = 0
        self.polls = 0
        self.poll_failures = 0
        self._source_reachable: Optional[bool] = None
        # Every shard's last seq on the source, as of the last successful
        # poll (None before one and after a failed one): lag is worked out
        # from it, so status() never calls the source.
        self._source_last_seqs: Optional[List[int]] = None
        self._last_caught_up_monotonic: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "ReplicationFollower":
        """Start the tailing thread (idempotent); returns ``self``."""
        with self._lock:
            if self._promoted:
                raise ReplicationError("this follower was promoted; it no longer tails")
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._tail_loop, name="repro-replica", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
        with self._lock:
            self._thread = None
        self.source.close()

    def __enter__(self) -> "ReplicationFollower":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def promoted(self) -> bool:
        return self._promoted

    def _tail_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.catch_up()
            except Exception:  # noqa: BLE001 - a bad poll must not kill the tail
                self.poll_failures += 1
                self._source_reachable = False
            # Full jitter: uniform in (0, interval], so a fleet of followers
            # restarted together spreads out instead of thundering-herding
            # the primary's /journal endpoint on every beat.
            self._stop.wait(self.poll_interval_seconds * (1.0 - random.random()))

    # -- catching up ---------------------------------------------------------------

    def catch_up(self) -> int:
        """Poll the source until caught up; returns entries applied.

        Each poll's entries (at most ``batch_limit``) are applied shard by
        shard, in seq order; the source is polled again only while an
        answer was full.  Raises nothing on per-entry verification failures
        (counted instead); source-level I/O errors propagate to the caller —
        the tail loop counts them, a promotion treats them as "the primary
        is gone".
        """
        applied = 0
        self.polls += 1
        while True:
            cursors = [self._applied.get(shard, 0) for shard in range(self.num_shards)]
            try:
                last_seqs, entries = self.source.poll(cursors, self.batch_limit)
            except (*TRANSPORT_ERRORS, JournalError, ReplicationError) as exc:
                self._source_reachable = False
                self._source_last_seqs = None
                raise ReplicationError(
                    f"cannot poll the journal of {self.source.origin}: {exc}"
                ) from exc
            self._source_reachable = True
            self._source_last_seqs = last_seqs
            for shard in sorted(entries):
                for entry in entries[shard]:
                    applied += self._apply(shard, entry)
            if sum(len(page) for page in entries.values()) < self.batch_limit:
                break
        self._last_caught_up_monotonic = time.monotonic()
        return applied

    def _apply(self, shard: int, entry: dict) -> int:
        seq = int(entry.get("seq", 0))
        faults.fire("replica.apply", shard=shard, seq=seq, op=entry.get("op"))
        started_wall = time.time()
        started = time.perf_counter()
        status = "ok"
        try:
            outcome = self.catalog.apply_journal_entry(entry)
        except (CatalogError, OSError) as exc:
            self.apply_failures += 1
            status = "error"
            self._record_apply_span(entry, shard, seq, started_wall, started, status)
            raise ReplicationError(
                f"cannot apply journal entry seq {seq} (shard {shard}): {exc}"
            ) from exc
        self._record_apply_span(entry, shard, seq, started_wall, started, status)
        # Whatever the outcome, the entry is now in our journal: advance.
        self._applied[shard] = max(self._applied.get(shard, 0), seq)
        if outcome == "skipped":
            self.entries_skipped += 1
            return 0
        self.entries_applied += 1
        if entry.get("op") == "put":
            record = entry.get("record", {})
            if not self.catalog.verify(
                entry["kind"], entry["name"], record.get("version")
            ):
                self.verify_failures += 1
                raise ReplicationError(
                    f"applied {entry['kind']}/{entry['name']} "
                    f"v{record.get('version')} failed fingerprint verification"
                )
        return 1

    @staticmethod
    def _record_apply_span(
        entry: dict,
        shard: int,
        seq: int,
        started_wall: float,
        started: float,
        status: str,
    ) -> None:
        """Join the originating write's trace, if the entry carries one.

        The primary stamped ``entry["trace"]`` at journal-append time; the
        mirrored entry arrives verbatim, so this span is the cross-process
        hop that completes the write's tree — recorded retroactively because
        the apply runs far from the traced request's thread.
        """
        stamp = entry.get("trace")
        if not isinstance(stamp, dict) or not stamp.get("trace_id"):
            return
        parent = obs.SpanContext(
            trace_id=str(stamp["trace_id"]), span_id=str(stamp.get("span_id") or "")
        )
        obs.record_span(
            "replica.apply",
            parent=parent,
            started_at=started_wall,
            duration=time.perf_counter() - started,
            status=status,
            shard=shard,
            seq=seq,
        )

    # -- promotion -----------------------------------------------------------------

    def promote(self) -> dict:
        """Stop following and become the primary; returns a promotion report.

        Runs one last best-effort catch-up pass (a dead source — the normal
        failover trigger — is tolerated), then stops the tail.  The catalog's
        journal already continues the primary's sequence space, so writes
        after promotion journal seamlessly and the next follower can tail
        this root.
        """
        final_error: Optional[str] = None
        try:
            self.catch_up()
        except ReplicationError as exc:
            final_error = str(exc)
        self.stop()
        with self._lock:
            self._promoted = True
        return {
            "promoted": True,
            "final_catch_up_error": final_error,
            "applied_seqs": {
                str(shard): seq for shard, seq in sorted(self._applied.items()) if seq
            },
            "entries_applied": self.entries_applied,
        }

    # -- introspection -------------------------------------------------------------

    def lag(self) -> Optional[int]:
        """Entries the source held at the last poll that are not applied yet.

        ``None`` before the first successful poll and after a failed one.
        Worked out from the last poll's answer, so it costs no call to the
        source and is at most one poll old.
        """
        last_seqs = self._source_last_seqs
        if last_seqs is None:
            return None
        return sum(
            max(0, last - self._applied.get(shard, 0))
            for shard, last in enumerate(last_seqs)
        )

    def status(self) -> dict:
        """A JSON-serializable snapshot of the follower's replication state."""
        age: Optional[float] = None
        if self._last_caught_up_monotonic is not None:
            age = time.monotonic() - self._last_caught_up_monotonic
        return {
            "role": "primary" if self._promoted else "follower",
            "source": self.source.origin,
            "source_reachable": self._source_reachable,
            "running": self.is_running,
            "promoted": self._promoted,
            "lag_entries": self.lag(),
            "last_catch_up_age_seconds": age,
            "entries_applied": self.entries_applied,
            "entries_skipped": self.entries_skipped,
            "apply_failures": self.apply_failures,
            "verify_failures": self.verify_failures,
            "polls": self.polls,
            "poll_failures": self.poll_failures,
            "applied_seqs": {
                str(shard): seq for shard, seq in sorted(self._applied.items()) if seq
            },
        }

    def __repr__(self) -> str:
        state = "promoted" if self._promoted else ("running" if self.is_running else "stopped")
        return f"<ReplicationFollower of {self.source.origin!r} ({state})>"
