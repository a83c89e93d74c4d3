"""The composition service: a concurrent front-end over the engine.

The ROADMAP's north star is a *system*, not a library: many clients submit
composition work concurrently, and the engine's accelerators — the shared
expression cache, hop checkpoints, the cost-guided planner — should work for
all of them at once.  :class:`CompositionService` is that front-end:

* **request queue with admission control** — submissions return a
  :class:`Ticket` immediately; when the queue is at ``max_pending`` work
  items, new requests are rejected with
  :class:`~repro.exceptions.ServiceOverloadedError`
  (``admission="reject"``, the default) or *block until space frees*
  (``admission="block"``), optionally bounded by the service-wide
  ``deadline_seconds`` after which
  :class:`~repro.exceptions.ServiceDeadlineError` is raised — bursty
  clients wait instead of erroring, with bounded patience;
* **deduplication** — every request is keyed by the content fingerprint of
  its inputs plus its effective :class:`ComposerConfig`; a request whose key
  matches one that is queued *or currently executing* coalesces onto that
  computation and receives the same payload (sound because composition is
  deterministic in exactly those inputs);
* **execution on the waiting thread** — there is no serving thread: a
  queued request runs on the thread that waits for its ticket (under
  ``repro serve``, the HTTP handler), as one
  :class:`~repro.engine.batch.BatchComposer` call (``run`` / ``run_chains``)
  with one item.  One execution turn keeps compositions serial and in
  submission order: a waiter first runs any older queued request, and a
  waiter whose request another thread is running waits for that run;
* **per-request configuration** — a submission may carry its own
  ``ComposerConfig``; configs are part of the dedup key, so requests only
  share work when their results would be identical;
* **durability** — given a :class:`~repro.catalog.MappingCatalog`, chain
  requests record hop checkpoints in the catalog's *persistent* store (every
  recorded hop is written through), so a restarted service answers warm;
* **tunable write acknowledgements** — ``ServiceConfig(ack_level)`` picks
  what a write ack promises: ``"journal"`` (fsynced into the local WAL) or
  ``"replica"`` (additionally confirmed applied by at least one follower,
  learned from the applied-seq followers piggyback on their journal polls,
  with a bounded wait degrading to an explicit pending ack);
* **bounded disk growth** — with a catalog attached and
  ``gc_interval_seconds`` set, a background sweep runs
  :meth:`~repro.catalog.MappingCatalog.gc` with the configured
  :class:`~repro.catalog.GcPolicy` periodically (checkpoint age/LRU
  eviction, old result versions), so a long-lived service does not grow its
  catalog without bound; and
* **metrics** — :meth:`CompositionService.metrics` surfaces queue depths,
  dedup/rejection counters, execution counts, cache/checkpoint hit rates and
  the summed per-phase timings of everything served
  (:mod:`repro.service.metrics`).

Results are byte-identical to calling :func:`repro.compose.compose` /
:func:`repro.engine.compose_chain` directly — the service only adds
scheduling, never semantics (``tests/service/test_service.py`` asserts this
under concurrent overlapping load).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.algebra.digest import DIGEST_SIZE
from repro.catalog.catalog import GcPolicy, MappingCatalog
from repro.catalog.checkpoints import PersistentCheckpointStore
from repro.catalog.leases import Lease, LeaseTable
from repro.catalog.storage import atomic_write_bytes, atomic_write_text
from repro.compose.config import ComposerConfig
from repro.engine.batch import BatchComposer, BatchConfig, BatchItemResult, ProblemStatus
from repro.engine.checkpoint import CheckpointStore
from repro.engine.fingerprint import chain_fingerprint
from repro.exceptions import (
    CatalogError,
    EngineError,
    LeaseUnavailableError,
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
    StaleEpochError,
)
from repro import obs
from repro.compose import phases
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.service.breaker import CircuitBreaker
from repro.service.metrics import ServiceMetrics

# Span names whose durations the service mirrors into its labeled latency
# histograms.  The catalog and election layers record the spans without
# knowing about ServiceMetrics; the recorder listener registered in
# ``CompositionService.start()`` is the only coupling point.
_SPAN_HISTOGRAMS = {
    "journal.append": "journal_fsync_seconds",
    "catalog.shard_lock": "shard_lock_seconds",
    "election.transition": "election_seconds",
}

__all__ = ["ServiceConfig", "Ticket", "CompositionService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable parameters of a :class:`CompositionService`.

    Attributes
    ----------
    max_pending:
        Admission bound: maximum number of *distinct* work items queued (not
        yet executing).  Coalesced duplicates ride along for free.
    admission:
        What happens to a submission past the bound: ``"reject"`` (the
        default) raises :class:`ServiceOverloadedError` immediately;
        ``"block"`` waits for the queue to drain below ``max_pending``,
        running the oldest queued request itself whenever no other thread
        is running one.
    deadline_seconds:
        With ``admission="block"``, how long a submission may wait for queue
        space before :class:`~repro.exceptions.ServiceDeadlineError` is
        raised; ``None`` waits indefinitely.
    timeout_seconds:
        Soft per-request budget, forwarded to the underlying
        :class:`~repro.engine.batch.BatchConfig`: a composition that runs
        longer is reported as timed out, never interrupted.
    composer_config:
        The default :class:`ComposerConfig` for requests that do not carry
        their own override.
    gc_interval_seconds:
        With a catalog attached, run :meth:`~repro.catalog.MappingCatalog.gc`
        in a background sweep every this many seconds (``None``, the default,
        disables the sweep).
    gc_policy:
        What every sweep (and :meth:`CompositionService.run_gc`) removes: one
        :class:`~repro.catalog.GcPolicy`, validated when it is built.  The
        default bounds nothing and sets a 5-second ``grace_seconds`` age
        floor, which makes the cross-process "sweep races a peer's fresh
        write" window impossible at serving time; a policy with
        ``grace_seconds=0.0`` evicts unconditionally (tests, offline
        compaction).
    breaker_failure_threshold / breaker_recovery_seconds:
        Circuit-breaker policy over catalog disk writes: after this many
        *consecutive* write failures the service stops touching the disk and
        serves memory-only (``/healthz`` reports ``degraded``); a background
        probe re-checks storage every ``breaker_recovery_seconds`` and closes
        the breaker on success.
    lease_ttl_seconds:
        When set (and a catalog is attached), the service claims each
        request key in a cross-process
        :class:`~repro.catalog.leases.LeaseTable` under
        ``<catalog root>/leases`` before executing it, so two service
        processes fed the same request do the work once while the claim is
        live.  A lease outlives crashes by at most ``lease_ttl_seconds`` —
        dead owners stop renewing and peers take over.  A submission waits
        ``4 * lease_ttl_seconds`` for a peer's live claim before doing the
        work itself anyway (the result is deterministic, so a duplicated
        composition is wasted CPU, never a wrong answer).  ``None`` (default)
        disables cross-process claims.
    ack_level:
        Durability level of write acknowledgements: ``"journal"`` (the
        default) acks once the entry is fsynced into the local WAL;
        ``"replica"`` additionally holds the ack until at least one follower
        reports the entry's seq applied (followers piggyback their applied
        seq on journal poll requests).  A write whose replica ack does not
        arrive within ``replica_ack_timeout_seconds`` is *degraded*, not
        failed: the HTTP layer answers ``202`` with ``x-repro-ack-pending``.
    replica_ack_timeout_seconds:
        How long an ``ack_level="replica"`` write waits for a follower to
        confirm before falling back to the degraded journal-only ack.
    slow_trace_seconds:
        When set, any HTTP request whose wall-clock crosses this threshold
        has its full span tree dumped to stderr (and counted in
        ``tracing.slow_requests``) — the always-on flight recorder for tail
        latency.  ``None`` (default) disables the hook.
    """

    max_pending: int = 1024
    admission: str = "reject"
    deadline_seconds: Optional[float] = None
    timeout_seconds: Optional[float] = None
    composer_config: ComposerConfig = field(default_factory=ComposerConfig)
    gc_interval_seconds: Optional[float] = None
    gc_policy: GcPolicy = GcPolicy(grace_seconds=5.0)
    breaker_failure_threshold: int = 3
    breaker_recovery_seconds: float = 1.0
    lease_ttl_seconds: Optional[float] = None
    ack_level: str = "journal"
    replica_ack_timeout_seconds: float = 2.0
    slow_trace_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # Counts must be ints: NaN passes a `< 1` check (a NaN queue bound
        # refuses every submission, a NaN threshold never opens the breaker).
        for name in ("max_pending", "breaker_failure_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise EngineError(f"{name} must be an integer, not {value!r}")
        if self.max_pending < 1:
            raise EngineError("max_pending must be positive")
        if self.admission not in ("reject", "block"):
            raise EngineError(
                f"admission must be 'reject' or 'block', not {self.admission!r}"
            )
        # Every interval is checked so that NaN fails too: a NaN wait returns
        # at once, and the loop or admission wait around it would spin.
        for name in (
            "deadline_seconds",
            "timeout_seconds",
            "gc_interval_seconds",
            "lease_ttl_seconds",
            "replica_ack_timeout_seconds",
        ):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise EngineError(f"{name} must be positive, not {value!r}")
        for name in ("breaker_recovery_seconds", "slow_trace_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise EngineError(f"{name} must be non-negative, not {value!r}")
        if self.breaker_failure_threshold < 1:
            raise EngineError("breaker_failure_threshold must be positive")
        if self.ack_level not in ("journal", "replica"):
            raise EngineError(
                f"ack_level must be 'journal' or 'replica', not {self.ack_level!r}"
            )


class Ticket:
    """A claim on one submitted request (a minimal, thread-safe future).

    ``coalesced`` is ``True`` when this submission deduplicated onto an
    already in-flight identical request.  :meth:`result` runs the request
    on the calling thread — after any older queued request — or waits for
    the thread already running it, then returns the payload
    (:class:`~repro.compose.result.CompositionResult` or
    :class:`~repro.engine.chain.ChainResult`) or raises
    :class:`~repro.exceptions.ServiceError`.
    """

    def __init__(self, service: "CompositionService", coalesced: bool = False):
        self._service = service
        self._done = False
        self._payload: object = None
        self._error: Optional[ServiceError] = None
        self.coalesced = coalesced

    def done(self) -> bool:
        """``True`` once a payload or an error has been delivered."""
        return self._done

    def result(self, timeout: Optional[float] = None) -> object:
        """Run or wait for the request (raises ``ServiceError`` on failure/timeout).

        ``timeout`` bounds only the time spent waiting for other threads'
        runs; a composition this thread runs itself is never interrupted.
        """
        if not self._service._work_until(self.done, timeout):
            raise ServiceError(f"no result within {timeout} seconds")
        if self._error is not None:
            raise self._error
        return self._payload

    def _deliver(self, payload: object) -> None:
        self._payload = payload
        self._done = True

    def _fail(self, error: ServiceError) -> None:
        self._error = error
        self._done = True


class _WorkItem:
    """One distinct queued computation and every ticket coalesced onto it."""

    __slots__ = ("key", "kind", "payload", "config", "tickets", "enqueued_at", "enqueued_wall", "trace")

    def __init__(self, key: bytes, kind: str, payload: object, config: ComposerConfig):
        self.key = key
        self.kind = kind
        self.payload = payload
        self.config = config
        self.tickets: List[Ticket] = []
        self.enqueued_at = time.perf_counter()
        # The submitting thread's span context (if the request rode in under
        # a trace): whichever thread runs the item records its spans under
        # this context, never under its own.
        self.enqueued_wall = time.time()
        self.trace = obs.current()


class CompositionService:
    """A concurrent composition server over one (optional) catalog.

    Parameters
    ----------
    catalog:
        When given, chain requests use the catalog's persistent checkpoint
        store (hop reuse survives restarts) and :meth:`compose_catalog` can
        serve stored problems and chains by name.  Without a catalog the
        service keeps a process-local in-memory checkpoint store.
    config:
        Service tuning; see :class:`ServiceConfig`.
    """

    def __init__(
        self,
        catalog: Optional[MappingCatalog] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.catalog = catalog
        self.config = config or ServiceConfig()
        self.metrics_store = ServiceMetrics()
        self.checkpoints: CheckpointStore = (
            catalog.checkpoints if catalog is not None else CheckpointStore()
        )
        self._lock = threading.Lock()
        # Notified whenever an item starts (a queue slot frees), an item's
        # tickets are delivered (the execution turn frees), or the service
        # starts or stops.  Waiters and blocked submitters both wait on it.
        self._progress = threading.Condition(self._lock)
        self._queue: Deque[_WorkItem] = deque()
        self._in_flight: Dict[bytes, _WorkItem] = {}
        self._composers: Dict[bytes, BatchComposer] = {}
        # "new" until start(), then "running" until stop() makes it "stopped".
        self._state = "new"
        # The execution turn: True while some thread is running an item.
        self._executing = False
        self._gc_thread: Optional[threading.Thread] = None
        self._gc_stop = threading.Event()
        self._last_gc_monotonic: Optional[float] = None
        self._started_monotonic: Optional[float] = None
        self._gc_consecutive_failures = 0
        # Graceful degradation: the breaker gates every catalog disk write;
        # while open the service serves memory-only and /healthz says so.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_seconds=self.config.breaker_recovery_seconds,
        )
        if isinstance(self.checkpoints, PersistentCheckpointStore):
            self.checkpoints.set_degradation_hooks(
                gate=self.breaker.allow,
                on_failure=self.breaker.record_failure,
                on_success=self.breaker.record_success,
            )
        self._probe_thread: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()
        # Cross-process claims (optional): one lease per request key.
        self.leases: Optional[LeaseTable] = None
        if catalog is not None and self.config.lease_ttl_seconds is not None:
            self.leases = LeaseTable(
                catalog.root / "leases", ttl_seconds=self.config.lease_ttl_seconds
            )
        # Replica acknowledgements: follower-id -> {"applied": {shard: seq}}.
        # Fed by followers piggybacking applied-seq on journal polls; waited
        # on by ack_level="replica" writes, persisted (throttled) next to the
        # journal so GC keeps unmirrored segments.
        self._ack_cond = threading.Condition()
        self._replica_acks: Dict[str, dict] = {}
        self._acks_persisted_monotonic: Optional[float] = None

    # -- telemetry bridge ----------------------------------------------------------

    def _span_listener(self, record: dict) -> None:
        """Mirror catalog/election span durations into labeled histograms.

        Those layers record spans without importing ServiceMetrics; this
        listener (registered on the process recorder while the service
        runs) is the only coupling point.
        """
        histogram = _SPAN_HISTOGRAMS.get(record.get("name"))
        duration = record.get("duration")
        if histogram is not None and duration is not None:
            self.metrics_store.observe(histogram, duration)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "CompositionService":
        """Start the service (idempotent); returns ``self``.

        No serving thread is created.  Whatever was submitted before the
        call runs here, on the calling thread; later submissions run on the
        threads that wait for them.
        """
        with self._lock:
            if self._state == "running":
                return self
            self._state = "running"
            self._started_monotonic = time.monotonic()
            if (
                self.catalog is not None
                and self.config.gc_interval_seconds is not None
                and (self._gc_thread is None or not self._gc_thread.is_alive())
            ):
                self._gc_stop.clear()
                self._gc_thread = threading.Thread(
                    target=self._gc_loop, name="repro-service-gc", daemon=True
                )
                self._gc_thread.start()
            if self.catalog is not None and (
                self._probe_thread is None or not self._probe_thread.is_alive()
            ):
                self._probe_stop.clear()
                self._probe_thread = threading.Thread(
                    target=self._probe_loop, name="repro-service-probe", daemon=True
                )
                self._probe_thread.start()
            last = self._queue[-1].tickets[0] if self._queue else None
            self._progress.notify_all()
        if self.leases is not None:
            self.leases.start_heartbeat()
        obs.recorder().add_listener(self._span_listener)
        if last is not None:
            self._work_until(last.done)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain`` (the default) everything already queued runs before
        the call returns — on the calling thread, unless a waiter gets to it
        first; otherwise queued requests fail with :class:`ServiceError`.
        Either way the call waits for the composition in progress.  Submissions blocked in admission are woken
        and fail with :class:`ServiceError` (the service is stopping, space
        will never free for them).
        """
        obs.recorder().remove_listener(self._span_listener)
        self._gc_stop.set()
        self._probe_stop.set()
        with self._lock:
            if not drain:
                while self._queue:
                    item = self._queue.popleft()
                    self._in_flight.pop(item.key, None)
                    for ticket in item.tickets:
                        ticket._fail(ServiceError("service stopped before serving"))
            self._state = "stopped"
            self._progress.notify_all()
            gc_thread = self._gc_thread
            probe_thread = self._probe_thread
        self._work_until(lambda: not self._queue and not self._executing)
        if gc_thread is not None:
            gc_thread.join()
        if probe_thread is not None:
            probe_thread.join()
        if self.leases is not None:
            self.leases.stop_heartbeat()
            self.leases.release_all()
        with self._lock:
            self._gc_thread = None
            self._probe_thread = None

    def __enter__(self) -> "CompositionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        return self._state == "running"

    # -- submission ----------------------------------------------------------------

    def submit_problem(
        self, problem: CompositionProblem, config: Optional[ComposerConfig] = None
    ) -> Ticket:
        """Queue one composition problem; returns with a ticket once admitted.

        ``config=ComposerConfig.cost_guided()`` serves the problem through
        the cost-guided planner.

        Submissions are accepted before :meth:`start` (they queue, and
        :meth:`start` runs them) but refused after :meth:`stop`.
        """
        effective = config or self.config.composer_config
        key = self._request_key("problem", problem.fingerprint(), effective)
        return self._enqueue(key, "problem", problem, effective)

    def submit_chain(
        self, mappings: Sequence[Mapping], config: Optional[ComposerConfig] = None
    ) -> Ticket:
        """Queue one chained composition; returns with a ticket once admitted."""
        chain = tuple(mappings)
        if not chain:
            raise ServiceError("cannot submit an empty chain")
        effective = config or self.config.composer_config
        key = self._request_key("chain", chain_fingerprint(chain), effective)
        return self._enqueue(key, "chain", chain, effective)

    def compose(
        self,
        problem: CompositionProblem,
        config: Optional[ComposerConfig] = None,
        timeout: Optional[float] = None,
    ):
        """Submit one problem and block for its result."""
        return self.submit_problem(problem, config).result(timeout)

    def compose_chain(
        self,
        mappings: Sequence[Mapping],
        config: Optional[ComposerConfig] = None,
        timeout: Optional[float] = None,
    ):
        """Submit one chain and block for its result."""
        return self.submit_chain(mappings, config).result(timeout)

    def compose_catalog(self, kind: str, name: str):
        """Serve the latest stored catalog ``problem`` or ``chain`` by name."""
        if self.catalog is None:
            raise ServiceError("this service has no catalog attached")
        if kind == "problem":
            return self.compose(self.catalog.get_problem(name))
        if kind == "chain":
            return self.compose_chain(self.catalog.get_chain(name))
        raise ServiceError(f"cannot compose catalog kind {kind!r} (expected problem or chain)")

    def _request_key(self, kind: str, content: bytes, config: ComposerConfig) -> bytes:
        h = blake2b(digest_size=DIGEST_SIZE)
        h.update(kind.encode())
        h.update(content)
        h.update(config.fingerprint())
        return h.digest()

    def _enqueue(
        self, key: bytes, kind: str, payload: object, config: ComposerConfig
    ) -> Ticket:
        budget = self.config.deadline_seconds
        deadline = time.monotonic() + budget if budget is not None else None
        blocked = False
        while True:
            with self._lock:
                # A waiter whose deadline has expired gets ServiceDeadlineError
                # *whatever* woke it — space freeing, a shutdown broadcast, a
                # spurious wakeup.  Checking the deadline before the stop flag
                # makes the deadline-expiry-races-stop() outcome deterministic:
                # once the budget is spent, the answer is "deadline", never
                # sometimes-"stopped".
                remaining = None if deadline is None else deadline - time.monotonic()
                if blocked and remaining is not None and remaining <= 0:
                    self.metrics_store.record_deadline_expired()
                    raise ServiceDeadlineError(
                        f"queue stayed at capacity ({self.config.max_pending} pending) "
                        f"for the whole {budget}-second admission deadline"
                    )
                # Before the first start() submissions simply accumulate in
                # the queue; only a *stopped* service refuses work.
                if self._state == "stopped":
                    raise ServiceError("the service is stopped; call start() first")
                existing = self._in_flight.get(key)
                if existing is not None:
                    # Identical in-flight request (queued or executing): coalesce.
                    ticket = Ticket(self, coalesced=True)
                    existing.tickets.append(ticket)
                    self.metrics_store.record_submitted(coalesced=True)
                    return ticket
                if len(self._queue) < self.config.max_pending:
                    item = _WorkItem(key, kind, payload, config)
                    ticket = Ticket(self)
                    item.tickets.append(ticket)
                    self._in_flight[key] = item
                    self._queue.append(item)
                    self.metrics_store.record_submitted()
                    return ticket
                if self.config.admission == "reject":
                    self.metrics_store.record_rejected()
                    raise ServiceOverloadedError(
                        f"request queue is at capacity ({self.config.max_pending} pending)"
                    )
                if remaining is not None and remaining <= 0:
                    self.metrics_store.record_deadline_expired()
                    raise ServiceDeadlineError(
                        f"queue stayed at capacity ({self.config.max_pending} pending) "
                        f"for the whole {budget}-second admission deadline"
                    )
                if not blocked:
                    blocked = True
                    self.metrics_store.record_blocked()
                # Free a slot by running the oldest item here when no other
                # thread is running one; otherwise wait for a slot.  A
                # submitter that queues past the bound before waiting on any
                # ticket thus never waits on itself.
                oldest = self._take_turn()
                if oldest is None:
                    self._progress.wait(remaining)
                    continue
            self._run_turn(oldest)

    # -- execution -----------------------------------------------------------------

    def _work_until(self, done: Callable[[], bool], timeout: Optional[float] = None) -> bool:
        """Run queued items on this thread, oldest first, until ``done()``.

        While another thread holds the execution turn, wait for it.
        ``timeout`` bounds only that waiting, with one deadline for the
        whole call; ``False`` means it ran out before ``done()``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if done():
                    return True
                item = self._take_turn()
                if item is None:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        return False
                    self._progress.wait(remaining)
                    continue
            self._run_turn(item)

    def _take_turn(self) -> Optional[_WorkItem]:
        """Claim the execution turn and pop the oldest item (lock held).

        ``None`` when nothing is queued, another thread holds the turn, or
        the service was never started.
        """
        if self._executing or not self._queue or self._state == "new":
            return None
        self._executing = True
        item = self._queue.popleft()
        self._progress.notify_all()  # a slot freed: wake blocked submitters
        return item

    def _run_turn(self, item: _WorkItem) -> None:
        """Run a popped item, deliver its tickets, and hand the turn back."""
        payload: object = None
        error: Optional[ServiceError] = ServiceError("composition did not complete")
        try:
            payload, error = self._execute(item)
        finally:
            # Leave the in-flight table as the tickets are delivered: after
            # that, an identical new request must start a fresh computation
            # rather than coalesce onto this finished one.
            with self._lock:
                self._in_flight.pop(item.key, None)
                for ticket in item.tickets:
                    if error is None:
                        ticket._deliver(payload)
                    else:
                        ticket._fail(error)
                self._executing = False
                self._progress.notify_all()

    def _composer_for(self, config: ComposerConfig) -> BatchComposer:
        """One cached :class:`BatchComposer` per composer-config fingerprint.

        Caching keeps the composer's state — above all the shared checkpoint
        store — warm across requests.  Only the thread holding the execution
        turn calls this.
        """
        fingerprint = config.fingerprint()
        composer = self._composers.get(fingerprint)
        if composer is None:
            composer = BatchComposer(
                BatchConfig(timeout_seconds=self.config.timeout_seconds, composer_config=config),
                checkpoints=self.checkpoints,
            )
            self._composers[fingerprint] = composer
        return composer

    def _execute(self, item: _WorkItem) -> Tuple[object, Optional[ServiceError]]:
        """Compose one item under its submitter's trace; returns (payload, error).

        Spans and metrics are recorded here, before any ticket is delivered,
        so a ``/metrics`` or ``/trace`` read issued right after the response
        sees them.
        """
        with obs.ambient(item.trace):
            lease = self._claim_lease(item)
            try:
                queue_seconds = time.perf_counter() - item.enqueued_at
                if item.trace is not None:
                    obs.record_span(
                        "service.queue",
                        parent=item.trace,
                        started_at=item.enqueued_wall,
                        duration=queue_seconds,
                        kind=item.kind,
                    )
                with obs.span("service.execute", kind=item.kind) as execute:
                    started_wall = time.time()
                    payload, status, error, execution_seconds = self._compose(item)
                    execute.set("status_value", status)
                    phase_seconds = _phase_seconds(payload)
                    if execute.context is not None:
                        # Phases are timed in buckets, not live spans: each
                        # bucket becomes one child of the execution span.
                        for phase, seconds in phase_seconds:
                            obs.record_span(
                                phases.span_name(phase),
                                parent=execute.context,
                                started_at=started_wall,
                                duration=seconds,
                            )
            finally:
                self._release_lease(lease)
        self.metrics_store.record_completed(
            status=status,
            queue_seconds=queue_seconds,
            execution_seconds=execution_seconds,
            phase_seconds=phase_seconds,
        )
        return payload, error

    def _compose(self, item: _WorkItem) -> Tuple[object, str, Optional[ServiceError], float]:
        """One :class:`BatchComposer` call with one item.

        Returns (payload, status, error, execution seconds); the payload is
        ``None`` unless the composition succeeded.
        """
        composer = self._composer_for(item.config)
        run = composer.run_chains if item.kind == "chain" else composer.run
        started = time.perf_counter()
        try:
            report = run([item.payload])
        except Exception as exc:  # noqa: BLE001 - a broken run fails its tickets, not its caller
            # Record the exception type so /metrics distinguishes a sick
            # disk from a code bug, and surface it in each ticket's error.
            self.metrics_store.record_batch_failure(type(exc).__name__, 1)
            error = ServiceError(f"batch execution failed with {type(exc).__name__}: {exc!r}")
            return None, ProblemStatus.FAILED.value, error, time.perf_counter() - started
        self.metrics_store.record_batch(size=1)
        (outcome,) = report.items
        error = None if outcome.status is ProblemStatus.SUCCEEDED else _item_error(outcome)
        return outcome.result, outcome.status.value, error, outcome.elapsed_seconds

    # -- cross-process claims --------------------------------------------------------

    def _claim_lease(self, item: _WorkItem) -> Optional[Lease]:
        """Claim the item's request key before executing it.

        While a claim is live, a peer service process serving the identical
        request waits instead of recomputing — cross-process deduplication
        with crash tolerance (a dead claimant's leases expire and are taken
        over).  Claim failures *degrade*, never block: an unclaimable key
        (live peer past the wait bound, lease-table I/O error) is executed
        unclaimed — composition is deterministic, so the worst case is
        duplicated CPU, and refusing to serve would turn a dedup optimization
        into an availability bug.
        """
        if self.leases is None:
            return None
        wait = 4.0 * self.config.lease_ttl_seconds
        try:
            return self.leases.wait_acquire(item.key.hex(), timeout=wait)
        except (LeaseUnavailableError, CatalogError, OSError):
            self.metrics_store.record_lease_claim_failure()
            return None

    def _release_lease(self, lease: Optional[Lease]) -> None:
        if lease is None or self.leases is None:
            return
        try:
            self.leases.release(lease.key)
        except (CatalogError, OSError):  # pragma: no cover - best-effort
            pass

    # -- garbage collection --------------------------------------------------------

    def run_gc(self) -> Optional[dict]:
        """Run one catalog GC pass with the configured policy; returns the report.

        No-op (returns ``None``) without a catalog.  The background sweep
        calls this every ``gc_interval_seconds``; it is also safe to call
        manually at any time — GC only removes rebuildable checkpoints and
        old result versions, never current state.
        """
        if self.catalog is None:
            return None
        report = self.catalog.gc(self.config.gc_policy)
        self._last_gc_monotonic = time.monotonic()
        self.metrics_store.record_gc(report)
        return report

    def _gc_loop(self) -> None:
        interval = self.config.gc_interval_seconds
        while not self._gc_stop.wait(interval):
            try:
                self.run_gc()
            except Exception as exc:  # noqa: BLE001 - a failed sweep must not kill the loop
                # Counted, not swallowed: /metrics tallies the failures by
                # type and /healthz flags a sweep that keeps failing.
                self.metrics_store.record_gc_sweep_failure(type(exc).__name__)
                self._gc_consecutive_failures += 1
                continue
            self._gc_consecutive_failures = 0

    # -- graceful degradation --------------------------------------------------------

    def store_result_entry(self, name: str, result):
        """Store a composition result, gated by the breaker; returns its entry.

        A degraded service (breaker open) *drops* the write — counted in
        ``catalog_writes_dropped`` — and keeps serving; a failed write feeds
        the breaker and is counted by exception type.  Either way the result
        is ``None`` and the composition result the caller holds is
        unaffected.  A stored :class:`CatalogEntry`'s ``journal_seq`` is
        what an ``ack_level="replica"`` caller waits on.
        :class:`~repro.exceptions.StaleEpochError` propagates.
        """
        if self.catalog is None:
            return None
        box: list = []
        ok = self._catalog_write(lambda: box.append(self.catalog.put_result(name, result)))
        return box[0] if ok and box else None

    def store_mapping_entry(self, name: str, mapping):
        """Like :meth:`store_result_entry`, for a composed mapping."""
        if self.catalog is None:
            return None
        box: list = []
        ok = self._catalog_write(lambda: box.append(self.catalog.put_mapping(name, mapping)))
        return box[0] if ok and box else None

    def _catalog_write(self, op) -> bool:
        if not self.breaker.allow():
            self.metrics_store.record_catalog_write_dropped()
            return False
        try:
            op()
        except StaleEpochError:
            # A fencing rejection, not storage sickness: the disk is fine,
            # this *writer* has been outranked.  Propagate (the HTTP layer
            # answers 409) without tripping the breaker into memory-only
            # mode.
            self.metrics_store.record_stale_epoch_rejected()
            raise
        except (CatalogError, OSError) as exc:
            self.breaker.record_failure(exc)
            self.metrics_store.record_catalog_write_failure(type(exc).__name__)
            return False
        self.breaker.record_success()
        self.metrics_store.record_catalog_write()
        return True

    # -- replica acknowledgements ----------------------------------------------------

    def journal_shard(self, kind: str, name: str) -> int:
        """The journal shard a ``kind/name`` write lands in."""
        return MappingCatalog._shard_id(kind, name)

    def record_follower_applied(self, follower_id: str, applied: Sequence[int]) -> None:
        """A follower reported it has applied each shard up to ``applied[shard]``.

        Called by the HTTP layer for every journal poll that names its
        follower: the poll's cursors are the follower's applied seqs.
        Wakes every write waiting on a replica ack and (throttled) persists
        the floor next to the journal for GC's retention rule.
        """
        with self._ack_cond:
            follower = self._replica_acks.setdefault(follower_id, {"applied": {}})
            floors = follower["applied"]
            for shard, seq in enumerate(applied):
                if seq > floors.get(shard, 0):
                    floors[shard] = int(seq)
            follower["updated_at"] = time.time()
            self._ack_cond.notify_all()
        self._persist_replica_acks()

    def replica_applied_seq(self, shard: int) -> int:
        """The highest seq *any* follower has confirmed applied for ``shard``."""
        with self._ack_cond:
            return self._replica_applied_locked(shard)

    def _replica_applied_locked(self, shard: int) -> int:
        best = 0
        for follower in self._replica_acks.values():
            best = max(best, int(follower.get("applied", {}).get(shard, 0)))
        return best

    def await_replica_ack(self, kind: str, name: str, entry) -> bool:
        """Block until a follower confirms ``entry``'s journal seq; ``True`` if acked.

        ``False`` means the ack did not arrive within
        ``replica_ack_timeout_seconds`` — the write is journal-durable but
        not yet known mirrored (the HTTP layer's ``202 + x-repro-ack-pending``
        degraded ack).  Entries that never journaled (deduped writes, no
        catalog) are trivially acked.
        """
        seq = getattr(entry, "journal_seq", None)
        if seq is None:
            return True
        shard = self.journal_shard(kind, name)
        started = time.monotonic()
        deadline = started + self.config.replica_ack_timeout_seconds
        with self._ack_cond:
            while self._replica_applied_locked(shard) < seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.metrics_store.record_replica_ack(satisfied=False)
                    self.metrics_store.observe(
                        "replication_lag_seconds", time.monotonic() - started
                    )
                    return False
                self._ack_cond.wait(remaining)
        self.metrics_store.record_replica_ack(satisfied=True)
        self.metrics_store.observe("replication_lag_seconds", time.monotonic() - started)
        return True

    def _persist_replica_acks(self, min_interval_seconds: float = 0.25) -> None:
        """Throttled write of ``replica-acks.json`` next to the journal.

        Only an ``ack_level="replica"`` primary persists: the file's presence
        is what activates :meth:`CatalogJournal.replica_ack_floor`'s GC
        retention rule, and a journal-ack deployment must not pay that floor.
        """
        if self.catalog is None or self.config.ack_level != "replica":
            return
        now = time.monotonic()
        with self._ack_cond:
            last = self._acks_persisted_monotonic
            if last is not None and now - last < min_interval_seconds:
                return
            self._acks_persisted_monotonic = now
            payload = {
                "followers": {
                    follower_id: {
                        "applied": {
                            str(shard): seq
                            for shard, seq in sorted(state.get("applied", {}).items())
                        },
                        "updated_at": state.get("updated_at"),
                    }
                    for follower_id, state in self._replica_acks.items()
                }
            }
        try:
            directory = self.catalog.journal.directory
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                directory / "replica-acks.json",
                json.dumps(payload, sort_keys=True) + "\n",
            )
        except (CatalogError, OSError):  # pragma: no cover - best-effort metadata
            pass

    def probe_storage(self) -> bool:
        """Write-and-read a probe file under the catalog root; feeds the breaker.

        This is how an *open* breaker discovers the disk came back: the
        background probe loop calls it every ``breaker_recovery_seconds``
        while the breaker is not closed.  Safe to call manually.
        """
        if self.catalog is None:
            return True
        path = self.catalog.root / ".health-probe"
        try:
            atomic_write_bytes(path, b"ok")
            ok = path.read_bytes() == b"ok"
        except OSError as exc:
            self.breaker.record_failure(exc)
            self.metrics_store.record_probe(ok=False)
            return False
        if ok:
            self.breaker.record_success()
        else:  # pragma: no cover - a torn probe read
            self.breaker.record_failure()
        self.metrics_store.record_probe(ok=ok)
        return ok

    def _probe_loop(self) -> None:
        interval = max(self.config.breaker_recovery_seconds, 0.05)
        while not self._probe_stop.wait(interval):
            if self.breaker.state == "closed":
                continue  # healthy: no need to touch the disk
            try:
                self.probe_storage()
            except Exception:  # noqa: BLE001 - a failed probe must not kill the loop
                continue

    # -- introspection -------------------------------------------------------------

    def health(self) -> dict:
        """The service's real health: ``ok`` or ``degraded``, with reasons.

        Degraded means the service still answers compositions but some
        durability promise is suspended: the storage breaker is open (disk
        writes are being dropped), the service is not running (not started,
        or stopped), or the configured GC sweep has not completed within two
        intervals.
        """
        breaker = self.breaker.snapshot()
        reasons = []
        if breaker["state"] != "closed":
            reasons.append(
                f"storage breaker {breaker['state']} "
                f"(last failure: {breaker['last_failure']})"
            )
        if not self.is_running:
            reasons.append("service is not running")
        last_gc_age: Optional[float] = None
        if self._last_gc_monotonic is not None:
            last_gc_age = time.monotonic() - self._last_gc_monotonic
        interval = self.config.gc_interval_seconds
        if interval is not None and self.catalog is not None:
            if last_gc_age is None:
                # No sweep yet: a freshly started service is not overdue —
                # only one that has been running past two intervals is.
                started = self._started_monotonic
                if started is not None and time.monotonic() - started > 2 * interval:
                    reasons.append("gc sweep overdue")
            elif last_gc_age > 2 * interval:
                reasons.append("gc sweep overdue")
        if self._gc_consecutive_failures:
            reasons.append(
                f"gc sweep failing ({self._gc_consecutive_failures} consecutive)"
            )
        lease_stats = self.leases.stats() if self.leases is not None else None
        if lease_stats and lease_stats.get("heartbeat_consecutive_failures"):
            reasons.append(
                "lease heartbeat failing "
                f"({lease_stats['heartbeat_consecutive_failures']} consecutive)"
            )
        snapshot = self.metrics_store
        health: dict = {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "breaker": breaker,
            "gc": {
                "last_sweep_age_seconds": last_gc_age,
                "interval_seconds": interval,
                "sweeps": snapshot.gc_sweeps,
                "sweep_failures": snapshot.gc_sweep_failures,
                "consecutive_failures": self._gc_consecutive_failures,
            },
            "storage": {
                "catalog_writes": snapshot.catalog_writes,
                "catalog_writes_dropped": snapshot.catalog_writes_dropped,
                "catalog_write_failures": snapshot.catalog_write_failures,
                "probes": snapshot.probes,
                "probe_failures": snapshot.probe_failures,
            },
        }
        if lease_stats is not None:
            health["leases"] = lease_stats
        return health

    def metrics(self) -> dict:
        """A JSON-serializable snapshot of everything the service measures."""
        with self._lock:
            pending = len(self._queue)
            in_flight = len(self._in_flight)
        return self.metrics_store.snapshot(
            pending=pending,
            in_flight=in_flight,
            checkpoint_stats=self.checkpoints.stats(),
            breaker=self.breaker.snapshot(),
            leases=self.leases.stats() if self.leases is not None else None,
        )

    def metrics_prometheus(self) -> str:
        """The metrics snapshot in the Prometheus text exposition format."""
        with self._lock:
            pending = len(self._queue)
            in_flight = len(self._in_flight)
        return self.metrics_store.render_prometheus(
            pending=pending,
            in_flight=in_flight,
            checkpoint_stats=self.checkpoints.stats(),
            breaker=self.breaker.snapshot(),
            leases=self.leases.stats() if self.leases is not None else None,
        )

    def __repr__(self) -> str:
        state = "running" if self.is_running else "stopped"
        return f"<CompositionService ({state}): {len(self._queue)} queued>"


def _item_error(outcome: BatchItemResult) -> ServiceError:
    if outcome.status is ProblemStatus.TIMED_OUT:
        return ServiceError(f"request timed out: {outcome.error}")
    return ServiceError(outcome.error or "composition failed")


def _phase_seconds(payload: object):
    """The per-phase buckets of a served payload (chains sum over their hops)."""
    if payload is None:
        return ()
    if hasattr(payload, "phase_seconds") and not hasattr(payload, "hops"):
        return payload.phase_seconds
    if hasattr(payload, "hops"):
        totals: Dict[str, float] = {}
        for hop in payload.hops:
            for phase, seconds in hop.result.phase_seconds:
                totals[phase] = totals.get(phase, 0.0) + seconds
        return tuple(sorted(totals.items()))
    return ()
