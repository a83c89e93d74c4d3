"""Deterministic fault injection for the storage/catalog/service tier.

A durability claim that can only be tested by hand-written kill scripts is a
claim, not a test.  This module turns every failure mode the catalog tier
defends against into a *replayable schedule*: named fault points are threaded
through :mod:`repro.catalog.storage`, :mod:`repro.catalog.catalog`,
:mod:`repro.catalog.checkpoints` and :mod:`repro.catalog.leases`, and a
seeded :class:`FaultInjector` decides — deterministically, from per-point
call counters and a per-spec PRNG — which calls fail, stall, tear, or crash
the process outright.

Fault points currently instrumented
-----------------------------------

===============================  ==============================================
``storage.write.begin``          start of an atomic write (``eio``/``slow``)
``storage.write.torn``           tear the write: half the bytes land in the
                                 temp file, then ``EIO`` — the destination
                                 must stay untouched (``torn``)
``storage.fsync``                before the data fsync (``eio``/``slow``)
``storage.write.after_rename``   immediately after ``os.replace`` — the
                                 classic crash-after-rename window
                                 (``crash``/``eio``/``slow``)
``catalog.shard.read``           reading one index shard (``eio``/``slow``)
``catalog.lock.acquire``         taking a shard/lease file lock
                                 (``stall``/``eio``)
``checkpoint.load``              reading a checkpoint file (``eio``/``slow``)
``checkpoint.persist``           mirroring a checkpoint to disk
                                 (``eio``/``slow``)
``lease.write``                  writing a lease claim (``eio``/``slow``)
``journal.append.torn``          tear a journal append: a prefix of the
                                 entry lands, then ``EIO`` — the next append
                                 truncates the torn tail (``torn``)
``journal.append.fsync``         before the journal fsync
                                 (``eio``/``slow``/``crash``)
``journal.replay``               reading journal entries back
                                 (``eio``/``slow``)
``replica.apply``                a follower applying one journal entry
                                 (``eio``/``slow``/``crash``)
``router.backend``               the router proxying one request to one
                                 backend (``eio``/``slow``)
``election.acquire``             an elector claiming/racing for the
                                 ``leader`` lease (``eio``/``slow``/``crash``)
``election.renew``               a leader renewing its ``leader`` lease
                                 (``eio``/``slow``/``stall``)
``journal.epoch.write``          persisting a fencing epoch or ``FENCED``
                                 tombstone (``eio``/``slow``/``crash``)
===============================  ==============================================

Schedules
---------

A schedule is a ``;``-separated list of clauses.  ``seed=N`` seeds the
per-spec PRNGs; every other clause is ``point:kind[:key=value]*``::

    seed=7;storage.write.begin:eio:p=0.1;catalog.lock.acquire:stall:ms=25
    storage.write.after_rename:crash:after=3:limit=1

Spec keys: ``p`` (firing probability, default 1), ``nth`` (fire on every nth
matching call), ``after`` (skip the first N calls), ``limit`` (stop after
firing N times), ``ms`` (sleep milliseconds for ``slow``/``stall``).  A
trailing ``*`` in the point name matches a prefix (``storage.*``).

Activation
----------

Programmatic (tests): ``install(FaultInjector.from_text("..."))`` /
``clear()``.  Environment (subprocesses, CI chaos jobs): set
``REPRO_FAULTS`` to a schedule — the injector installs itself on the first
instrumented call.  ``REPRO_FAULTS_LOG`` names a JSONL file to which every
*fired* fault is appended (point, kind, pid, sequence numbers), so a chaos
run leaves an audit trail of exactly which faults it survived.

Injected I/O errors are ordinary ``OSError`` with ``errno == EIO``, so the
production classification in :mod:`repro.retry` treats them exactly like the
real thing.  ``crash`` calls ``os._exit(137)`` — no cleanup handlers, no
flushes — modelling SIGKILL at the instrumented instant.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from random import Random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.sink import JsonlSink

__all__ = [
    "ENV_VAR",
    "LOG_ENV_VAR",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultInjector",
    "install",
    "clear",
    "active",
    "fire",
    "torn_data",
]

ENV_VAR = "REPRO_FAULTS"
LOG_ENV_VAR = "REPRO_FAULTS_LOG"

#: ``stall`` is an alias of ``slow`` that reads better on lock points.
FAULT_KINDS = ("eio", "slow", "stall", "torn", "crash")

_CRASH_EXIT_CODE = 137  # what a SIGKILLed process reports


@dataclass
class FaultSpec:
    """One scheduled failure: *where* (point), *what* (kind), and *when*."""

    point: str
    kind: str
    probability: float = 1.0
    nth: Optional[int] = None
    after: int = 0
    limit: Optional[int] = None
    delay_ms: float = 10.0
    calls: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("fault probability must be within [0, 1]")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth must be positive")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")
        if self.delay_ms < 0:
            raise ValueError("ms must be non-negative")

    def matches(self, point: str) -> bool:
        if self.point.endswith("*"):
            return point.startswith(self.point[:-1])
        return point == self.point

    def should_fire(self, rng: Random) -> bool:
        """Advance this spec's call counter and decide (deterministically).

        The caller holds the injector lock, so counters and the per-spec PRNG
        advance in one global order per process — the same schedule replays
        the same decisions for the same call sequence.
        """
        self.calls += 1
        if self.limit is not None and self.fired >= self.limit:
            return False
        if self.calls <= self.after:
            return False
        if self.nth is not None and self.calls % self.nth != 0:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    def label(self) -> str:
        return f"{self.point}:{self.kind}"


def _parse_clause(clause: str) -> FaultSpec:
    parts = clause.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"malformed fault clause {clause!r}: expected 'point:kind[:key=value]*'"
        )
    point, kind = parts[0].strip(), parts[1].strip()
    kwargs: Dict[str, object] = {}
    for option in parts[2:]:
        key, _, value = option.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ValueError(f"malformed fault option {option!r} in {clause!r}")
        if key == "p":
            kwargs["probability"] = float(value)
        elif key == "nth":
            kwargs["nth"] = int(value)
        elif key == "after":
            kwargs["after"] = int(value)
        elif key == "limit":
            kwargs["limit"] = int(value)
        elif key == "ms":
            kwargs["delay_ms"] = float(value)
        else:
            raise ValueError(f"unknown fault option {key!r} in {clause!r}")
    return FaultSpec(point=point, kind=kind, **kwargs)


class FaultInjector:
    """A seeded set of :class:`FaultSpec` plus the machinery to fire them.

    Thread-safe: one lock serializes every decision, so per-spec counters and
    PRNG draws advance in a single process-wide order.  Each spec gets its
    own PRNG seeded from ``(seed, point, kind, index)``, so adding a clause
    to a schedule never perturbs the draws of the clauses before it.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        seed: int = 0,
        log_path: Optional[str] = None,
    ):
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self.log_path = log_path
        self._lock = threading.Lock()
        self._rngs: List[Random] = [
            Random(self._spec_seed(spec, index)) for index, spec in enumerate(self.specs)
        ]
        # The audit trail: one JSONL line per fired fault, fail-silent.
        self._log = JsonlSink(log_path) if log_path else None

    def _spec_seed(self, spec: FaultSpec, index: int) -> int:
        digest = blake2b(
            f"{self.seed}/{spec.point}/{spec.kind}/{index}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, log_path: Optional[str] = None) -> "FaultInjector":
        """Parse a schedule string (see the module docstring for the grammar)."""
        seed = 0
        specs: List[FaultSpec] = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[len("seed="):])
                continue
            specs.append(_parse_clause(clause))
        return cls(specs, seed=seed, log_path=log_path)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultInjector"]:
        """Build an injector from ``$REPRO_FAULTS`` (``None`` when unset/empty)."""
        environ = os.environ if environ is None else environ
        text = environ.get(ENV_VAR, "").strip()
        if not text:
            return None
        return cls.from_text(text, log_path=environ.get(LOG_ENV_VAR) or None)

    # -- firing ----------------------------------------------------------------------

    def _triggered(self, point: str, kinds: Tuple[str, ...]) -> List[FaultSpec]:
        with self._lock:
            hits = []
            for index, spec in enumerate(self.specs):
                if spec.kind not in kinds or not spec.matches(point):
                    continue
                if spec.should_fire(self._rngs[index]):
                    hits.append(spec)
                    if self._log is not None:
                        self._log.write(
                            {
                                "ts": time.time(),
                                "pid": os.getpid(),
                                "point": point,
                                "spec": spec.label(),
                                "call": spec.calls,
                                "fired": spec.fired,
                            }
                        )
            return hits

    def fire(self, point: str, **context) -> None:
        """Run every non-``torn`` fault scheduled at ``point``.

        ``slow``/``stall`` sleep, ``crash`` exits the process without
        cleanup, and ``eio`` raises ``OSError(EIO)`` — after the sleeps, so
        a clause pair ``slow`` + ``eio`` models a write that hung *and then*
        failed.
        """
        eio: Optional[FaultSpec] = None
        for spec in self._triggered(point, ("slow", "stall", "crash", "eio")):
            if spec.kind in ("slow", "stall"):
                time.sleep(spec.delay_ms / 1000.0)
            elif spec.kind == "crash":
                if self._log is not None:
                    self._log.sync()
                os._exit(_CRASH_EXIT_CODE)
            else:
                eio = spec
        if eio is not None:
            raise OSError(
                errno.EIO,
                f"injected transient I/O fault ({eio.label()}) at {point}",
            )

    def torn_data(self, point: str, data: bytes) -> Optional[bytes]:
        """The truncated payload a ``torn`` spec at ``point`` demands, or ``None``.

        The storage layer writes the returned prefix to its temp file and then
        raises ``EIO`` — modelling a writer that died mid-write.  Because the
        tear happens before the rename, the destination must never see it.
        """
        if not self._triggered(point, ("torn",)):
            return None
        return data[: max(1, len(data) // 2)]

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "specs": [
                    {
                        "spec": spec.label(),
                        "calls": spec.calls,
                        "fired": spec.fired,
                    }
                    for spec in self.specs
                ],
                "fired_total": sum(spec.fired for spec in self.specs),
            }

    def __repr__(self) -> str:
        return f"<FaultInjector seed={self.seed}: {len(self.specs)} specs>"


# -- the process-global injector -----------------------------------------------------
#
# Instrumented sites call the module-level fire()/torn_data(), which consult
# one process-global injector.  Tests install one explicitly; subprocesses
# (chaos suite, CI) activate through $REPRO_FAULTS on the first call.

_active: Optional[FaultInjector] = None
_env_checked = False
_install_lock = threading.Lock()


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-global injector; returns it."""
    global _active, _env_checked
    with _install_lock:
        _active = injector
        _env_checked = True
    return injector


def clear() -> None:
    """Deactivate fault injection (and forget any env-derived injector)."""
    global _active, _env_checked
    with _install_lock:
        _active = None
        _env_checked = True


def active() -> Optional[FaultInjector]:
    """The process-global injector, lazily created from ``$REPRO_FAULTS``."""
    global _active, _env_checked
    if _env_checked:
        return _active
    with _install_lock:
        if not _env_checked:
            _active = FaultInjector.from_env()
            _env_checked = True
    return _active


def fire(point: str, **context) -> None:
    """Fire the faults scheduled at ``point`` (no-op when none is installed)."""
    injector = active()
    if injector is not None:
        injector.fire(point, **context)


def torn_data(point: str, data: bytes) -> Optional[bytes]:
    """The torn payload scheduled at ``point``, or ``None`` (the common case)."""
    injector = active()
    if injector is None:
        return None
    return injector.torn_data(point, data)
