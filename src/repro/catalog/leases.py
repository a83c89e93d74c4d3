"""Lease-based cross-process work claims: exclusive while alive, stealable when dead.

The composition service deduplicates concurrent identical requests *within*
one process by coalescing them onto a shared in-flight future.  Across
processes that table is invisible, so two service instances fed the same
request would both burn the CPU to compose it.  :class:`LeaseTable` extends
the claim across processes with the weakest primitive that works: a **lease**
— a small JSON file per claimed key recording who owns the claim and when it
expires.

The protocol:

* :meth:`acquire` takes the claim if the key is unclaimed, expired, or
  already ours; a *live* claim by another owner is respected (``None``).
* a background heartbeat (:meth:`start_heartbeat`, interval ``ttl/3``)
  renews every held lease, so a healthy owner keeps its claims indefinitely;
* an owner that dies — SIGKILL included — simply stops renewing, and after
  ``ttl_seconds`` any peer's :meth:`acquire` **takes the lease over** (counted
  in ``takeovers``); nothing needs to detect the death or clean up;
* :meth:`wait_acquire` polls with jitter until the claim is won, raising
  :class:`~repro.exceptions.LeaseUnavailableError` only when a live peer held
  the key for the whole wait budget.

Every read-modify-write of a lease file happens under a per-key
:class:`~repro.catalog.storage.FileLock`, so two processes deciding "that
lease is expired, it's mine now" serialize and exactly one wins.  Lease
*state* transitions are therefore atomic, while the guarantee is
intentionally time-bounded: mutual exclusion holds **while the lease is
live**.  The service layers its own idempotence on top (results are
content-addressed; duplicated work after a takeover is wasted CPU, never a
wrong answer), which is what makes a lease — rather than a consensus
protocol — sufficient here.

Expiry is compared against ``time.time()`` on the assumption that every
contender shares one machine clock (the catalog lives on one filesystem, so
this holds).  Corrupt lease files are treated as absent — a torn write of a
claim file costs at most one duplicated composition.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro import faults
from repro.catalog.storage import FileLock, atomic_write_text
from repro.exceptions import LeaseUnavailableError

__all__ = ["Lease", "LeaseTable", "DEFAULT_LEASE_TTL_SECONDS"]

#: Default time a claim survives without renewal before peers may steal it.
DEFAULT_LEASE_TTL_SECONDS = 30.0

#: Bounds of the jittered poll inside :meth:`LeaseTable.wait_acquire`.
_WAIT_POLL_MIN_SECONDS = 0.005
_WAIT_POLL_MAX_SECONDS = 0.1

#: Lease-file locks protect one tiny read-modify-write; a holder that keeps
#: one for 5 seconds is wedged, and waiting longer would only spread the wedge.
_LEASE_LOCK_TIMEOUT_SECONDS = 5.0


@dataclass(frozen=True)
class Lease:
    """One claim as read from disk: who owns ``key`` and until when."""

    key: str
    owner: str
    acquired_at: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


def default_owner_id() -> str:
    """A process-unique owner id: ``hostname:pid:nonce``.

    The nonce guards against pid reuse — a recycled pid on the same host must
    not inherit the dead process's claims.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class LeaseTable:
    """Cross-process claims on string keys, stored as files in one directory.

    Parameters
    ----------
    directory:
        Where lease files live (created if missing).  All contending
        processes must point at the same directory — the service uses
        ``<catalog root>/leases``.
    owner:
        This process's identity in lease files; defaults to
        :func:`default_owner_id`.  Two ``LeaseTable`` instances with the same
        owner string are the same claimant.
    ttl_seconds:
        How long a claim survives without renewal.  The heartbeat renews at
        ``ttl/3``, so a lease dies only after three consecutive missed
        heartbeats — or a dead process.
    clock:
        Injectable time source (``time.time``); tests use it to age leases
        without sleeping.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        owner: Optional[str] = None,
        ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
        clock: Callable[[], float] = time.time,
    ):
        if not ttl_seconds > 0:  # NaN fails too
            raise ValueError("ttl_seconds must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.owner = owner or default_owner_id()
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._mutex = threading.Lock()
        self._held: Dict[str, Lease] = {}
        self._heartbeat: Optional[threading.Thread] = None
        self._heartbeat_stop = threading.Event()
        # Counters (under _mutex).
        self._acquired = 0
        self._released = 0
        self._takeovers = 0
        self._contested = 0
        self._renewals = 0
        self._lost = 0
        self._heartbeat_failures = 0
        self._heartbeat_consecutive_failures = 0

    # -- file layout -----------------------------------------------------------------

    def _digest(self, key: str) -> str:
        return blake2b(key.encode("utf-8"), digest_size=8).hexdigest()

    def _lease_path(self, key: str) -> Path:
        return self.directory / (self._digest(key) + ".lease")

    def _lock_path(self, key: str) -> Path:
        return self.directory / (self._digest(key) + ".lock")

    def _read(self, key: str) -> Optional[Lease]:
        """The lease on disk for ``key``, or ``None`` (corrupt files are absent)."""
        try:
            raw = self._lease_path(key).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(raw)
            return Lease(
                key=str(data["key"]),
                owner=str(data["owner"]),
                acquired_at=float(data["acquired_at"]),
                expires_at=float(data["expires_at"]),
            )
        except (ValueError, KeyError, TypeError):
            # A torn/corrupt claim file is an absent claim: the worst case is
            # one duplicated composition, never a wedged key.
            return None

    def _write(self, lease: Lease) -> None:
        faults.fire("lease.write", key=lease.key, owner=lease.owner)
        atomic_write_text(
            self._lease_path(lease.key),
            json.dumps(
                {
                    "key": lease.key,
                    "owner": lease.owner,
                    "acquired_at": lease.acquired_at,
                    "expires_at": lease.expires_at,
                }
            ),
        )

    # -- claim lifecycle -------------------------------------------------------------

    def acquire(self, key: str) -> Optional[Lease]:
        """Claim ``key``: a :class:`Lease` on success, ``None`` if a live peer owns it.

        Succeeds when the key is unclaimed, claimed by us (renewing the
        claim), or claimed by a peer whose lease has **expired** — the stale
        lease is taken over and counted.  The decision and the write happen
        under the per-key file lock, so concurrent takeover attempts
        serialize and exactly one process wins.
        """
        lock = FileLock(self._lock_path(key), timeout=_LEASE_LOCK_TIMEOUT_SECONDS)
        with lock:
            now = self._clock()
            current = self._read(key)
            takeover = False
            if current is not None and current.owner != self.owner:
                if not current.expired(now):
                    with self._mutex:
                        self._contested += 1
                    return None
                takeover = True
            lease = Lease(
                key=key,
                owner=self.owner,
                acquired_at=now,
                expires_at=now + self.ttl_seconds,
            )
            self._write(lease)
        with self._mutex:
            self._held[key] = lease
            self._acquired += 1
            if takeover:
                self._takeovers += 1
        return lease

    def wait_acquire(self, key: str, timeout: float) -> Lease:
        """Claim ``key``, polling until the live holder releases, dies, or expires.

        Raises :class:`~repro.exceptions.LeaseUnavailableError` when a live
        peer renewed the claim past the whole ``timeout``.  The poll is
        jittered so a herd of waiters does not stampede the lease file.
        """
        if timeout < 0:
            raise ValueError("timeout must be non-negative")
        deadline = time.monotonic() + timeout
        pause = _WAIT_POLL_MIN_SECONDS
        while True:
            lease = self.acquire(key)
            if lease is not None:
                return lease
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LeaseUnavailableError(
                    f"lease on {key!r} held by a live peer for {timeout} seconds"
                )
            sleep_for = min(pause * (0.5 + 0.5 * random.random()), remaining)
            time.sleep(sleep_for)
            pause = min(pause * 2.0, _WAIT_POLL_MAX_SECONDS)

    def renew(self, key: str) -> bool:
        """Extend our claim on ``key``; ``False`` if the lease was lost.

        A lease is *lost* when the file on disk no longer names us as owner —
        a peer took it over after we missed enough heartbeats (e.g. this
        process was stopped under a debugger past the TTL).  The key is
        dropped from the held table so the caller knows its exclusivity is
        gone.
        """
        with self._mutex:
            if key not in self._held:
                return False
        lock = FileLock(self._lock_path(key), timeout=_LEASE_LOCK_TIMEOUT_SECONDS)
        with lock:
            current = self._read(key)
            if current is None or current.owner != self.owner:
                with self._mutex:
                    self._held.pop(key, None)
                    self._lost += 1
                return False
            now = self._clock()
            lease = Lease(
                key=key,
                owner=self.owner,
                acquired_at=current.acquired_at,
                expires_at=now + self.ttl_seconds,
            )
            self._write(lease)
        with self._mutex:
            self._held[key] = lease
            self._renewals += 1
        return True

    def renew_all(self) -> int:
        """Renew every held lease (the heartbeat body); returns renewals done."""
        with self._mutex:
            keys = list(self._held)
        return sum(1 for key in keys if self.renew(key))

    def release(self, key: str) -> None:
        """Drop our claim on ``key`` (no-op if we do not hold it).

        The lease file is deleted only if it still names us — releasing after
        a takeover must not destroy the new owner's claim.
        """
        with self._mutex:
            held = self._held.pop(key, None)
        if held is None:
            return
        lock = FileLock(self._lock_path(key), timeout=_LEASE_LOCK_TIMEOUT_SECONDS)
        try:
            with lock:
                current = self._read(key)
                if current is not None and current.owner == self.owner:
                    try:
                        self._lease_path(key).unlink()
                    except OSError:
                        pass
        finally:
            with self._mutex:
                self._released += 1

    def release_all(self) -> None:
        """Release every held lease (shutdown path)."""
        with self._mutex:
            keys = list(self._held)
        for key in keys:
            self.release(key)

    # -- heartbeat -------------------------------------------------------------------

    def start_heartbeat(self, interval_seconds: Optional[float] = None) -> None:
        """Renew held leases every ``interval`` (default ``ttl/3``) until stopped."""
        if self._heartbeat is not None:
            return
        interval = (
            interval_seconds if interval_seconds is not None else self.ttl_seconds / 3.0
        )
        self._heartbeat_stop.clear()

        def beat() -> None:
            while not self._heartbeat_stop.wait(interval):
                try:
                    self.renew_all()
                except Exception:  # noqa: BLE001 - heartbeat must never die
                    # A failed renewal round (disk hiccup, injected fault) is
                    # survivable: the next round retries, and a lease only
                    # expires after ttl — three missed rounds.  Counted, not
                    # swallowed: /metrics reports the tally and /healthz
                    # flags a heartbeat that keeps failing.
                    with self._mutex:
                        self._heartbeat_failures += 1
                        self._heartbeat_consecutive_failures += 1
                else:
                    with self._mutex:
                        self._heartbeat_consecutive_failures = 0

        self._heartbeat = threading.Thread(
            target=beat, name="repro-lease-heartbeat", daemon=True
        )
        self._heartbeat.start()

    def stop_heartbeat(self) -> None:
        thread, self._heartbeat = self._heartbeat, None
        if thread is None:
            return
        self._heartbeat_stop.set()
        thread.join(timeout=5.0)

    # -- introspection ---------------------------------------------------------------

    def held(self) -> Dict[str, Lease]:
        """The leases this table currently believes it holds (a copy)."""
        with self._mutex:
            return dict(self._held)

    def peek(self, key: str) -> Optional[Lease]:
        """The lease on disk for ``key`` regardless of owner (no lock taken)."""
        return self._read(key)

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "held": len(self._held),
                "acquired": self._acquired,
                "released": self._released,
                "takeovers": self._takeovers,
                "contested": self._contested,
                "renewals": self._renewals,
                "lost": self._lost,
                "heartbeat_failures": self._heartbeat_failures,
                "heartbeat_consecutive_failures": self._heartbeat_consecutive_failures,
            }

    def __repr__(self) -> str:
        with self._mutex:
            held = len(self._held)
        return f"<LeaseTable {str(self.directory)!r} owner={self.owner!r} held={held}>"
