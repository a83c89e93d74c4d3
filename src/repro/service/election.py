"""Lease-based leader election: unattended failover for the replicated tier.

:class:`LeaderElector` closes the gap PR 8 left open: when the primary dies,
a follower used to park behind 503s until an operator POSTed
``/admin/promote``.  The elector runs that promotion automatically, built on
the cross-process :class:`~repro.catalog.leases.LeaseTable`:

* **Candidate mode** (constructed with a ``follower``): a background loop
  watches primary liveness — an HTTP ``/healthz`` probe when ``primary_url``
  is given, the follower's own poll reachability otherwise, and any
  unexpired ``leader`` lease on disk.  When the primary stays silent for
  ``election_timeout_seconds``, every candidate races to
  :meth:`~repro.catalog.leases.LeaseTable.wait_acquire` the well-known
  ``leader`` key in a shared election directory; exactly one wins.
* **The winner self-promotes** through the existing
  :meth:`~repro.service.replica.ReplicationFollower.promote` path, then
  mints a new **fencing epoch** via
  :meth:`~repro.catalog.catalog.MappingCatalog.bump_epoch` and — best
  effort — drops a ``FENCED`` tombstone into the dead primary's root
  (``source_root``), so a zombie ex-primary that wakes up later gets
  :class:`~repro.exceptions.StaleEpochError` instead of split-braining the
  store.
* **Leader mode** (no ``follower``): the current primary simply holds and
  renews the ``leader`` lease so candidates do not duel a live leader.  A
  leader whose renew comes back ``False`` (its lease was taken over while it
  was stalled) marks itself *deposed* and stops claiming leadership — the
  HTTP layer degrades its health accordingly.

Losing an election is not an error: the loser observes the winner's lease
(and soon its higher epoch through replication) and goes back to tailing.

Fault points: ``election.acquire`` fires before each lease race and
``election.renew`` before each leader renewal — chaos tests use them to
delay or crash electors mid-transition.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro import faults, obs
from repro.catalog.catalog import MappingCatalog
from repro.catalog.journal import CatalogJournal
from repro.catalog.leases import LeaseTable
from repro.exceptions import (
    CatalogLockTimeoutError,
    JournalError,
    LeaseUnavailableError,
    ReplicationError,
    ServiceError,
)
from repro.service.wire import TRANSPORT_ERRORS, PooledClient

__all__ = ["LeaderElector", "LEADER_LEASE_KEY", "DEFAULT_ELECTION_TIMEOUT_SECONDS"]

#: The well-known lease key every candidate races for.
LEADER_LEASE_KEY = "leader"

#: How long the primary must stay silent before candidates start an election.
DEFAULT_ELECTION_TIMEOUT_SECONDS = 5.0


class LeaderElector:
    """Watches primary health and self-promotes one follower when it dies.

    Parameters
    ----------
    catalog:
        The local catalog this process serves (the one that gets the new
        epoch on promotion).
    follower:
        The :class:`~repro.service.replica.ReplicationFollower` to promote
        on a won election.  ``None`` means this process *is* the primary:
        the elector only holds the ``leader`` lease.
    election_dir:
        Directory holding the shared lease table.  Every process in one
        failover group must point at the same directory (a shared
        filesystem path).  Defaults to ``<catalog.root>/election`` — fine
        for a single candidate, but a fleet needs an explicitly shared dir.
    source_root:
        The (dead) primary's catalog root, when reachable on this
        filesystem.  A won election fences it with the new epoch so a
        resurrected ex-primary cannot accept writes.
    primary_url:
        The primary's base URL; when given, liveness is probed via
        ``GET /healthz`` (any HTTP answer counts as alive, even a 500 —
        a degraded primary is still the primary).
    election_timeout_seconds:
        Silence threshold before racing, the ``wait_acquire`` budget, and
        the TTL of the ``leader`` lease.
    poll_interval_seconds:
        Candidate/leader loop cadence; defaults to a quarter of the
        election timeout.
    health_timeout_seconds:
        Per-probe HTTP timeout for the ``/healthz`` liveness check.
    """

    def __init__(
        self,
        catalog: MappingCatalog,
        follower=None,
        election_dir: Optional[Union[str, Path]] = None,
        source_root: Optional[Union[str, Path]] = None,
        primary_url: Optional[str] = None,
        election_timeout_seconds: float = DEFAULT_ELECTION_TIMEOUT_SECONDS,
        poll_interval_seconds: Optional[float] = None,
        health_timeout_seconds: float = 1.0,
    ):
        if not election_timeout_seconds > 0:  # NaN fails too
            raise ServiceError("election_timeout_seconds must be positive")
        if poll_interval_seconds is None:
            poll_interval_seconds = election_timeout_seconds / 4.0
        if not poll_interval_seconds > 0:
            raise ServiceError("poll_interval_seconds must be positive")
        self.catalog = catalog
        self.follower = follower
        self.source_root = Path(source_root) if source_root is not None else None
        self.primary_url = primary_url.rstrip("/") if primary_url else None
        self.election_timeout_seconds = election_timeout_seconds
        self.poll_interval_seconds = poll_interval_seconds
        self.health_timeout_seconds = health_timeout_seconds
        if election_dir is None:
            election_dir = Path(catalog.root) / "election"
        # The leader lease lives as long as the election timeout, so a
        # crashed leader's lease expires on the same clock candidates use.
        self.leases = LeaseTable(election_dir, ttl_seconds=election_timeout_seconds)
        self._client = PooledClient()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._is_leader = follower is None
        self._deposed = False
        self._last_alive_monotonic = time.monotonic()
        self._last_probe_alive: Optional[bool] = None
        self.elections_started = 0
        self.elections_won = 0
        self.elections_lost = 0
        self.renewals = 0
        self.renew_failures = 0
        self.promotion_report: Optional[dict] = None
        self.fenced_source_epoch: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "LeaderElector":
        """Start the candidate/leader loop (idempotent); returns ``self``."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name="repro-elector", daemon=True
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
        self._client.close()
        try:
            self.leases.release_all()
        except OSError:
            pass

    def __enter__(self) -> "LeaderElector":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def is_leader(self) -> bool:
        return self._is_leader and not self._deposed

    @property
    def deposed(self) -> bool:
        return self._deposed

    # -- liveness ------------------------------------------------------------------

    def _probe_healthz(self) -> bool:
        # Any answer, however unhappy, means the primary is alive.
        try:
            self._client.request(
                "GET", f"{self.primary_url}/healthz", timeout=self.health_timeout_seconds
            )
        except TRANSPORT_ERRORS:
            return False
        return True

    def _primary_alive(self) -> bool:
        """Best current evidence that a live leader exists somewhere."""
        alive = False
        if self.primary_url is not None:
            alive = self._probe_healthz()
        elif self.follower is not None:
            # No URL to probe: trust the follower's last poll outcome.
            alive = getattr(self.follower, "_source_reachable", None) is True
        lease = self.leases.peek(LEADER_LEASE_KEY)
        if (
            lease is not None
            and lease.owner != self.leases.owner
            and not lease.expired(time.time())
        ):
            # An elected peer is actively renewing: do not duel it.
            alive = True
        self._last_probe_alive = alive
        return alive

    # -- the loop ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                if self._is_leader:
                    self._leader_tick()
                else:
                    self._candidate_tick()
            except Exception:  # noqa: BLE001 - the loop must survive chaos faults
                pass
            self._stop.wait(self.poll_interval_seconds)

    def _leader_tick(self) -> None:
        if self._deposed:
            return
        if LEADER_LEASE_KEY not in self.leases.held():
            faults.fire("election.acquire", key=LEADER_LEASE_KEY, role="leader")
            self.leases.acquire(LEADER_LEASE_KEY)
            return
        faults.fire("election.renew", key=LEADER_LEASE_KEY)
        self.renewals += 1
        if not self.leases.renew(LEADER_LEASE_KEY):
            # Our lease was taken over while we stalled: a newer leader
            # exists.  Stop claiming leadership — fencing epochs protect
            # the store; this flag protects the routing layer.
            self.renew_failures += 1
            self._deposed = True

    def _candidate_tick(self) -> None:
        if self.follower is not None and self.follower.promoted:
            # Manual /admin/promote override: assume leader duties.
            with obs.span(
                "election.transition", new_trace=True, trigger="manual-promote"
            ):
                self._assume_leadership(promote=False)
            return
        now = time.monotonic()
        if self._primary_alive():
            self._last_alive_monotonic = now
            return
        if now - self._last_alive_monotonic < self.election_timeout_seconds:
            return
        self._run_election()

    def _run_election(self) -> None:
        self.elections_started += 1
        # The span is the election's wall clock — lease race through
        # promotion and fencing — and starts its own trace: elections are
        # triggered by silence, not by a traced request.
        with obs.span("election.transition", new_trace=True, trigger="timeout") as handle:
            faults.fire("election.acquire", key=LEADER_LEASE_KEY, role="candidate")
            try:
                self.leases.wait_acquire(
                    LEADER_LEASE_KEY, timeout=self.election_timeout_seconds
                )
            except (LeaseUnavailableError, CatalogLockTimeoutError, OSError):
                # Someone else won (or the lease dir hiccuped): back to
                # watching.  The winner now counts as the live primary.
                self.elections_lost += 1
                self._last_alive_monotonic = time.monotonic()
                handle.set("won", False)
                return
            self.elections_won += 1
            handle.set("won", True)
            self._assume_leadership(promote=True)

    def _assume_leadership(self, promote: bool) -> None:
        if promote and self.follower is not None and not self.follower.promoted:
            try:
                self.promotion_report = self.follower.promote()
            except ReplicationError:
                # A half-promoted follower is still the winner: it holds
                # the lease and its catalog is as caught up as the dead
                # primary allows.
                self.promotion_report = {"promoted": True, "final_catch_up_error": "crashed"}
        epoch = self.catalog.bump_epoch()
        self._fence_source(epoch)
        self._is_leader = True
        self._deposed = False

    def _fence_source(self, epoch: int) -> None:
        """Tombstone the old primary's root so its zombie cannot write."""
        if self.source_root is None:
            return
        try:
            journal = CatalogJournal(self.source_root / "journal")
            self.fenced_source_epoch = journal.fence(epoch)
        except (OSError, JournalError, ValueError):
            # The old root may be gone with its machine; the epoch stamped
            # into our own journal still outranks any zombie's entries.
            self.fenced_source_epoch = None

    # -- introspection -------------------------------------------------------------

    def status(self) -> dict:
        """A JSON-serializable snapshot of the elector's state."""
        if self._deposed:
            role = "deposed"
        elif self._is_leader:
            role = "leader"
        else:
            role = "candidate"
        silence: Optional[float] = None
        if not self._is_leader:
            silence = time.monotonic() - self._last_alive_monotonic
        return {
            "role": role,
            "running": self.is_running,
            "election_dir": str(self.leases.directory),
            "election_timeout_seconds": self.election_timeout_seconds,
            "primary_alive": self._last_probe_alive,
            "primary_silence_seconds": silence,
            "elections_started": self.elections_started,
            "elections_won": self.elections_won,
            "elections_lost": self.elections_lost,
            "renewals": self.renewals,
            "renew_failures": self.renew_failures,
            "deposed": self._deposed,
            "fenced_source_epoch": self.fenced_source_epoch,
        }

    def __repr__(self) -> str:
        role = "deposed" if self._deposed else ("leader" if self._is_leader else "candidate")
        return f"<LeaderElector {role} @ {self.leases.directory}>"
