"""Hop checkpoints: recorded chain-fold states keyed by fingerprint tokens.

Schema-evolution workloads recompose *almost the same chain* over and over:
every edit appends a mapping (or rewrites one near the end) and the
end-to-end composition is rebuilt.  A :class:`CheckpointStore` remembers, per
hop token (:mod:`repro.engine.fingerprint`), everything the fold needs to
resume after that hop — the accumulated constraint set, the threaded residual
symbols, the running output signature, and the full prefix of hop records
with their per-symbol elimination outcomes — so a later composition whose
token chain matches a recorded prefix replays only the hops after the first
mismatch.

The store is a pure accelerator with the same contract as the expression
cache: dropping any entry is always safe (the fold recomputes it), results
are byte-identical with the store hot, cold, or absent, and sharing between
threads is harmless because entries are immutable and keyed by content.
Checkpoints pickle cleanly (tokens are deterministic digests), which is how
:mod:`repro.catalog.checkpoints` persists them across restarts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.constraints.constraint_set import ConstraintSet
    from repro.engine.chain import ChainHop
    from repro.schema.signature import Signature

__all__ = ["ChainCheckpoint", "CheckpointStore"]

#: Default bound on the number of recorded checkpoints before the store resets.
DEFAULT_MAX_CHECKPOINTS = 4096


@dataclass(frozen=True)
class ChainCheckpoint:
    """The complete state of a chain fold immediately after one hop.

    Attributes
    ----------
    token:
        The cumulative fingerprint naming this state (the store key).
    hops:
        Every hop record up to and including this one — the per-symbol
        elimination outcomes ride along inside each
        :class:`~repro.engine.chain.ChainHop`.  Successive checkpoints of one
        chain share the prefix records by reference, so storing a checkpoint
        per hop costs one tuple, not a deep copy.
    constraints:
        The accumulated mapping's constraint set after this hop.
    residual:
        The threaded residual symbols that survive into the next hop.
    current_output:
        The output signature of the last mapping folded in.
    """

    token: bytes
    hops: Tuple["ChainHop", ...]
    constraints: "ConstraintSet"
    residual: "Signature"
    current_output: "Signature"

    def __repr__(self) -> str:
        return (
            f"<ChainCheckpoint depth {len(self.hops)}: "
            f"{len(self.constraints)} constraints, token {self.token.hex()[:8]}>"
        )


class CheckpointStore:
    """A bounded token → :class:`ChainCheckpoint` table.

    Parameters
    ----------
    max_entries:
        Soft bound on the number of recorded checkpoints; past it the table
        is cleared wholesale (the store is a pure accelerator, so dropping
        everything is always safe and keeps eviction O(1) amortized).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_CHECKPOINTS):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: Dict[bytes, ChainCheckpoint] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, token: bytes) -> Optional[ChainCheckpoint]:
        """The checkpoint recorded for ``token``, or ``None`` (counts hit/miss).

        On an in-memory miss the store consults :meth:`_load_fallback` — a
        no-op here, overridden by persistent stores to read through to disk —
        and installs whatever it returns, so fallback loads count as hits.
        """
        checkpoint = self._entries.get(token)
        if checkpoint is None:
            checkpoint = self._load_fallback(token)
            if checkpoint is not None:
                self._entries.setdefault(token, checkpoint)
        if checkpoint is None:
            self.misses += 1
        else:
            self.hits += 1
        return checkpoint

    def put(self, checkpoint: ChainCheckpoint) -> None:
        """Record ``checkpoint`` (first write wins; entries are content-keyed)."""
        if (
            len(self._entries) >= self.max_entries
            and checkpoint.token not in self._entries
        ):
            with self._lock:
                if len(self._entries) >= self.max_entries:
                    self._entries.clear()
                    self.evictions += 1
        self._entries.setdefault(checkpoint.token, checkpoint)
        self._persist(checkpoint)

    # -- persistence hooks ---------------------------------------------------------
    #
    # The in-memory store is the whole story here; subclasses that mirror
    # checkpoints to durable storage (``repro.catalog.checkpoints``) override
    # these two methods.  Keeping the hooks on the base class means every
    # consumer — ``compose_chain``, the batch engine, the incremental
    # composer — works with a persistent store without knowing it.

    def _load_fallback(self, token: bytes) -> Optional[ChainCheckpoint]:
        """Second-level lookup consulted on an in-memory miss (``None`` here)."""
        return None

    def _persist(self, checkpoint: ChainCheckpoint) -> None:
        """Write-through hook invoked after every :meth:`put` (no-op here)."""

    def clear(self) -> None:
        """Drop every recorded checkpoint and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the store."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """A snapshot of the store counters (for benchmarks and reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }

    def __repr__(self) -> str:
        return (
            f"<CheckpointStore: {len(self._entries)} checkpoints, "
            f"{self.hits} hits / {self.misses} misses>"
        )
