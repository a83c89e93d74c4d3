"""Incremental recomposition: amortize chained composition across edits.

The paper's motivating scenario is schema evolution: after every edit a new
mapping is appended (or one near the end is rewritten) and the end-to-end
composition is recomputed.  Recomposing from scratch costs O(n²) total hops
over an n-edit sequence; with hop checkpoints it is near-linear, because each
recomposition replays only the hops at or after the first fingerprint
mismatch.

Two layers live here:

* :class:`IncrementalComposer` — a stateful engine owning one
  :class:`~repro.engine.checkpoint.CheckpointStore`, threaded through every
  :func:`~repro.engine.chain.compose_chain` call.  Give it "the previous
  chain plus a delta" — append a hop, replace a suffix, edit one mapping —
  and it reuses everything upstream of the change.  Its one configuration
  also keeps the "already simplified" and "known to fail" stamps on the
  immutable constraints valid from one edit to the next.
* :class:`EvolutionSession` — a delta-aware edit-replay session over one
  chain: mutate the chain through :meth:`append` / :meth:`edit` /
  :meth:`replace_suffix` / :meth:`pop` and read the freshly recomposed
  :class:`~repro.engine.chain.ChainResult` after each step, plus a per-edit
  event log of how many hops each recomposition actually replayed.

Everything is a pure accelerator: results are byte-identical to from-scratch
``compose_chain`` (asserted by ``tests/engine/test_incremental.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compose.config import ComposerConfig
from repro.engine.chain import ChainResult, compose_chain, validate_chain
from repro.engine.checkpoint import CheckpointStore
from repro.exceptions import EngineError
from repro.mapping.mapping import Mapping

__all__ = ["IncrementalComposer", "EvolutionSession", "SessionEvent"]


class IncrementalComposer:
    """A chained-composition engine that reuses work across related chains.

    Parameters
    ----------
    config:
        Composer configuration used for every hop (its fingerprint is part of
        every checkpoint token, so composing with a different configuration —
        or after an :class:`~repro.operators.registry.OperatorRegistry`
        rule change bumps the registry ``version`` — never reuses stale hops).
    retry_residuals:
        Residual-threading mode forwarded to :func:`compose_chain`.
    checkpoints:
        The hop-checkpoint store to use (a fresh default-bounded
        :class:`~repro.engine.checkpoint.CheckpointStore` when omitted).
    """

    def __init__(
        self,
        config: Optional[ComposerConfig] = None,
        retry_residuals: bool = True,
        checkpoints: Optional[CheckpointStore] = None,
    ):
        self.config = config or ComposerConfig()
        self.retry_residuals = retry_residuals
        # Not ``checkpoints or ...``: an empty store is falsy (``__len__``).
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointStore()

    def compose_chain(self, mappings: Sequence[Mapping]) -> ChainResult:
        """Compose ``mappings``, reusing every checkpointed prefix hop."""
        return compose_chain(
            mappings,
            self.config,
            self.retry_residuals,
            checkpoints=self.checkpoints,
        )

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Counters of the checkpoint store."""
        return {"checkpoints": self.checkpoints.stats()}

    def __repr__(self) -> str:
        return (
            f"<IncrementalComposer: {len(self.checkpoints)} checkpoints, "
            f"retry_residuals={self.retry_residuals}>"
        )


@dataclass(frozen=True)
class SessionEvent:
    """One edit applied to an :class:`EvolutionSession`, with its replay cost."""

    kind: str
    index: int
    chain_length: int
    total_hops: int
    replayed_hops: int
    reused_hops: int
    elapsed_seconds: float

    def __repr__(self) -> str:
        return (
            f"<SessionEvent {self.kind}@{self.index}: replayed "
            f"{self.replayed_hops}/{self.total_hops} hops>"
        )


class EvolutionSession:
    """An edit-replay session over one evolving chain of mappings.

    The session holds the current chain and recomposes it after every
    mutation through a (shared or private) :class:`IncrementalComposer`, so
    the cost of each edit is proportional to how much of the chain it
    invalidated — one hop for an append, the suffix for a mid-chain edit —
    rather than to the whole chain length.

    Mutations validate the edited chain up front (via
    :func:`~repro.engine.chain.validate_chain`) and leave the session
    unchanged when the delta does not splice: an appended mapping must
    consume the current output signature, a replacement must keep both of
    its neighbours' signatures.
    """

    def __init__(
        self,
        mappings: Sequence[Mapping] = (),
        composer: Optional[IncrementalComposer] = None,
        config: Optional[ComposerConfig] = None,
        retry_residuals: Optional[bool] = None,
    ):
        if composer is not None and (config is not None or retry_residuals is not None):
            raise EngineError(
                "pass either a composer or config/retry_residuals, not both "
                "(a supplied composer already carries its own settings)"
            )
        self.composer = composer or IncrementalComposer(
            config=config,
            retry_residuals=True if retry_residuals is None else retry_residuals,
        )
        self._mappings: List[Mapping] = list(mappings)
        self._result: Optional[ChainResult] = None
        self.events: List[SessionEvent] = []
        if self._mappings:
            self._recompose("init", index=0)

    # -- state -----------------------------------------------------------------

    @property
    def mappings(self) -> Tuple[Mapping, ...]:
        """The current chain, in application order."""
        return tuple(self._mappings)

    @property
    def chain_length(self) -> int:
        return len(self._mappings)

    @property
    def result(self) -> ChainResult:
        """The composition of the current chain (recomposed on every edit)."""
        if self._result is None:
            raise EngineError("the session holds no mappings yet; append one first")
        return self._result

    # -- deltas ----------------------------------------------------------------

    def append(self, mapping: Mapping) -> ChainResult:
        """Append one mapping (a new edit) and recompose; replays one hop."""
        self._apply("append", len(self._mappings), self._mappings + [mapping])
        return self.result

    def edit(self, index: int, mapping: Mapping) -> ChainResult:
        """Replace the mapping at ``index`` and recompose the affected suffix."""
        self._check_index(index)
        candidate = list(self._mappings)
        candidate[index] = mapping
        self._apply("edit", index, candidate)
        return self.result

    def replace_suffix(self, start: int, mappings: Sequence[Mapping]) -> ChainResult:
        """Replace every mapping from ``start`` on and recompose the suffix."""
        if not 0 <= start <= len(self._mappings):
            raise EngineError(
                f"suffix start {start} out of range for a chain of "
                f"{len(self._mappings)} mappings"
            )
        candidate = self._mappings[:start] + list(mappings)
        self._apply("replace_suffix", start, candidate)
        return self.result

    def pop(self) -> ChainResult:
        """Undo the last edit (drop the final mapping) and recompose."""
        if len(self._mappings) < 2:
            raise EngineError("cannot pop below a single-mapping chain")
        self._apply("pop", len(self._mappings) - 1, self._mappings[:-1])
        return self.result

    def recompose(self) -> ChainResult:
        """Recompose the current chain (a no-delta replay; fully reused)."""
        self._recompose("recompose", index=0)
        return self.result

    # -- statistics ------------------------------------------------------------

    def total_replayed_hops(self) -> int:
        """Hops actually recomputed over the whole session."""
        return sum(event.replayed_hops for event in self.events)

    def total_hops(self) -> int:
        """Hops a from-scratch recomposition after every edit would have run."""
        return sum(event.total_hops for event in self.events)

    def summary(self) -> str:
        """A short human-readable summary of the session's replay savings."""
        total = self.total_hops()
        replayed = self.total_replayed_hops()
        lines = [
            f"{len(self.events)} recompositions over a chain of "
            f"{len(self._mappings)} mappings",
            f"replayed {replayed}/{total} hops "
            f"({1.0 - replayed / total if total else 0.0:.0%} reused)",
        ]
        return "\n".join(lines)

    # -- internals -------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._mappings):
            raise EngineError(
                f"mapping index {index} out of range for a chain of "
                f"{len(self._mappings)} mappings"
            )

    def _apply(self, kind: str, index: int, candidate: List[Mapping]) -> None:
        validate_chain(candidate)
        self._mappings = candidate
        self._recompose(kind, index)

    def _recompose(self, kind: str, index: int) -> None:
        started = time.perf_counter()
        result = self.composer.compose_chain(tuple(self._mappings))
        self._result = result
        self.events.append(
            SessionEvent(
                kind=kind,
                index=index,
                chain_length=len(self._mappings),
                total_hops=len(result.hops),
                replayed_hops=result.replayed_hops,
                reused_hops=result.reused_hops,
                elapsed_seconds=time.perf_counter() - started,
            )
        )

    def __repr__(self) -> str:
        return (
            f"<EvolutionSession: {len(self._mappings)} mappings, "
            f"{len(self.events)} recompositions>"
        )
