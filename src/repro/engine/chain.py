"""n-ary chained composition: fold a list of mappings through COMPOSE.

A schema that evolves through versions ``σ1 → σ2 → … → σn`` yields a chain of
mappings ``m12, m23, …, m(n-1)(n)``; the mapping from the first version to the
last is the composition ``m12 ∘ m23 ∘ … ∘ m(n-1)(n)``.  Because COMPOSE is
best-effort, every hop may leave residual intermediate symbols behind;
:func:`compose_chain` threads those residuals forward — by default it keeps
retrying them as part of the next hop's intermediate signature, exactly as the
paper's schema-editing scenario retries leftovers after every edit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.checkpoint import CheckpointStore

from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.compose.result import CompositionResult
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import EngineError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.schema.signature import Signature

__all__ = ["ChainHop", "ChainResult", "compose_chain", "validate_chain"]


@dataclass(frozen=True)
class ChainHop:
    """The outcome of folding one more mapping into the running composition.

    Attributes
    ----------
    index:
        0-based hop number; hop ``i`` composes the accumulated mapping with
        ``mappings[i + 1]`` of the chain.
    result:
        The full :class:`CompositionResult` of this hop, including per-symbol
        elimination outcomes.
    attempted_symbols / eliminated_symbols / residual_symbols:
        The intermediate symbols this hop tried to eliminate, the ones it
        removed, and the ones that survive into the next hop.
    elapsed_seconds:
        Wall-clock time of the hop: problem assembly plus composition.
    assembly_seconds:
        The share of ``elapsed_seconds`` spent assembling the hop's
        :class:`CompositionProblem` (signature unions, constraint-set
        validation) before COMPOSE ran; ``elapsed_seconds -
        assembly_seconds`` is the composition proper, and
        ``result.phase_seconds`` breaks that down further.
    """

    index: int
    result: CompositionResult
    attempted_symbols: Tuple[str, ...]
    eliminated_symbols: Tuple[str, ...]
    residual_symbols: Tuple[str, ...]
    elapsed_seconds: float
    assembly_seconds: float = 0.0

    @property
    def is_complete(self) -> bool:
        """``True`` iff the hop eliminated every symbol it attempted."""
        return not self.residual_symbols

    @property
    def compose_seconds(self) -> float:
        """Wall-clock time of the composition alone (assembly excluded)."""
        return self.elapsed_seconds - self.assembly_seconds

    @property
    def phase_seconds(self) -> Tuple[Tuple[str, float], ...]:
        """The composition's per-phase buckets (see :mod:`repro.compose.phases`)."""
        return self.result.phase_seconds

    def __repr__(self) -> str:
        return (
            f"<ChainHop #{self.index}: {len(self.eliminated_symbols)}/"
            f"{len(self.attempted_symbols)} eliminated>"
        )


@dataclass(frozen=True)
class ChainResult:
    """The outcome of composing a whole chain of mappings.

    Attributes
    ----------
    sigma_first / sigma_last:
        The outermost signatures of the chain.
    residual_signature:
        The intermediate symbols that survived every elimination attempt
        (empty for a perfect composition).
    constraints:
        The final constraint set over ``σ_first ∪ residual ∪ σ_last``.
    hops:
        Per-hop records, in composition order (``len(mappings) - 1`` entries).
    elapsed_seconds:
        Total wall-clock time of the chained composition.
    reused_hops:
        Number of leading hops restored from a checkpoint store instead of
        being recomputed (0 without a store; their :class:`ChainHop` records —
        including timings — are the originals).
    """

    sigma_first: Signature
    sigma_last: Signature
    residual_signature: Signature
    constraints: ConstraintSet
    hops: Tuple[ChainHop, ...]
    elapsed_seconds: float
    reused_hops: int = 0

    # -- derived statistics --------------------------------------------------------

    @property
    def replayed_hops(self) -> int:
        """Number of hops actually recomputed by this call."""
        return len(self.hops) - self.reused_hops

    @property
    def is_complete(self) -> bool:
        """``True`` iff no intermediate symbol survived the whole chain."""
        return len(self.residual_signature) == 0

    @property
    def residual_symbols(self) -> Tuple[str, ...]:
        """Names of the surviving intermediate symbols."""
        return self.residual_signature.names()

    @property
    def chain_length(self) -> int:
        """Number of mappings in the composed chain."""
        return len(self.hops) + 1

    @property
    def fraction_eliminated(self) -> float:
        """Fraction of distinct intermediate symbols eliminated over the chain.

        A symbol retried over several hops counts once; it is eliminated iff
        it does not survive into the final result.
        """
        attempted = set()
        for hop in self.hops:
            attempted.update(hop.attempted_symbols)
        if not attempted:
            return 1.0
        return 1.0 - len(set(self.residual_symbols)) / len(attempted)

    def to_mapping(self) -> Mapping:
        """The composed mapping ``σ_first → σ_last`` (complete chains only)."""
        if not self.is_complete:
            raise EngineError(
                "chained composition is partial; residual symbols "
                f"{self.residual_symbols} survive (use to_mapping_with_residue)"
            )
        return Mapping(self.sigma_first, self.sigma_last, self.constraints)

    def to_mapping_with_residue(self) -> Mapping:
        """The result as a mapping from ``σ_first ∪ residual`` to ``σ_last``."""
        return Mapping(
            self.sigma_first.union(self.residual_signature),
            self.sigma_last,
            self.constraints,
        )

    def summary(self) -> str:
        """A short human-readable summary of the chained composition."""
        eliminated = sum(len(hop.eliminated_symbols) for hop in self.hops)
        attempted = len({s for hop in self.hops for s in hop.attempted_symbols})
        lines = [
            f"chain of {self.chain_length} mappings composed in "
            f"{self.elapsed_seconds * 1000:.1f} ms",
            f"eliminated {eliminated} symbol instances "
            f"({attempted} distinct attempted, {self.fraction_eliminated:.0%} gone)",
            f"constraints: {len(self.constraints)}, "
            f"operators: {self.constraints.operator_count()}",
        ]
        if not self.is_complete:
            lines.append("residual symbols: " + ", ".join(self.residual_symbols))
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "complete" if self.is_complete else f"{len(self.residual_signature)} residual"
        return f"<ChainResult: {self.chain_length} mappings, {status}>"


def validate_chain(mappings: Sequence[Mapping]) -> None:
    """Check that the mappings form a composable chain.

    Adjacent mappings must share their middle signature exactly, and no
    relation name may recur in non-adjacent signatures (the composition
    problems built along the fold require pairwise-disjoint signatures).
    """
    if not mappings:
        raise EngineError("cannot compose an empty chain of mappings")
    for index in range(len(mappings) - 1):
        if mappings[index].output_signature != mappings[index + 1].input_signature:
            raise EngineError(
                f"chain breaks between hops {index} and {index + 1}: the output "
                "signature of one mapping must equal the input signature of the next"
            )
    seen = {}
    signatures = [mappings[0].input_signature] + [m.output_signature for m in mappings]
    for position, signature in enumerate(signatures):
        for name in signature.names():
            if name in seen and seen[name] != position - 1:
                raise EngineError(
                    f"relation {name!r} appears in non-adjacent chain signatures "
                    f"({seen[name]} and {position}); chained composition requires "
                    "globally distinct intermediate names"
                )
            seen[name] = position


def compose_chain(
    mappings: Sequence[Mapping],
    config: Optional[ComposerConfig] = None,
    retry_residuals: bool = True,
    checkpoints: Optional["CheckpointStore"] = None,
) -> ChainResult:
    """Compose ``m12 ∘ m23 ∘ … ∘ m(n-1)(n)`` by folding through :func:`compose`.

    Parameters
    ----------
    mappings:
        The chain, in application order; mapping ``i``'s output signature must
        equal mapping ``i + 1``'s input signature.
    config:
        Composer configuration used for every hop.
    retry_residuals:
        When ``True`` (the default), symbols a hop failed to eliminate are put
        back into the intermediate signature of every later hop, giving the
        algorithm more chances as the surrounding constraints change.  When
        ``False``, residuals are frozen into the input signature immediately.
    checkpoints:
        Optional :class:`~repro.engine.checkpoint.CheckpointStore`.  When
        given, the fold records a checkpoint after every hop, keyed by the
        cumulative content fingerprint of the consumed prefix
        (:mod:`repro.engine.fingerprint`), and a later call whose fingerprint
        chain matches a recorded prefix resumes after it, replaying only the
        hops at or after the first mismatch.  Reuse is sound because
        residuals only flow forward: a hop's state is a deterministic
        function of the config and the mappings up to it, which is exactly
        what the token names.  Outputs are byte-identical with the store
        hot, cold, or absent; ``ChainResult.reused_hops`` reports the savings.

    Returns the :class:`ChainResult`; a single-mapping chain returns a trivial
    result with zero hops.
    """
    validate_chain(mappings)
    config = config or ComposerConfig()
    started = time.perf_counter()

    first = mappings[0]
    sigma1 = first.input_signature
    residual = Signature()
    current_output = first.output_signature
    constraints = first.constraints
    hops: List[ChainHop] = []

    tokens: Optional[List[bytes]] = None
    reused = 0
    if checkpoints is not None and len(mappings) > 1:
        from repro.engine.fingerprint import chain_tokens

        tokens = chain_tokens(mappings, config, retry_residuals)
        # Deepest matching prefix wins; every shallower checkpoint of the
        # same chain is subsumed by it.
        for hop_index in range(len(tokens) - 1, -1, -1):
            checkpoint = checkpoints.get(tokens[hop_index])
            if checkpoint is not None:
                hops = list(checkpoint.hops)
                constraints = checkpoint.constraints
                residual = checkpoint.residual
                current_output = checkpoint.current_output
                reused = hop_index + 1
                break

    for index in range(reused, len(mappings) - 1):
        next_mapping = mappings[index + 1]
        hop_started = time.perf_counter()
        if retry_residuals:
            sigma2 = current_output.union(residual)
            problem_sigma1 = sigma1
        else:
            sigma2 = current_output
            problem_sigma1 = sigma1.union(residual)
        problem = CompositionProblem(
            sigma1=problem_sigma1,
            sigma2=sigma2,
            sigma3=next_mapping.output_signature,
            sigma12=constraints,
            sigma23=next_mapping.constraints,
            name=f"chain hop {index}",
        )
        assembly_seconds = time.perf_counter() - hop_started
        result = compose(problem, config)
        residual = result.residual_sigma2 if retry_residuals else residual.union(
            result.residual_sigma2
        )
        current_output = next_mapping.output_signature
        constraints = result.constraints
        hops.append(
            ChainHop(
                index=index,
                result=result,
                attempted_symbols=result.attempted_symbols,
                eliminated_symbols=result.eliminated_symbols,
                residual_symbols=result.remaining_symbols,
                elapsed_seconds=time.perf_counter() - hop_started,
                assembly_seconds=assembly_seconds,
            )
        )
        if tokens is not None:
            from repro.engine.checkpoint import ChainCheckpoint

            checkpoints.put(
                ChainCheckpoint(
                    token=tokens[index],
                    hops=tuple(hops),
                    constraints=constraints,
                    residual=residual,
                    current_output=current_output,
                )
            )

    return ChainResult(
        sigma_first=sigma1,
        sigma_last=current_output,
        residual_signature=residual,
        constraints=constraints,
        hops=tuple(hops),
        elapsed_seconds=time.perf_counter() - started,
        reused_hops=reused,
    )
