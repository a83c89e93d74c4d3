"""Result objects returned by ELIMINATE and COMPOSE.

The algorithm is best-effort, so results carry detailed per-symbol outcomes
(which step succeeded, why the others failed, how long it took) — exactly the
information the paper's experimental study aggregates into its figures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import CompositionError
from repro.mapping.mapping import Mapping
from repro.schema.signature import Signature

__all__ = ["EliminationMethod", "EliminationOutcome", "CompositionResult"]


class EliminationMethod(enum.Enum):
    """Which step of ELIMINATE succeeded for a symbol."""

    VIEW_UNFOLDING = "view_unfolding"
    LEFT_COMPOSE = "left_compose"
    RIGHT_COMPOSE = "right_compose"
    NOT_MENTIONED = "not_mentioned"
    FAILED = "failed"


@dataclass(frozen=True)
class EliminationOutcome:
    """The outcome of attempting to eliminate a single σ2 symbol."""

    symbol: str
    success: bool
    method: EliminationMethod
    duration_seconds: float = 0.0
    failure_reasons: Tuple[str, ...] = ()
    blowup_aborted: bool = False

    @property
    def elapsed_seconds(self) -> float:
        """Per-symbol elapsed time (alias of ``duration_seconds``).

        The wall-clock time :func:`repro.compose.eliminate.eliminate` spent
        on the symbol, measured by its own clock.  Inside
        :func:`repro.compose.composer.compose` and the planner, the same
        number is charged to the ``eliminate`` phase bucket.
        """
        return self.duration_seconds

    def __repr__(self) -> str:
        status = "eliminated" if self.success else "kept"
        return f"<EliminationOutcome {self.symbol}: {status} via {self.method.value}>"


@dataclass(frozen=True)
class CompositionResult:
    """The output of COMPOSE: the surviving constraints plus bookkeeping.

    Attributes
    ----------
    sigma1, sigma3:
        The outer signatures of the composition problem.
    residual_sigma2:
        The σ2 symbols that could *not* be eliminated (possibly empty).
    constraints:
        The output constraint set over σ1 ∪ residual σ2 ∪ σ3.
    outcomes:
        Per-symbol elimination outcomes, in the order the symbols were tried.
    elapsed_seconds:
        Wall-clock time of the whole composition.
    input_operator_count / output_operator_count:
        The paper's size metric before and after.
    phase_seconds:
        Per-phase wall-clock buckets as sorted ``(name, seconds)`` pairs (see
        :mod:`repro.compose.phases`; ``phase_breakdown()`` returns them as a
        dict).  Buckets nest rather than partition: ``eliminate`` covers each
        whole per-symbol attempt, ``left_compose``/``right_compose``/
        ``view_unfolding`` are inside it, and ``normalize``/``deskolemize``
        are inside the compose steps; ``simplify`` is the final pass.
    plan:
        The cost-guided planner's per-component elimination orders (one tuple
        of σ2 symbols per connected component of the symbol co-occurrence
        graph, in the order the first pass attempted them).  Empty for
        fixed-order compositions.
    components:
        Number of independent components the planner composed (0 for
        fixed-order compositions).
    reorderings:
        Number of retry attempts the planner's bounded backtracking made —
        elimination attempts beyond each symbol's first (0 when every symbol
        settled in one pass, and for fixed-order compositions).
    """

    sigma1: Signature
    sigma3: Signature
    residual_sigma2: Signature
    constraints: ConstraintSet
    outcomes: Tuple[EliminationOutcome, ...]
    elapsed_seconds: float
    input_operator_count: int
    output_operator_count: int
    phase_seconds: Tuple[Tuple[str, float], ...] = ()
    plan: Tuple[Tuple[str, ...], ...] = ()
    components: int = 0
    reorderings: int = 0

    # -- derived statistics --------------------------------------------------------

    @property
    def attempted_symbols(self) -> Tuple[str, ...]:
        """All σ2 symbols the algorithm attempted, in order."""
        return tuple(outcome.symbol for outcome in self.outcomes)

    @property
    def eliminated_symbols(self) -> Tuple[str, ...]:
        """The σ2 symbols successfully eliminated."""
        return tuple(outcome.symbol for outcome in self.outcomes if outcome.success)

    @property
    def remaining_symbols(self) -> Tuple[str, ...]:
        """The σ2 symbols that survive in the output."""
        return tuple(outcome.symbol for outcome in self.outcomes if not outcome.success)

    @property
    def is_complete(self) -> bool:
        """``True`` iff every σ2 symbol was eliminated (a "perfect" composition)."""
        return not self.remaining_symbols

    @property
    def fraction_eliminated(self) -> float:
        """Fraction of σ2 symbols eliminated (1.0 when σ2 is empty)."""
        if not self.outcomes:
            return 1.0
        return len(self.eliminated_symbols) / len(self.outcomes)

    @property
    def elimination_seconds(self) -> float:
        """Total time spent in per-symbol elimination (sum of outcome timings).

        Always at most :attr:`elapsed_seconds`; the difference is the final
        simplification pass and bookkeeping.
        """
        return sum(outcome.duration_seconds for outcome in self.outcomes)

    def phase_breakdown(self) -> Dict[str, float]:
        """The per-phase wall-clock buckets as a ``{name: seconds}`` dict."""
        return dict(self.phase_seconds)

    @property
    def output_signature(self) -> Signature:
        """σ1 ∪ residual σ2 ∪ σ3 — the signature the output constraints range over."""
        return self.sigma1.union(self.residual_sigma2).union(self.sigma3)

    def outcome_for(self, symbol: str) -> EliminationOutcome:
        """Return the outcome recorded for ``symbol``."""
        for outcome in self.outcomes:
            if outcome.symbol == symbol:
                return outcome
        raise CompositionError(f"no elimination was attempted for symbol {symbol!r}")

    def methods_used(self) -> Dict[EliminationMethod, int]:
        """Histogram of which step of ELIMINATE succeeded, over eliminated symbols."""
        histogram: Dict[EliminationMethod, int] = {}
        for outcome in self.outcomes:
            if outcome.success:
                histogram[outcome.method] = histogram.get(outcome.method, 0) + 1
        return histogram

    def blowup_ratio(self) -> float:
        """Output-to-input size ratio (operator counts)."""
        if self.input_operator_count == 0:
            return float(self.output_operator_count > 0)
        return self.output_operator_count / self.input_operator_count

    def to_mapping(self) -> Mapping:
        """Return the composed mapping as a :class:`Mapping` from σ1 to σ3.

        Only available for *complete* compositions; partial results keep σ2
        symbols and therefore do not form a σ1→σ3 mapping.  Use
        :meth:`to_mapping_with_residue` for the general case.
        """
        if not self.is_complete:
            raise CompositionError(
                "composition is partial; the result still mentions σ2 symbols "
                f"{self.remaining_symbols} (use to_mapping_with_residue instead)"
            )
        return Mapping(self.sigma1, self.sigma3, self.constraints)

    def to_mapping_with_residue(self) -> Mapping:
        """Return the result as a mapping from σ1 ∪ residual σ2 to σ3.

        The surviving σ2 symbols are treated as part of the input signature —
        the paper's suggestion that non-eliminated symbols "may need to be
        populated as intermediate relations that will be discarded at the end".
        """
        return Mapping(self.sigma1.union(self.residual_sigma2), self.sigma3, self.constraints)

    def summary(self) -> str:
        """A short human-readable summary (used by the examples and benchmarks)."""
        lines = [
            f"eliminated {len(self.eliminated_symbols)}/{len(self.outcomes)} intermediate symbols "
            f"({self.fraction_eliminated:.0%}) in {self.elapsed_seconds * 1000:.1f} ms",
            f"constraints: {len(self.constraints)}, operators: {self.output_operator_count} "
            f"(input {self.input_operator_count})",
        ]
        if self.remaining_symbols:
            lines.append("kept symbols: " + ", ".join(self.remaining_symbols))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<CompositionResult: {len(self.eliminated_symbols)}/{len(self.outcomes)} eliminated, "
            f"{len(self.constraints)} constraints>"
        )
