"""Procedure ELIMINATE (paper Section 3.1).

``eliminate`` tries to remove one relation symbol from a constraint set by
running, in order, view unfolding, left compose and right compose, and returns
the first success.  The paper's blow-up guard is applied to each candidate:
if a step's output exceeds the configured multiple of the baseline size, the
candidate is rejected and the step is counted as failed.

Inapplicable steps are skipped up front via the constraint set's mention
index: a symbol absent from the set drops for free, view unfolding requires an
*equality* mentioning the symbol (a defining equality necessarily is one), and
a constraint mentioning the symbol on both sides defeats left and right
compose before any normalization runs — each skip records the same failure
reason the full attempt would have produced, so outcomes are unchanged.  The
positions of the mentioning constraints are looked up once per step and
shared by these checks and by view unfolding.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.compose.config import ComposerConfig
from repro.compose.left_compose import left_compose
from repro.compose.phases import timed
from repro.compose.result import EliminationMethod, EliminationOutcome
from repro.compose.right_compose import right_compose
from repro.compose.view_unfolding import unfold_view
from repro.constraints.constraint import EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet

__all__ = ["eliminate"]


def _within_blowup(
    candidate: ConstraintSet, baseline_operator_count: int, config: ComposerConfig
) -> bool:
    """Check the paper's output-to-input size guard (factor 100 by default)."""
    if config.max_blowup_factor <= 0:
        return True
    baseline = max(baseline_operator_count, 1)
    return candidate.operator_count() <= config.max_blowup_factor * baseline


def eliminate(
    constraints: ConstraintSet,
    symbol: str,
    symbol_arity: int,
    config: Optional[ComposerConfig] = None,
    baseline_operator_count: Optional[int] = None,
) -> Tuple[ConstraintSet, EliminationOutcome]:
    """Try to eliminate ``symbol`` from ``constraints``.

    Returns ``(new_constraints, outcome)``.  On failure the constraints are
    returned unchanged and the outcome explains which steps were attempted.
    The outcome's ``duration_seconds`` is the wall-clock time of this call,
    the one clock COMPOSE reads per symbol.
    """
    started = time.perf_counter()
    config = config or ComposerConfig()
    registry = config.registry
    baseline = (
        baseline_operator_count
        if baseline_operator_count is not None
        else constraints.operator_count()
    )
    reasons = []
    blowup_aborted = False

    def finish(result: ConstraintSet, method: EliminationMethod) -> Tuple[ConstraintSet, EliminationOutcome]:
        duration = time.perf_counter() - started
        outcome = EliminationOutcome(
            symbol=symbol,
            success=True,
            method=method,
            duration_seconds=duration,
            failure_reasons=tuple(reasons),
        )
        return result, outcome

    positions = constraints.indices_mentioning(symbol)
    if not positions:
        # Nothing mentions the symbol: dropping it from the signature is free.
        return finish(constraints, EliminationMethod.NOT_MENTIONED)

    # Step 1: view unfolding.  A defining equality is necessarily an equality
    # mentioning the symbol, so without one the step cannot apply; the skip
    # appends the exact reason the full attempt would have produced, keeping
    # outcomes byte-identical to the unshortened path.
    if config.enable_view_unfolding:
        if not any(isinstance(constraints[p], EqualityConstraint) for p in positions):
            reasons.append("no defining equality for view unfolding")
        else:
            with timed("view_unfolding"):
                candidate = unfold_view(constraints, symbol, positions)
            if candidate is not None:
                if _within_blowup(candidate, baseline, config):
                    return finish(candidate, EliminationMethod.VIEW_UNFOLDING)
                blowup_aborted = True
                reasons.append("view unfolding exceeded the blow-up bound")
            else:
                reasons.append("no defining equality for view unfolding")
    else:
        reasons.append("view unfolding disabled")

    # View unfolding did not eliminate the symbol.  A constraint mentioning
    # it on both sides makes left and right compose exit in their step 0, so
    # both are skipped with the reasons they would have recorded.
    mentions_both_sides = any(
        constraints[p].mentions_on_left(symbol) and constraints[p].mentions_on_right(symbol)
        for p in positions
    )

    # Step 2: left compose.
    if config.enable_left_compose:
        if mentions_both_sides:
            reasons.append("left compose failed")
        else:
            with timed("left_compose"):
                candidate = left_compose(
                    constraints, symbol, symbol_arity, registry, config.max_normalization_steps
                )
            if candidate is not None:
                if _within_blowup(candidate, baseline, config):
                    return finish(candidate, EliminationMethod.LEFT_COMPOSE)
                blowup_aborted = True
                reasons.append("left compose exceeded the blow-up bound")
            else:
                reasons.append("left compose failed")
    else:
        reasons.append("left compose disabled")

    # Step 3: right compose.
    if config.enable_right_compose:
        if mentions_both_sides:
            reasons.append("right compose failed")
        else:
            with timed("right_compose"):
                candidate = right_compose(
                    constraints, symbol, symbol_arity, registry, config.max_normalization_steps
                )
            if candidate is not None:
                if _within_blowup(candidate, baseline, config):
                    return finish(candidate, EliminationMethod.RIGHT_COMPOSE)
                blowup_aborted = True
                reasons.append("right compose exceeded the blow-up bound")
            else:
                reasons.append("right compose failed")
    else:
        reasons.append("right compose disabled")

    duration = time.perf_counter() - started
    outcome = EliminationOutcome(
        symbol=symbol,
        success=False,
        method=EliminationMethod.FAILED,
        duration_seconds=duration,
        failure_reasons=tuple(reasons),
        blowup_aborted=blowup_aborted,
    )
    return constraints, outcome
