"""Procedure COMPOSE — the public entry point of the composition algorithm.

``compose`` takes a :class:`~repro.mapping.composition_problem.CompositionProblem`
(or two mappings) and tries to eliminate every σ2 symbol from Σ12 ∪ Σ23,
one at a time, in the configured order.  The algorithm is best-effort: symbols
that cannot be eliminated simply survive into the output, which is then a
constraint set over σ1 ∪ σ2' ∪ σ3 for some σ2' ⊆ σ2 (paper Section 3.1).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.algebra.simplify import simplify_constraint_set
from repro.compose.config import ComposerConfig
from repro.compose.eliminate import eliminate
from repro.compose.phases import charge, collect_phases, timed
from repro.compose.result import CompositionResult, EliminationOutcome
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import CompositionError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping

__all__ = ["compose", "compose_mappings"]


def compose(
    problem: CompositionProblem,
    config: Optional[ComposerConfig] = None,
) -> CompositionResult:
    """Run COMPOSE on a composition problem and return the detailed result.

    With ``config.elimination_order == "cost"`` the composition is routed
    through the cost-guided planner (:mod:`repro.compose.planner`):
    independent connected components of the symbol co-occurrence graph are
    composed separately, cheapest eliminations first, with failed symbols
    re-queued after the cheaper ones.
    """
    config = config or ComposerConfig()
    if config.elimination_order == "cost":
        from repro.compose.planner import plan_compose

        return plan_compose(problem, config)
    started = time.perf_counter()

    constraints: ConstraintSet = problem.all_constraints
    input_operator_count = constraints.operator_count()

    symbol_order = list(config.symbol_order) if config.symbol_order else list(
        problem.sigma2.names()
    )
    unknown = [name for name in symbol_order if name not in problem.sigma2]
    if unknown:
        raise CompositionError(
            f"symbol_order mentions relations that are not in σ2: {unknown}"
        )
    # Symbols omitted from an explicit order are appended in signature order,
    # so every σ2 symbol is attempted exactly once.
    for name in problem.sigma2.names():
        if name not in symbol_order:
            symbol_order.append(name)

    outcomes: List[EliminationOutcome] = []
    eliminated: List[str] = []
    with collect_phases() as phase_buckets:
        for symbol in symbol_order:
            constraints, outcome = eliminate(
                constraints,
                symbol,
                problem.sigma2.arity_of(symbol),
                config,
                baseline_operator_count=input_operator_count,
            )
            # ELIMINATE's own clock is the per-symbol time: it is recorded on
            # the outcome and feeds the "eliminate" phase bucket.
            charge("eliminate", outcome.duration_seconds)
            outcomes.append(outcome)
            if outcome.success:
                eliminated.append(symbol)

        if config.simplify_output:
            with timed("simplify"):
                constraints = simplify_constraint_set(constraints, config.registry)

    elapsed = time.perf_counter() - started
    residual = problem.sigma2.removing(*eliminated) if eliminated else problem.sigma2
    return CompositionResult(
        sigma1=problem.sigma1,
        sigma3=problem.sigma3,
        residual_sigma2=residual,
        constraints=constraints,
        outcomes=tuple(outcomes),
        elapsed_seconds=elapsed,
        input_operator_count=input_operator_count,
        output_operator_count=constraints.operator_count(),
        phase_seconds=tuple(sorted(phase_buckets.items())),
    )


def compose_mappings(
    m12: Mapping, m23: Mapping, config: Optional[ComposerConfig] = None
) -> CompositionResult:
    """Compose two mappings ``m12 : σ1→σ2`` and ``m23 : σ2→σ3``.

    Convenience wrapper that builds the :class:`CompositionProblem` and runs
    :func:`compose` on it.
    """
    problem = CompositionProblem.from_mappings(m12, m23)
    return compose(problem, config)
