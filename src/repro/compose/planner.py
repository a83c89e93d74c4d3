"""Cost-guided elimination planning for COMPOSE.

The paper's COMPOSE is best-effort and order-sensitive: which σ2 symbol is
attempted first decides both how often the blow-up guard fires and how large
the intermediate constraint sets grow, yet the fixed-order composer walks one
configured order over the entire Σ12 ∪ Σ23 set.  The planner exploits the
structure the constraint-set mention index already caches:

1. **Partitioning.**  Two σ2 symbols *interact* only if some constraint
   mentions both — elimination reads and rewrites exclusively constraints
   mentioning the symbol, and the substituted bounds are built from those same
   constraints, so the connected components of the symbol co-occurrence graph
   are independent sub-problems.  Each component is composed on its own small
   constraint set: every per-symbol scan, split and rebuild touches component-
   sized state instead of the whole problem, and the blow-up guard's baseline
   shrinks from whole-problem size to component size (a blow-up localized to
   one component can no longer hide under the weight of the others).

2. **Cost-ordered elimination.**  Inside a component, symbols are attempted
   cheapest-first under a cost model read entirely from cached summaries: a
   defining equality (view unfolding will hit) ranks first, a constraint
   mentioning the symbol on both sides (left/right compose are dead on
   arrival) ranks last, and ties break on mention count, then the total
   operator count of the mentioning constraints, then σ2 order.

3. **Bounded backtracking.**  A failed symbol is re-queued after the cheaper
   ones instead of being given up in one pass: as long as some elimination
   succeeded (the constraint set changed), the failures are re-ranked against
   the rewritten set and retried, up to :data:`MAX_ELIMINATION_PASSES` passes.
   Each retry is another chance exactly like the best-effort retries
   ``compose_chain`` performs across hops — but within one composition.

Every transformation is one of ELIMINATE's own sound rewrites, so the planned
output is semantically equivalent to the fixed-order output (the equivalence
suites assert this on satisfying instances); it is not byte-identical, because
order, guard baselines and retries legitimately differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.simplify import simplify_constraint_set
from repro.compose.config import ComposerConfig
from repro.compose.eliminate import eliminate
from repro.compose.phases import charge, collect_phases, timed
from repro.compose.result import CompositionResult, EliminationMethod, EliminationOutcome
from repro.constraints.constraint import Constraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.mapping.composition_problem import CompositionProblem

__all__ = [
    "MAX_ELIMINATION_PASSES",
    "PlannedComponent",
    "CompositionPlan",
    "ComponentResult",
    "build_plan",
    "symbol_cost",
    "order_symbols",
    "compose_component",
    "plan_compose",
]

#: Upper bound on elimination passes per component.  The loop already stops at
#: the first pass that eliminates nothing (retrying against an unchanged set
#: cannot succeed), so this is a safety net, not the usual exit.
MAX_ELIMINATION_PASSES = 8


@dataclass(frozen=True)
class PlannedComponent:
    """One connected component of the symbol co-occurrence graph.

    ``symbols`` are the component's σ2 symbols in signature order (the cost
    order is computed against the live constraint set at composition time);
    ``constraint_indices`` locate the component's constraints in the problem's
    combined set; ``operator_count`` is the component's blow-up baseline.
    """

    symbols: Tuple[str, ...]
    constraint_indices: Tuple[int, ...]
    operator_count: int

    def __repr__(self) -> str:
        return (
            f"<PlannedComponent {len(self.symbols)} symbols, "
            f"{len(self.constraint_indices)} constraints>"
        )


@dataclass(frozen=True)
class CompositionPlan:
    """The decomposition of one composition problem.

    ``free_symbols`` are σ2 symbols mentioned by no constraint (dropped for
    free, no component needed); ``untouched_indices`` locate the constraints
    that mention no σ2 symbol — no elimination can rewrite them, so they are
    carried into the output verbatim.
    """

    components: Tuple[PlannedComponent, ...]
    free_symbols: Tuple[str, ...]
    untouched_indices: Tuple[int, ...]

    def __repr__(self) -> str:
        return (
            f"<CompositionPlan {len(self.components)} components, "
            f"{len(self.free_symbols)} free symbols>"
        )


@dataclass(frozen=True)
class ComponentResult:
    """The outcome of composing one component.

    ``outcomes`` holds each symbol's *final* outcome (retries overwrite), in
    first-attempt order; ``order`` is the first pass's cost order (recorded on
    ``CompositionResult.plan``); ``reorderings`` counts retry attempts beyond
    each symbol's first.
    """

    constraints: ConstraintSet
    outcomes: Tuple[EliminationOutcome, ...]
    order: Tuple[str, ...]
    reorderings: int


def build_plan(constraints: ConstraintSet, symbols: Sequence[str]) -> CompositionPlan:
    """Partition ``symbols`` (and the constraints) into independent components.

    Union-find over the σ2 symbols, driven by one pass over the per-constraint
    cached relation-name sets: every constraint merges the symbols it
    mentions.  Deterministic: components are ordered by their earliest symbol
    in ``symbols`` order, symbols within a component keep ``symbols`` order,
    and constraint indices keep set order.
    """
    symbols = tuple(symbols)
    symbol_set = frozenset(symbols)
    parent: Dict[str, str] = {symbol: symbol for symbol in symbols}

    def find(symbol: str) -> str:
        root = symbol
        while parent[root] != root:
            root = parent[root]
        while parent[symbol] != root:  # path compression
            parent[symbol], symbol = root, parent[symbol]
        return root

    # One representative mentioned symbol per constraint (None = untouched).
    representatives: List[Optional[str]] = []
    for constraint in constraints:
        mentioned = [name for name in constraint.relation_names() if name in symbol_set]
        representatives.append(mentioned[0] if mentioned else None)
        for other in mentioned[1:]:
            root_a, root_b = find(mentioned[0]), find(other)
            if root_a != root_b:
                parent[root_b] = root_a

    position = {symbol: index for index, symbol in enumerate(symbols)}
    mentioned_anywhere = constraints.relation_names()
    group_symbols: Dict[str, List[str]] = {}
    free: List[str] = []
    for symbol in symbols:
        if symbol in mentioned_anywhere:
            group_symbols.setdefault(find(symbol), []).append(symbol)
        else:
            free.append(symbol)

    group_indices: Dict[str, List[int]] = {root: [] for root in group_symbols}
    untouched: List[int] = []
    for index, representative in enumerate(representatives):
        if representative is None:
            untouched.append(index)
        else:
            group_indices[find(representative)].append(index)

    components = []
    for root in sorted(
        group_symbols, key=lambda r: min(position[s] for s in group_symbols[r])
    ):
        indices = tuple(group_indices[root])
        components.append(
            PlannedComponent(
                symbols=tuple(sorted(group_symbols[root], key=position.__getitem__)),
                constraint_indices=indices,
                operator_count=sum(
                    constraints[index].operator_count() for index in indices
                ),
            )
        )
    return CompositionPlan(
        components=tuple(components),
        free_symbols=tuple(free),
        untouched_indices=tuple(untouched),
    )


def symbol_cost(constraints: ConstraintSet, symbol: str) -> Tuple[int, int, int]:
    """Estimated elimination cost of ``symbol`` against ``constraints``.

    Read entirely from cached summaries and the mention index — no tree walk.
    Returns ``(tier, mention_count, operator_count)``: tier 0 when a defining
    equality exists (view unfolding will hit, the cheapest outcome), tier 2
    when some constraint mentions the symbol on both sides (left and right
    compose fail their step 0, so only unfolding could save it — attempt
    last, after the cheaper eliminations have reshaped the set), tier 1
    otherwise; the remaining fields approximate the rewrite volume.
    """
    indices = constraints.indices_mentioning(symbol)
    operators = 0
    has_definition = False
    both_sides = False
    for index in indices:
        constraint = constraints[index]
        operators += constraint.operator_count()
        if (
            not has_definition
            and isinstance(constraint, EqualityConstraint)
            and constraint.definition_of(symbol) is not None
        ):
            has_definition = True
        if (
            not both_sides
            and constraint.mentions_on_left(symbol)
            and constraint.mentions_on_right(symbol)
        ):
            both_sides = True
    tier = 0 if has_definition else (2 if both_sides else 1)
    return (tier, len(indices), operators)


def order_symbols(
    constraints: ConstraintSet, symbols: Sequence[str]
) -> Tuple[str, ...]:
    """Sort ``symbols`` cheapest-first by :func:`symbol_cost` (ties: given order)."""
    return tuple(
        symbol
        for _, _, symbol in sorted(
            (symbol_cost(constraints, symbol), index, symbol)
            for index, symbol in enumerate(symbols)
        )
    )


def compose_component(
    constraints: ConstraintSet,
    symbols: Sequence[str],
    arities: Sequence[int],
    config: ComposerConfig,
) -> ComponentResult:
    """Eliminate ``symbols`` from a component's constraint set, cost-first.

    The blow-up baseline is the *component's* input operator count.  Failed
    symbols are re-queued: after every pass that made progress, the remaining
    failures are re-ranked against the rewritten set and retried (the
    surrounding constraints changed, so a previously dead elimination may now
    go through), up to :data:`MAX_ELIMINATION_PASSES` passes.
    """
    arity_of = dict(zip(symbols, arities))
    baseline = constraints.operator_count()
    final: Dict[str, EliminationOutcome] = {}
    first_order: List[str] = []
    remaining: List[str] = list(symbols)
    reorderings = 0
    passes = 0
    while remaining and passes < MAX_ELIMINATION_PASSES:
        passes += 1
        failed: List[str] = []
        progress = False
        for symbol in order_symbols(constraints, remaining):
            constraints, outcome = eliminate(
                constraints,
                symbol,
                arity_of[symbol],
                config,
                baseline_operator_count=baseline,
            )
            charge("eliminate", outcome.duration_seconds)
            if symbol in final:
                reorderings += 1
            else:
                first_order.append(symbol)
            final[symbol] = outcome
            if outcome.success:
                progress = True
            else:
                failed.append(symbol)
        if not progress:
            break
        remaining = failed
    return ComponentResult(
        constraints=constraints,
        outcomes=tuple(final[symbol] for symbol in first_order),
        order=tuple(first_order),
        reorderings=reorderings,
    )


def _merge_outputs(
    original: ConstraintSet,
    plan: CompositionPlan,
    component_results: Sequence[ComponentResult],
) -> ConstraintSet:
    """Splice the per-component outputs back into one constraint set.

    Untouched constraints keep their original positions; each component's
    whole output lands at the slot of the component's first constraint, so
    the merged order follows the input, not the composition order.
    """
    output_at: Dict[int, ConstraintSet] = {
        component.constraint_indices[0]: result.constraints
        for component, result in zip(plan.components, component_results)
    }
    untouched = set(plan.untouched_indices)
    merged: List[Constraint] = []
    for index in range(len(original)):
        if index in untouched:
            merged.append(original[index])
        elif index in output_at:
            merged.extend(output_at[index])
    return ConstraintSet(merged)


def plan_compose(
    problem: CompositionProblem,
    config: Optional[ComposerConfig] = None,
) -> CompositionResult:
    """Run the cost-guided planned composition of ``problem``.

    This is ``compose`` for ``ComposerConfig(elimination_order="cost")``:
    partition, per-component cost-ordered elimination with bounded retries,
    merge, final simplification.
    """
    config = config or ComposerConfig()
    started = time.perf_counter()

    constraints: ConstraintSet = problem.all_constraints
    input_operator_count = constraints.operator_count()
    sigma2 = problem.sigma2
    sigma2_names = sigma2.names()

    with collect_phases() as phase_buckets:
        with timed("planner"):
            plan = build_plan(constraints, sigma2_names)
            jobs = [
                (
                    constraints.subset(component.constraint_indices),
                    component.symbols,
                    tuple(sigma2.arity_of(symbol) for symbol in component.symbols),
                )
                for component in plan.components
            ]
        component_results = [
            compose_component(subset, symbols, arities, config)
            for subset, symbols, arities in jobs
        ]

        merged = _merge_outputs(constraints, plan, component_results)
        if config.simplify_output:
            with timed("simplify"):
                merged = simplify_constraint_set(merged, config.registry)

    outcome_by_symbol: Dict[str, EliminationOutcome] = {
        symbol: EliminationOutcome(
            symbol=symbol, success=True, method=EliminationMethod.NOT_MENTIONED
        )
        for symbol in plan.free_symbols
    }
    for result in component_results:
        for outcome in result.outcomes:
            outcome_by_symbol[outcome.symbol] = outcome
    outcomes = tuple(outcome_by_symbol[symbol] for symbol in sigma2_names)
    eliminated = [outcome.symbol for outcome in outcomes if outcome.success]
    residual = sigma2.removing(*eliminated) if eliminated else sigma2

    return CompositionResult(
        sigma1=problem.sigma1,
        sigma3=problem.sigma3,
        residual_sigma2=residual,
        constraints=merged,
        outcomes=outcomes,
        elapsed_seconds=time.perf_counter() - started,
        input_operator_count=input_operator_count,
        output_operator_count=merged.operator_count(),
        phase_seconds=tuple(sorted(phase_buckets.items())),
        plan=tuple(result.order for result in component_results),
        components=len(plan.components),
        reorderings=sum(result.reorderings for result in component_results),
    )
