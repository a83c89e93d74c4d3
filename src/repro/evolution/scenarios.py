"""Scenario drivers: schema editing and schema reconciliation (paper Section 4.2).

*Schema editing* mimics a designer applying a sequence of edits: after every
edit, the mapping from the original schema to the current schema is composed
with the edit's mapping, i.e. the symbols the edit consumed (plus any symbols
left over from earlier, incompletely composed edits) are eliminated from the
accumulated constraint set.

*Schema reconciliation* evolves one original schema along two independent edit
sequences and then composes the two resulting mappings pairwise, eliminating
the original schema's symbols — the intermediate signature of Figures 6 and 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compose.config import ComposerConfig
from repro.compose.eliminate import eliminate
from repro.compose.composer import compose
from repro.compose.result import CompositionResult
from repro.constraints.constraint_set import ConstraintSet
from repro.constraints.dependencies import key_constraints_for
from repro.evolution.config import SimulatorConfig
from repro.evolution.event_vector import EventVector
from repro.evolution.model import SchemaState
from repro.evolution.simulator import SchemaEvolutionSimulator
from repro.mapping.composition_problem import CompositionProblem
from repro.schema.signature import RelationSchema, Signature

__all__ = [
    "EditCompositionRecord",
    "EditingScenarioResult",
    "run_editing_scenario",
    "ReconciliationRecord",
    "run_reconciliation_scenario",
]


# ---------------------------------------------------------------------------
# Schema editing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EditCompositionRecord:
    """Statistics of the composition triggered by a single edit."""

    edit_index: int
    primitive: str
    consumed_symbols: Tuple[str, ...]
    consumed_eliminated: Tuple[str, ...]
    retried_symbols: Tuple[str, ...]
    retried_eliminated: Tuple[str, ...]
    duration_seconds: float
    constraint_count: int
    operator_count: int

    @property
    def fraction_eliminated(self) -> float:
        """Fraction of this edit's consumed symbols that were eliminated."""
        if not self.consumed_symbols:
            return 1.0
        return len(self.consumed_eliminated) / len(self.consumed_symbols)


@dataclass
class EditingScenarioResult:
    """The outcome of one schema-editing run (a sequence of edits + compositions)."""

    original_schema: SchemaState
    final_schema: SchemaState
    constraints: ConstraintSet
    records: List[EditCompositionRecord] = field(default_factory=list)
    leftover_symbols: Dict[str, int] = field(default_factory=dict)
    symbol_creator: Dict[str, str] = field(default_factory=dict)

    # -- aggregate statistics ------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """``True`` iff no intermediate symbol survived any composition."""
        return not self.leftover_symbols

    def total_duration(self) -> float:
        """Total composition time of the run (seconds)."""
        return sum(record.duration_seconds for record in self.records)

    def total_fraction_eliminated(self) -> float:
        """Fraction of all consumed symbols eliminated over the whole run."""
        attempted = sum(len(record.consumed_symbols) for record in self.records)
        eliminated = sum(len(record.consumed_eliminated) for record in self.records)
        return eliminated / attempted if attempted else 1.0

    def fraction_eliminated_by_primitive(self) -> Dict[str, float]:
        """Per-primitive elimination success (the quantity plotted in Figure 2)."""
        attempted: Dict[str, int] = {}
        eliminated: Dict[str, int] = {}
        for record in self.records:
            if not record.consumed_symbols:
                continue
            attempted[record.primitive] = attempted.get(record.primitive, 0) + len(
                record.consumed_symbols
            )
            eliminated[record.primitive] = eliminated.get(record.primitive, 0) + len(
                record.consumed_eliminated
            )
        return {
            primitive: eliminated.get(primitive, 0) / count
            for primitive, count in attempted.items()
        }

    def time_per_edit_by_primitive(self) -> Dict[str, float]:
        """Per-primitive mean composition time in seconds (Figure 3)."""
        durations: Dict[str, List[float]] = {}
        for record in self.records:
            durations.setdefault(record.primitive, []).append(record.duration_seconds)
        return {
            primitive: sum(values) / len(values) for primitive, values in durations.items()
        }

    def fraction_eliminated_by_creator(self) -> Dict[str, float]:
        """Elimination success grouped by the primitive that *created* each symbol.

        An alternative reading of Figure 2 ("the symbols introduced by some
        primitives are easier to eliminate than others"): a symbol created by
        primitive P counts towards P's bar when it is later consumed.
        """
        attempted: Dict[str, int] = {}
        eliminated: Dict[str, int] = {}
        for record in self.records:
            for symbol in record.consumed_symbols:
                creator = self.symbol_creator.get(symbol, "initial")
                attempted[creator] = attempted.get(creator, 0) + 1
                if symbol in record.consumed_eliminated:
                    eliminated[creator] = eliminated.get(creator, 0) + 1
        return {
            creator: eliminated.get(creator, 0) / count for creator, count in attempted.items()
        }


def run_editing_scenario(
    schema_size: int = 30,
    num_edits: int = 100,
    seed: int = 0,
    simulator_config: Optional[SimulatorConfig] = None,
    composer_config: Optional[ComposerConfig] = None,
    event_vector: Optional[EventVector] = None,
    simulator: Optional[SchemaEvolutionSimulator] = None,
    initial_schema: Optional[SchemaState] = None,
    retry_leftovers: bool = True,
) -> EditingScenarioResult:
    """Run one schema-editing scenario: ``num_edits`` edits with a composition after each.

    Parameters mirror the paper's defaults (schema size 30, 100 edits per run,
    Default event vector).  ``simulator`` / ``initial_schema`` allow callers
    (notably the reconciliation scenario) to reuse a pre-built starting point.
    Every edit's elimination runs under one ``composer_config``, so the
    leftovers retried after each edit find the "already simplified" and
    "known to fail" stamps the earlier attempts left on the surviving
    constraints (:mod:`repro.algebra.simplify`,
    :mod:`repro.compose.failure_memo`).
    """
    simulator_config = simulator_config or SimulatorConfig()
    composer_config = composer_config or ComposerConfig()
    simulator = simulator or SchemaEvolutionSimulator(
        seed=seed, config=simulator_config, event_vector=event_vector
    )
    state = initial_schema if initial_schema is not None else simulator.random_schema(schema_size)
    original_schema = state

    constraints = ConstraintSet()
    if simulator_config.keys_enabled and simulator_config.emit_key_constraints:
        constraints = ConstraintSet(key_constraints_for(state.signature()))

    arities: Dict[str, int] = {r.name: r.arity for r in state.relations}
    creators: Dict[str, str] = {r.name: r.created_by for r in state.relations}
    leftovers: Dict[str, int] = {}
    records: List[EditCompositionRecord] = []

    result = EditingScenarioResult(
        original_schema=original_schema,
        final_schema=state,
        constraints=constraints,
        symbol_creator=creators,
    )

    for edit_index in range(num_edits):
        step = simulator.apply_random_edit(state)
        state = step.after
        for relation in step.produced:
            arities[relation.name] = relation.arity
            creators[relation.name] = relation.created_by
        constraints = constraints.union(ConstraintSet(step.constraints))

        baseline = max(constraints.operator_count(), 1)
        started = time.perf_counter()

        consumed_eliminated: List[str] = []
        for symbol in step.consumed_names:
            constraints, outcome = eliminate(
                constraints, symbol, arities[symbol], composer_config, baseline
            )
            if outcome.success:
                consumed_eliminated.append(symbol)
            else:
                leftovers[symbol] = arities[symbol]

        retried: List[str] = []
        retried_eliminated: List[str] = []
        if retry_leftovers:
            for symbol in [name for name in leftovers if name not in step.consumed_names]:
                if not constraints.mentions(symbol):
                    # The symbol dropped out of the constraints entirely.
                    retried.append(symbol)
                    retried_eliminated.append(symbol)
                    del leftovers[symbol]
                    continue
                retried.append(symbol)
                constraints, outcome = eliminate(
                    constraints, symbol, leftovers[symbol], composer_config, baseline
                )
                if outcome.success:
                    retried_eliminated.append(symbol)
                    del leftovers[symbol]

        duration = time.perf_counter() - started
        records.append(
            EditCompositionRecord(
                edit_index=edit_index,
                primitive=step.primitive,
                consumed_symbols=step.consumed_names,
                consumed_eliminated=tuple(consumed_eliminated),
                retried_symbols=tuple(retried),
                retried_eliminated=tuple(retried_eliminated),
                duration_seconds=duration,
                constraint_count=len(constraints),
                operator_count=constraints.operator_count(),
            )
        )

    result.final_schema = state
    result.constraints = constraints
    result.records = records
    result.leftover_symbols = dict(leftovers)
    result.symbol_creator = creators
    return result


# ---------------------------------------------------------------------------
# Schema reconciliation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconciliationRecord:
    """The outcome of one schema-reconciliation task (Figures 6 and 7)."""

    schema_size: int
    num_edits: int
    fraction_eliminated: float
    duration_seconds: float
    attempted_symbols: int
    eliminated_symbols: int
    branch_a_complete: bool
    branch_b_complete: bool


def _branch_outer_signature(
    branch: EditingScenarioResult, original_names: frozenset
) -> Signature:
    """Relations of a branch's final schema that are not inherited from the original."""
    return Signature(
        relation.to_schema()
        for relation in branch.final_schema.relations
        if relation.name not in original_names
    )


def _leftover_signature(
    branch: EditingScenarioResult, exclude: frozenset
) -> List[RelationSchema]:
    """Leftover branch symbols, excluding names already covered elsewhere."""
    return [
        RelationSchema(name, arity)
        for name, arity in branch.leftover_symbols.items()
        if name not in exclude
    ]


def run_reconciliation_scenario(
    schema_size: int = 30,
    num_edits: int = 100,
    seed: int = 0,
    simulator_config: Optional[SimulatorConfig] = None,
    composer_config: Optional[ComposerConfig] = None,
    event_vector: Optional[EventVector] = None,
    max_branch_attempts: int = 3,
) -> Tuple[ReconciliationRecord, CompositionResult]:
    """Run one schema-reconciliation task.

    The original schema evolves along two independent edit sequences; the
    resulting mappings are composed pairwise, eliminating the original
    schema's symbols.  Branch generation is retried a few times to obtain
    first-order (fully composed) input mappings, as in the paper; if that
    fails, surviving branch symbols are added to the intermediate signature.
    """
    simulator_config = simulator_config or SimulatorConfig()
    composer_config = composer_config or ComposerConfig()

    base_simulator = SchemaEvolutionSimulator(
        seed=seed, config=simulator_config, event_vector=event_vector, name_prefix="S"
    )
    original = base_simulator.random_schema(schema_size)
    original_names = frozenset(original.names())

    branches: List[EditingScenarioResult] = []
    for offset, prefix in enumerate(("A", "B")):
        branch: Optional[EditingScenarioResult] = None
        for attempt in range(max_branch_attempts):
            candidate = run_editing_scenario(
                schema_size=schema_size,
                num_edits=num_edits,
                simulator_config=simulator_config,
                composer_config=composer_config,
                event_vector=event_vector,
                simulator=SchemaEvolutionSimulator(
                    seed=seed * 1000 + offset * 100 + attempt,
                    config=simulator_config,
                    event_vector=event_vector,
                    name_prefix=prefix,
                ),
                initial_schema=original,
            )
            branch = candidate
            if candidate.is_complete:
                break
        branches.append(branch)
    branch_a, branch_b = branches

    sigma1 = _branch_outer_signature(branch_a, original_names)
    sigma3 = _branch_outer_signature(branch_b, original_names)
    leftover_a = _leftover_signature(branch_a, original_names)
    leftover_b = _leftover_signature(
        branch_b, original_names | {schema.name for schema in leftover_a}
    )
    sigma2 = Signature(
        [relation.to_schema() for relation in original.relations] + leftover_a + leftover_b
    )

    problem = CompositionProblem(
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
        sigma12=branch_a.constraints,
        sigma23=branch_b.constraints,
        name=f"reconciliation(size={schema_size}, edits={num_edits}, seed={seed})",
    )
    result = compose(problem, composer_config)

    record = ReconciliationRecord(
        schema_size=schema_size,
        num_edits=num_edits,
        fraction_eliminated=result.fraction_eliminated,
        duration_seconds=result.elapsed_seconds,
        attempted_symbols=len(result.outcomes),
        eliminated_symbols=len(result.eliminated_symbols),
        branch_a_complete=branch_a.is_complete,
        branch_b_complete=branch_b.is_complete,
    )
    return record, result
