"""Seeded randomized workload generation for the batch/chain engine.

A *chain problem* is a sequence of mappings ``σ1 → σ2 → … → σn`` produced by
driving the schema-evolution simulator: every hop applies one randomly drawn
primitive of Figure 1 and then renames every surviving relation (an equality
constraint links each relation to its fresh copy), so consecutive signatures
are fully disjoint and every hop consumes its entire input schema — exactly
the shape chained composition must eliminate.

All randomness flows through one seed: the same :class:`WorkloadConfig`
always generates the same problems, making stress scenarios reproducible
from a single number.  Diversity comes from per-problem variation of chain
length, relation arities, keys (hence vertical partitioning and, through
right compose, Skolem depth) and the primitive mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algebra.evaluation import evaluate
from repro.algebra.expressions import Relation
from repro.algebra.traversal import relation_names
from repro.constraints.constraint import Constraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.evolution.config import SimulatorConfig
from repro.evolution.event_vector import EventVector
from repro.evolution.model import RelationNamer, SchemaState, SimulatedRelation
from repro.evolution.simulator import SchemaEvolutionSimulator
from repro.exceptions import EngineError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.schema.instance import Instance
from repro.schema.signature import RelationSchema, Signature

__all__ = [
    "WorkloadConfig",
    "ChainProblem",
    "ChainGrower",
    "PartitionedProblem",
    "generate_chain_problem",
    "generate_workload",
    "generate_partitioned_problem",
    "generate_partitioned_workload",
    "partitioned_forward_instance",
    "pairwise_problems",
    "FORWARD_PRIMITIVES",
    "forward_event_vector",
    "forward_instance",
]

#: Primitives whose constraints let produced relations be *computed* from
#: their inputs (no backward constraint needs inverting), so satisfying
#: instances of a whole chain can be built by forward propagation.
FORWARD_PRIMITIVES = ("AR", "DR", "DA", "Df", "Hf", "Nf", "Sub", "Sup")


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a randomized composition workload.

    Attributes
    ----------
    num_problems:
        Number of chain problems to generate.
    min_chain_length / max_chain_length:
        Range (inclusive) from which each problem's chain length is drawn.
    schema_size:
        Number of relations in each problem's initial schema.
    min_arity / max_arity:
        Arity range of generated relations; each problem draws its own
        ``max_arity`` from this range so problems differ in width.
    keys_fraction:
        Fraction of problems generated with keys enabled (unlocking the
        vertical-partitioning primitives and key constraints).
    event_vector:
        Primitive weights used by the simulator (``None`` = paper default).
    num_components:
        Number of independent sub-problems merged into each problem by
        :func:`generate_partitioned_workload` — each component's relations
        are namespaced apart, so no constraint of the merged problem links
        two components and its symbol co-occurrence graph has at least this
        many connected components (the shape the cost-guided planner
        partitions; symbols that happen not to co-occur *within* a component
        split it further).  Ignored by :func:`generate_workload`.
    seed:
        Master seed; every problem derives its own sub-seed from it.
    """

    num_problems: int = 50
    min_chain_length: int = 4
    max_chain_length: int = 6
    schema_size: int = 4
    min_arity: int = 2
    max_arity: int = 6
    keys_fraction: float = 0.3
    event_vector: Optional[EventVector] = None
    num_components: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_problems < 1:
            raise EngineError("num_problems must be positive")
        if self.min_chain_length < 2 or self.max_chain_length < self.min_chain_length:
            raise EngineError("chain length range must be valid and at least 2")
        if self.schema_size < 2:
            raise EngineError("schema_size must be at least 2")
        if self.min_arity < 1 or self.max_arity < self.min_arity:
            raise EngineError("invalid arity range")
        if not 0.0 <= self.keys_fraction <= 1.0:
            raise EngineError("keys_fraction must be in [0, 1]")
        if self.num_components < 1:
            raise EngineError("num_components must be positive")


@dataclass(frozen=True)
class ChainProblem:
    """One generated chain of mappings, plus the provenance to regenerate it."""

    name: str
    seed: int
    mappings: Tuple[Mapping, ...]
    primitives: Tuple[str, ...] = ()

    @property
    def chain_length(self) -> int:
        return len(self.mappings)

    def constraint_count(self) -> int:
        return sum(mapping.constraint_count() for mapping in self.mappings)

    def operator_count(self) -> int:
        return sum(mapping.operator_count() for mapping in self.mappings)

    def __repr__(self) -> str:
        return (
            f"<ChainProblem {self.name!r}: {self.chain_length} hops, "
            f"{self.constraint_count()} constraints>"
        )


def _rename_survivors(
    state: SchemaState,
    survivors: Sequence[SimulatedRelation],
    namer: RelationNamer,
) -> Tuple[List[SimulatedRelation], List[Constraint]]:
    """Fresh copies of the surviving relations plus the equalities linking them."""
    copies: List[SimulatedRelation] = []
    equalities: List[Constraint] = []
    for relation in survivors:
        copy = SimulatedRelation(namer.fresh(), relation.arity, relation.key, "copy")
        copies.append(copy)
        equalities.append(
            EqualityConstraint(
                relation.to_schema().to_expression(), copy.to_schema().to_expression()
            )
        )
    return copies, equalities


class ChainGrower:
    """Grows a chain of composable mappings one evolution hop at a time.

    The batch generator builds whole chains up front;
    :class:`~repro.engine.incremental.EvolutionSession` wants the opposite
    shape — a designer applying edits one by one, each producing the next
    mapping of the chain.  A grower keeps the simulator and renamer state
    between hops, so :meth:`grow` can be called whenever the session needs
    another edit, and the produced mappings always splice onto the chain so
    far (each hop consumes its entire input schema, exactly like the
    generator's chains).
    """

    def __init__(
        self,
        seed: int,
        schema_size: int = 4,
        simulator_config: Optional[SimulatorConfig] = None,
        event_vector: Optional[EventVector] = None,
    ):
        simulator_config = simulator_config or SimulatorConfig(min_arity=2, max_arity=5)
        self._simulator = SchemaEvolutionSimulator(
            seed=seed, config=simulator_config, event_vector=event_vector
        )
        self._copy_namer = RelationNamer(prefix="C")
        self._state = self._simulator.random_schema(schema_size)
        # One Signature object per schema state: a hop's output signature is
        # the next hop's input signature, so its cached fingerprint is shared.
        self._signature = self._state.signature()
        self.primitives: List[str] = []

    @property
    def state(self) -> SchemaState:
        """The current schema (the next mapping's input side)."""
        return self._state

    def grow(self) -> Mapping:
        """Apply one random edit and return the mapping it induces."""
        before = self._state
        step = self._simulator.apply_random_edit(before)
        self.primitives.append(step.primitive)

        produced_names = set(step.produced_names)
        survivors = [r for r in step.after.relations if r.name not in produced_names]
        copies, equalities = _rename_survivors(before, survivors, self._copy_namer)
        after = SchemaState(tuple(copies) + tuple(step.produced))
        before_signature = self._signature
        self._state = after
        self._signature = after.signature()

        return Mapping(
            input_signature=before_signature,
            output_signature=self._signature,
            constraints=ConstraintSet(tuple(step.constraints) + tuple(equalities)),
        )

    def grow_many(self, count: int) -> List[Mapping]:
        """Apply ``count`` edits and return their mappings, in order."""
        return [self.grow() for _ in range(count)]


def generate_chain_problem(
    seed: int,
    chain_length: int = 4,
    schema_size: int = 4,
    simulator_config: Optional[SimulatorConfig] = None,
    event_vector: Optional[EventVector] = None,
    name: str = "",
) -> ChainProblem:
    """Generate one chain of ``chain_length`` mappings from the evolution primitives.

    Every hop applies one random primitive and renames all surviving relations,
    so the hop's input and output signatures are disjoint and chained
    composition must eliminate the entire intermediate schema at every step.
    """
    if chain_length < 2:
        raise EngineError("a chain problem needs at least two mappings")
    grower = ChainGrower(
        seed=seed,
        schema_size=schema_size,
        simulator_config=simulator_config,
        event_vector=event_vector,
    )
    mappings = grower.grow_many(chain_length)
    return ChainProblem(
        name=name or f"chain(seed={seed}, length={chain_length})",
        seed=seed,
        mappings=tuple(mappings),
        primitives=tuple(grower.primitives),
    )


def generate_workload(config: Optional[WorkloadConfig] = None) -> List[ChainProblem]:
    """Generate the full workload described by ``config``, deterministically."""
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)
    problems: List[ChainProblem] = []
    for index in range(config.num_problems):
        problem_seed = rng.randrange(2**31)
        chain_length = rng.randint(config.min_chain_length, config.max_chain_length)
        keys_enabled = rng.random() < config.keys_fraction
        max_arity = rng.randint(max(config.min_arity, 3), config.max_arity)
        simulator_config = SimulatorConfig(
            keys_enabled=keys_enabled,
            min_arity=config.min_arity,
            max_arity=max_arity,
        )
        problems.append(
            generate_chain_problem(
                seed=problem_seed,
                chain_length=chain_length,
                schema_size=config.schema_size,
                simulator_config=simulator_config,
                event_vector=config.event_vector,
                name=f"workload[{index}](seed={problem_seed})",
            )
        )
    return problems


@dataclass(frozen=True)
class PartitionedProblem:
    """One multi-component composition problem plus its generating parts.

    ``problem`` merges ``components`` — independent two-mapping chains whose
    relation names are namespaced apart — into a single
    :class:`CompositionProblem`: no constraint mentions symbols of two
    different components, so the problem's symbol co-occurrence graph has at
    least ``len(components)`` connected components (symbols that do not
    co-occur within a component split it further).  The per-component chains
    are kept so satisfying instances can be built component-wise
    (:func:`partitioned_forward_instance`).
    """

    name: str
    seed: int
    problem: CompositionProblem
    components: Tuple[ChainProblem, ...]

    @property
    def num_components(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return (
            f"<PartitionedProblem {self.name!r}: {self.num_components} components, "
            f"{len(self.problem.all_constraints)} constraints>"
        )


def _prefixed_mapping(mapping: Mapping, prefix: str) -> Mapping:
    """Return ``mapping`` with every relation name namespaced under ``prefix``.

    Prefixed names are fresh (no generated name starts with a component
    prefix), so renaming one symbol at a time cannot capture another.
    """

    def prefixed(signature):
        return Signature(
            RelationSchema(prefix + schema.name, schema.arity, schema.key)
            for schema in signature.relations()
        )

    constraints = mapping.constraints
    for signature in (mapping.input_signature, mapping.output_signature):
        for schema in signature.relations():
            constraints = constraints.substituting(
                schema.name, Relation(prefix + schema.name, schema.arity)
            )
    return Mapping(
        input_signature=prefixed(mapping.input_signature),
        output_signature=prefixed(mapping.output_signature),
        constraints=constraints,
    )


def _merged_mapping(mappings: Sequence[Mapping]) -> Mapping:
    """Union of mappings over pairwise-disjoint signatures."""
    input_signature = mappings[0].input_signature
    output_signature = mappings[0].output_signature
    constraints = mappings[0].constraints
    for mapping in mappings[1:]:
        input_signature = input_signature.union(mapping.input_signature)
        output_signature = output_signature.union(mapping.output_signature)
        constraints = constraints.union(mapping.constraints)
    return Mapping(input_signature, output_signature, constraints)


def generate_partitioned_problem(
    seed: int,
    num_components: int = 4,
    schema_size: int = 3,
    simulator_config: Optional[SimulatorConfig] = None,
    event_vector: Optional[EventVector] = None,
    name: str = "",
) -> PartitionedProblem:
    """Generate one composition problem made of independent components.

    Each component is a two-mapping evolution chain generated on its own
    sub-seed; its relation names are prefixed ``P{i}_`` so the merged
    signatures stay disjoint and no constraint links two components.  The
    merged problem is exactly the shape the cost-guided planner partitions:
    composing it fixed-order drags every elimination across all components'
    constraints, while the planner composes each component on its own set.
    """
    if num_components < 1:
        raise EngineError("num_components must be positive")
    rng = random.Random(seed)
    components: List[ChainProblem] = []
    first_hops: List[Mapping] = []
    second_hops: List[Mapping] = []
    for index in range(num_components):
        component_seed = rng.randrange(2**31)
        chain = generate_chain_problem(
            seed=component_seed,
            chain_length=2,
            schema_size=schema_size,
            simulator_config=simulator_config,
            event_vector=event_vector,
        )
        prefix = f"P{index}_"
        mappings = tuple(_prefixed_mapping(m, prefix) for m in chain.mappings)
        components.append(
            ChainProblem(
                name=f"component[{index}](seed={component_seed})",
                seed=component_seed,
                mappings=mappings,
                primitives=chain.primitives,
            )
        )
        first_hops.append(mappings[0])
        second_hops.append(mappings[1])
    problem = CompositionProblem.from_mappings(
        _merged_mapping(first_hops),
        _merged_mapping(second_hops),
        name=name or f"partitioned(seed={seed}, components={num_components})",
    )
    return PartitionedProblem(
        name=problem.name,
        seed=seed,
        problem=problem,
        components=tuple(components),
    )


def generate_partitioned_workload(
    config: Optional[WorkloadConfig] = None,
) -> List[PartitionedProblem]:
    """Generate ``config.num_problems`` multi-component problems, deterministically.

    Every problem merges ``config.num_components`` independent components
    (see :func:`generate_partitioned_problem`); the remaining knobs vary
    per problem exactly as in :func:`generate_workload`.
    """
    config = config or WorkloadConfig()
    rng = random.Random(config.seed)
    problems: List[PartitionedProblem] = []
    for index in range(config.num_problems):
        problem_seed = rng.randrange(2**31)
        keys_enabled = rng.random() < config.keys_fraction
        max_arity = rng.randint(max(config.min_arity, 3), config.max_arity)
        simulator_config = SimulatorConfig(
            keys_enabled=keys_enabled,
            min_arity=config.min_arity,
            max_arity=max_arity,
        )
        problems.append(
            generate_partitioned_problem(
                seed=problem_seed,
                num_components=config.num_components,
                schema_size=config.schema_size,
                simulator_config=simulator_config,
                event_vector=config.event_vector,
                name=f"partitioned[{index}](seed={problem_seed})",
            )
        )
    return problems


def partitioned_forward_instance(
    partitioned: PartitionedProblem,
    seed: int = 0,
    domain_size: int = 4,
    max_rows: int = 4,
) -> Instance:
    """A satisfying instance of a partitioned problem's combined signature.

    Built component-wise with :func:`forward_instance` (components share no
    relation names, so the union of per-component satisfying instances
    satisfies the merged constraint set).  Same restriction as
    :func:`forward_instance`: the components must be generated from
    :data:`FORWARD_PRIMITIVES`.
    """
    combined: Optional[Instance] = None
    for offset, component in enumerate(partitioned.components):
        instance = forward_instance(
            component, seed=seed + offset, domain_size=domain_size, max_rows=max_rows
        )
        combined = instance if combined is None else combined.merged_with(instance)
    return combined if combined is not None else Instance({})


def forward_event_vector() -> EventVector:
    """An event vector restricted to the forward-propagatable primitives.

    Workloads generated with this vector admit :func:`forward_instance`, which
    the semantic-equivalence tests use to obtain instances that *satisfy* the
    chain's constraints (random instances essentially never satisfy the rename
    equalities).
    """
    return EventVector.uniform(FORWARD_PRIMITIVES)


def forward_instance(
    chain: ChainProblem,
    seed: int = 0,
    domain_size: int = 4,
    max_rows: int = 4,
) -> Instance:
    """Build an instance over the chain's combined signature satisfying all hops.

    The first signature's relations are filled with random rows; every later
    relation is then *derived* by evaluating the defining side of the
    constraint that mentions it (equalities ``E = S`` assign ``S := eval(E)``;
    containments assign the unpopulated side to the populated side's value,
    which satisfies either direction).  Relations produced without constraints
    (the AR primitive) are filled randomly.

    Only works for chains generated from :data:`FORWARD_PRIMITIVES`; a chain
    using backward primitives (``Db``, ``Hb``, ``Vb``, …) raises
    :class:`EngineError` because their constraints cannot be solved by forward
    evaluation.
    """
    rng = random.Random(seed)
    contents = {}

    def random_rows(arity: int):
        return {
            tuple(rng.randrange(domain_size) for _ in range(arity))
            for _ in range(rng.randint(1, max_rows))
        }

    for schema in chain.mappings[0].input_signature.relations():
        contents[schema.name] = random_rows(schema.arity)

    for mapping in chain.mappings:
        pending = list(mapping.constraints)
        progress = True
        while pending and progress:
            progress = False
            for constraint in list(pending):
                assigned = _assign_forward(constraint, contents)
                if assigned:
                    pending.remove(constraint)
                    progress = True
        # Remaining constraints mention only populated relations (e.g. the Nf
        # inclusion between two already-derived projections): they hold by
        # construction and are re-checked by the callers' satisfaction tests.
        pending = [
            c
            for c in pending
            if any(name not in contents for name in c.relation_names())
        ]
        if pending:
            raise EngineError(
                "chain is not forward-propagatable; stuck on constraints "
                f"{[str(c) for c in pending]} (use forward_event_vector() "
                "when generating workloads for instance construction)"
            )
        for schema in mapping.output_signature.relations():
            if schema.name not in contents:
                contents[schema.name] = random_rows(schema.arity)

    combined = chain.mappings[0].input_signature
    for mapping in chain.mappings:
        combined = combined.union(mapping.output_signature)
    return Instance(contents, combined)


def _assign_forward(constraint: Constraint, contents: dict) -> bool:
    """Populate one bare unpopulated side of ``constraint`` if possible."""
    for target, source in ((constraint.left, constraint.right),
                           (constraint.right, constraint.left)):
        if not isinstance(target, Relation) or target.name in contents:
            continue
        if any(name not in contents for name in relation_names(source)):
            continue
        contents[target.name] = evaluate(source, Instance(contents))
        return True
    return False


def pairwise_problems(chain: ChainProblem) -> List[CompositionProblem]:
    """The chain's adjacent-hop composition problems (for ``BatchComposer.run``).

    Problem ``i`` composes mapping ``i`` with mapping ``i + 1`` in isolation —
    useful for exercising the pair-wise engine on generated workloads and for
    comparing hop-by-hop against full-chain composition.
    """
    problems = []
    for index in range(len(chain.mappings) - 1):
        problems.append(
            CompositionProblem.from_mappings(
                chain.mappings[index],
                chain.mappings[index + 1],
                name=f"{chain.name}/hop[{index}]",
            )
        )
    return problems
