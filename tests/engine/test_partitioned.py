"""Partition-correctness tests for the cost-guided planner at engine scale.

Randomized multi-component workloads (restricted to the forward-propagatable
primitives so satisfying instances can be constructed) must compose to
semantically equivalent outputs under the fixed order and the cost-guided
partitioned planner, and a batch composed under the cost-guided config must
match direct planned composition byte for byte.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluation import SkolemInterpretation
from repro.compose import ComposerConfig, compose
from repro.constraints.satisfaction import satisfies_all
from repro.engine import (
    BatchComposer,
    BatchConfig,
    CheckpointStore,
    ChainGrower,
    WorkloadConfig,
    compose_chain,
    generate_partitioned_problem,
    generate_partitioned_workload,
    partitioned_forward_instance,
)
from repro.engine.workloads import forward_event_vector

#: Interpretation used if an output constraint still mentions a Skolem term.
DEFAULT_SKOLEMS = SkolemInterpretation(
    default=lambda name, arguments: (name,) + tuple(arguments)
)


def _workload(seed, num_problems=4, num_components=3):
    return generate_partitioned_workload(
        WorkloadConfig(
            num_problems=num_problems,
            schema_size=3,
            max_arity=4,
            keys_fraction=0.0,
            event_vector=forward_event_vector(),
            num_components=num_components,
            seed=seed,
        )
    )


def _holds(constraints, instance) -> bool:
    return satisfies_all(instance, constraints, skolems=DEFAULT_SKOLEMS)


@pytest.mark.parametrize("master_seed", [2006, 41])
def test_planned_output_semantically_equivalent_to_fixed(master_seed):
    checked = 0
    for partitioned in _workload(master_seed):
        original = partitioned.problem.all_constraints
        fixed = compose(partitioned.problem, ComposerConfig())
        planned = compose(partitioned.problem, ComposerConfig.cost_guided())
        assert planned.components >= partitioned.num_components
        for instance_seed in range(2):
            instance = partitioned_forward_instance(
                partitioned, seed=partitioned.seed + instance_seed
            )
            assert _holds(original, instance), f"{partitioned.name}: bad construction"
            # Soundness: a satisfying instance may not violate either output.
            assert _holds(fixed.constraints, instance), f"{partitioned.name}: fixed"
            assert _holds(planned.constraints, instance), f"{partitioned.name}: planned"
            checked += 1
    assert checked >= 8


def test_cost_guided_run_matches_direct_planned_compose():
    workload = _workload(13, num_problems=2)
    composer = BatchComposer(BatchConfig(composer_config=ComposerConfig.cost_guided()))
    report = composer.run([partitioned.problem for partitioned in workload])
    assert report.all_succeeded, report.summary()
    for partitioned, item in zip(workload, report.items):
        direct = compose(partitioned.problem, ComposerConfig.cost_guided())
        assert item.result.constraints.to_text() == direct.constraints.to_text()
        assert item.result.plan == direct.plan
        assert item.result.components >= partitioned.num_components


def test_cost_guided_rerun_is_byte_identical():
    # The second run finds the first run's memo stamps on the problems.
    workload = _workload(97, num_problems=2)
    problems = [partitioned.problem for partitioned in workload]
    outputs = []
    composer = BatchComposer(BatchConfig(composer_config=ComposerConfig.cost_guided()))
    for _ in range(2):
        report = composer.run(problems)
        assert report.all_succeeded, report.summary()
        outputs.append(
            [
                (item.result.constraints.to_text(), item.result.remaining_symbols)
                for item in report.items
            ]
        )
    assert outputs[0] == outputs[1]


def test_single_component_and_singleton_edge_cases():
    single = generate_partitioned_problem(
        seed=8, num_components=1, event_vector=forward_event_vector()
    )
    fixed = compose(single.problem, ComposerConfig())
    planned = compose(single.problem, ComposerConfig.cost_guided())
    instance = partitioned_forward_instance(single, seed=3)
    assert _holds(single.problem.all_constraints, instance)
    assert _holds(fixed.constraints, instance)
    assert _holds(planned.constraints, instance)
    # Every σ2 symbol is accounted for exactly once: either planned inside a
    # component or dropped for free — never both, never twice.
    planned_symbols = [symbol for component in planned.plan for symbol in component]
    assert len(planned_symbols) == len(set(planned_symbols))
    assert set(planned_symbols) <= set(planned.attempted_symbols)
    assert set(planned.attempted_symbols) == set(single.problem.sigma2.names())


def test_cost_mode_invalidates_fixed_mode_checkpoints():
    """The config fingerprint covers elimination_order, so a planner run never
    resumes from a fixed-order chain checkpoint (and vice versa)."""
    chain = tuple(ChainGrower(seed=3, schema_size=4).grow_many(4))
    store = CheckpointStore()
    compose_chain(chain, ComposerConfig(), checkpoints=store)
    replay_fixed = compose_chain(chain, ComposerConfig(), checkpoints=store)
    assert replay_fixed.reused_hops == len(chain) - 1

    cold_cost = compose_chain(chain, ComposerConfig.cost_guided(), checkpoints=store)
    assert cold_cost.reused_hops == 0
    warm_cost = compose_chain(chain, ComposerConfig.cost_guided(), checkpoints=store)
    assert warm_cost.reused_hops == len(chain) - 1
    assert warm_cost.constraints.to_text() == cold_cost.constraints.to_text()
