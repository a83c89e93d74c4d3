"""The memo stamps never change an output, and they retire when they must.

COMPOSE remembers two facts on its immutable objects: "already simplified
under these rules" (``_simplified_for`` on expressions and constraints,
``_simplified_marker`` on constraint sets) and "fails normalization for this
symbol under these rules" (``_known_failures`` on constraints).  Both are
keyed by the operator registry's rules token.  These tests require
byte-identical results whether the stamps are absent (cold copies made
through pickle), present (the same objects composed again under one
config), shared through the batch engine, or used by the cost-guided
planner; and they check that a rule change, a split equality and a pickle
round trip each treat the stamps as they should.
"""

import importlib
import pickle
import sys
import threading

import pytest

from repro.algebra import simplify
from repro.algebra.expressions import Difference, Relation, SemiJoin, Union
from repro.algebra.simplify import (
    simplify_constraint,
    simplify_constraint_set,
    simplify_expression,
)
from repro.catalog.checkpoints import PersistentCheckpointStore
from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.compose.failure_memo import NormalizationFailureMemo
from repro.compose.left_compose import left_compose
from repro.compose.right_compose import right_compose
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.engine import (
    BatchComposer,
    BatchConfig,
    WorkloadConfig,
    compose_chain,
    generate_workload,
    pairwise_problems,
)
from repro.engine.fingerprint import chain_tokens
from repro.operators.registry import OperatorRegistry

R = Relation("R", 2)
S = Relation("S", 2)
T = Relation("T", 2)

STAMPS = ("_simplified_for", "_known_failures", "_simplified_marker")

CONFIGS = {
    "fixed_order": ComposerConfig,
    "cost_guided": ComposerConfig.cost_guided,
}


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        num_problems=8,
        min_chain_length=4,
        max_chain_length=7,
        schema_size=4,
        seed=1742,
    )
    return generate_workload(config)


def _cold(value):
    """A stamp-free copy: pickling drops every stamp."""
    return pickle.loads(pickle.dumps(value))


def _stamped(value):
    """Every object reachable from ``value`` that carries a stamp."""
    found = []
    seen = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if any(hasattr(node, stamp) for stamp in STAMPS):
            found.append(node)
        if isinstance(node, ConstraintSet):
            stack.extend(node)
        elif isinstance(node, (ContainmentConstraint, EqualityConstraint)):
            stack.extend(node.sides())
        else:
            stack.extend(node.children)
    return found


def _chain_fingerprint(result):
    return (
        result.constraints.to_text(),
        tuple(result.residual_symbols),
        tuple(
            (hop.attempted_symbols, hop.eliminated_symbols, hop.residual_symbols)
            for hop in result.hops
        ),
    )


def _composition_fingerprint(result):
    return (
        result.constraints.to_text(),
        tuple(sorted(result.residual_sigma2.names())),
        tuple((o.symbol, o.success, o.method) for o in result.outcomes),
        result.output_operator_count,
    )


def _count_simplify_walks(monkeypatch):
    walks = []
    walk = simplify._simplify_dag

    def counted(root, registry):
        walks.append(root)
        return walk(root, registry)

    monkeypatch.setattr(simplify, "_simplify_dag", counted)
    return walks


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestStampsDoNotChangeResults:
    def test_chains_identical_cold_warm_and_batched(self, workload, config_name):
        config = CONFIGS[config_name]()
        cold = [
            _chain_fingerprint(compose_chain(_cold(p.mappings), config))
            for p in workload
        ]
        warm = [
            [_chain_fingerprint(compose_chain(p.mappings, config)) for p in workload]
            for _ in range(2)
        ]
        report = BatchComposer(
            BatchConfig(composer_config=config, share_checkpoints=False)
        ).run_chains(workload)
        assert report.all_succeeded, report.summary()
        batched = [_chain_fingerprint(item.result) for item in report.items]
        assert cold == warm[0] == warm[1] == batched

    def test_pairwise_identical_cold_warm_and_batched(self, workload, config_name):
        config = CONFIGS[config_name]()
        problems = [p for chain in workload[:4] for p in pairwise_problems(chain)]
        cold = [_composition_fingerprint(compose(_cold(p), config)) for p in problems]
        warm = [
            [_composition_fingerprint(compose(p, config)) for p in problems]
            for _ in range(2)
        ]
        report = BatchComposer(BatchConfig(composer_config=config)).run(problems)
        assert report.all_succeeded, report.summary()
        batched = [_composition_fingerprint(item.result) for item in report.items]
        assert cold == warm[0] == warm[1] == batched


class TestSimplifyStamps:
    def test_simplify_agrees_on_workload_expressions(self, workload):
        expressions = [
            side
            for problem in workload
            for mapping in problem.mappings
            for constraint in mapping.constraints
            for side in constraint.sides()
        ]
        cold = [simplify_expression(_cold(e)) for e in expressions]
        warm = [simplify_expression(e) for e in expressions]
        again = [simplify_expression(e) for e in warm]
        assert cold == warm == again
        # A stamped output comes back as-is.
        assert all(a is b for a, b in zip(warm, again))

    def test_stamped_input_is_not_walked(self, monkeypatch):
        walks = _count_simplify_walks(monkeypatch)
        registry = OperatorRegistry()
        constraints = ConstraintSet([ContainmentConstraint(Union(R, R), S)])
        first = simplify_constraint_set(constraints, registry)
        assert list(first) == [ContainmentConstraint(R, S)]
        assert len(walks) == 2  # one per side
        assert simplify_constraint_set(first, registry) is first
        (constraint,) = first
        assert simplify_constraint(constraint, registry) is constraint
        assert simplify_expression(constraint.left, registry) is constraint.left
        assert len(walks) == 2

    def test_registering_a_rule_retires_simplify_stamps(self, monkeypatch):
        walks = _count_simplify_walks(monkeypatch)
        registry = OperatorRegistry()
        first = simplify_constraint_set(
            ConstraintSet([ContainmentConstraint(Union(R, R), S)]), registry
        )
        assert len(walks) == 2

        def rewrite_r(node):
            if isinstance(node, Relation) and node.name == "R":
                return T
            return None

        registry.register_operator(Relation, simplification_rule=rewrite_r)
        second = simplify_constraint_set(first, registry)
        assert list(second) == [ContainmentConstraint(T, S)]
        assert len(walks) == 4  # both sides walked again under the new rules

        registry.unregister(Relation)
        simplify_constraint_set(second, registry)
        assert len(walks) == 6

    def test_a_copied_registry_has_its_own_token(self):
        registry = OperatorRegistry()
        clone = registry.copy()
        assert clone.rules_token is not registry.rules_token
        assert clone.fingerprint() == registry.fingerprint()
        stamped = simplify_expression(Union(R, S), registry)
        assert stamped._simplified_for is registry.rules_token
        assert simplify_expression(stamped, clone)._simplified_for is clone.rules_token


class TestFailureStamps:
    def test_registering_a_rule_retires_failure_stamps(self, monkeypatch):
        registry = OperatorRegistry()
        # S is anti-monotone on the right: left compose fails its step 1.
        constraint = ContainmentConstraint(R, Difference(T, S))
        assert left_compose(ConstraintSet([constraint]), "S", 2, registry) is None

        def probe(kind="left-compose", on=registry, symbol="S"):
            return NormalizationFailureMemo(kind, on, symbol).any_known([constraint])

        assert probe()
        # The stamp is scoped by kind, symbol and rule set.
        assert not probe(kind="right-compose")
        assert not probe(symbol="T")
        assert not probe(on=registry.copy())
        assert not probe(on=None)

        # The next attempt stops at the entry probe.
        left_compose_module = importlib.import_module("repro.compose.left_compose")

        def no_check(*args):
            raise AssertionError("the entry probe missed the stamp")

        monkeypatch.setattr(left_compose_module, "monotonicity", no_check)
        assert left_compose(ConstraintSet([constraint]), "S", 2, registry) is None
        monkeypatch.undo()

        registry.register_operator(SemiJoin)
        assert not probe()
        assert left_compose(ConstraintSet([constraint]), "S", 2, registry) is None
        assert probe()
        registry.unregister(SemiJoin)
        assert not probe()

    @pytest.mark.parametrize(
        "step, kind", [(left_compose, "left-compose"), (right_compose, "right-compose")]
    )
    def test_split_equality_failure_is_stamped_on_the_equality(
        self, monkeypatch, step, kind
    ):
        registry = OperatorRegistry()
        # Split, T = R − S gives T ⊆ R − S (S anti-monotone on the right)
        # and R − S ⊆ T (S anti-monotone on the left): each step fails on
        # one of the parts.
        equality = EqualityConstraint(T, Difference(R, S))
        assert step(ConstraintSet([equality]), "S", 2, registry) is None
        token, failures = equality._known_failures
        assert token is registry.rules_token
        assert failures == {(kind, "S")}

        # The next attempt stops at the entry probe, before it splits.
        def no_split(self, name=None):
            raise AssertionError("the entry probe missed the stamp")

        monkeypatch.setattr(ConstraintSet, "with_equalities_split", no_split)
        assert step(ConstraintSet([equality]), "S", 2, registry) is None


class TestStampsDoNotSurvivePickling:
    def test_expression_constraint_and_set(self):
        registry = OperatorRegistry()
        constraints = simplify_constraint_set(
            ConstraintSet([ContainmentConstraint(R, Difference(T, S))]), registry
        )
        (constraint,) = constraints
        assert left_compose(constraints, "S", 2, registry) is None
        assert hasattr(constraints, "_simplified_marker")
        assert hasattr(constraint, "_simplified_for")
        assert hasattr(constraint, "_known_failures")
        assert hasattr(constraint.right, "_simplified_for")
        for value in (constraint.right, constraint, constraints):
            copy = _cold(value)
            assert copy == value
            assert _stamped(copy) == []

    def test_persistent_checkpoint(self, workload, tmp_path):
        config = ComposerConfig()
        mappings = workload[0].mappings
        store = PersistentCheckpointStore(tmp_path)
        compose_chain(mappings, config, checkpoints=store)
        last = chain_tokens(mappings, config, True)[-1]
        hot = store.get(last)
        assert _stamped(hot.constraints)

        cold = PersistentCheckpointStore(tmp_path).get(last)
        assert cold is not None and cold is not hot
        assert cold.constraints.to_text() == hot.constraints.to_text()
        assert _stamped(cold.constraints) == []


class TestConcurrentStamps:
    def test_threads_racing_on_one_config_agree(self, workload):
        # Stamps take no lock: a lost race may only repeat work, never
        # change an output.  Every thread composes the same stamp-free
        # objects under one config, each in its own order.
        expected = [
            _chain_fingerprint(compose_chain(_cold(p.mappings), ComposerConfig()))
            for p in workload
        ]
        chains = [_cold(p.mappings) for p in workload]
        config = ComposerConfig()
        workers = 6
        results = {}
        errors = []

        def work(offset):
            order = list(range(offset, len(chains))) + list(range(offset))
            try:
                results[offset] = {
                    index: _chain_fingerprint(compose_chain(chains[index], config))
                    for index in order
                }
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,)) for offset in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for offset in range(workers):
            assert [results[offset][index] for index in range(len(chains))] == expected
