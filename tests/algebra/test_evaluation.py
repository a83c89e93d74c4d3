"""Tests for the set-semantics evaluator."""

import pytest

from repro.algebra.conditions import equals, equals_const
from repro.algebra.evaluation import Evaluator, SkolemInterpretation, evaluate
from repro.algebra.expressions import (
    AntiSemiJoin,
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Intersection,
    LeftOuterJoin,
    Projection,
    Relation,
    Selection,
    SemiJoin,
    SkolemApplication,
    SkolemFunction,
    TransitiveClosure,
    Union,
)
from repro.algebra.terms import NULL
from repro.exceptions import EvaluationError
from repro.schema.instance import Instance


@pytest.fixture
def instance():
    return Instance(
        {
            "R": {(1, 2), (2, 3)},
            "S": {(2, 3), (4, 5)},
            "U": {(1,), (4,)},
        }
    )


R = Relation("R", 2)
S = Relation("S", 2)
U = Relation("U", 1)


class TestBasicOperators:
    def test_relation(self, instance):
        assert evaluate(R, instance) == frozenset({(1, 2), (2, 3)})

    def test_missing_relation_is_empty(self, instance):
        assert evaluate(Relation("Z", 2), instance) == frozenset()

    def test_relation_arity_mismatch_raises(self, instance):
        with pytest.raises(EvaluationError):
            evaluate(Relation("R", 3), instance)

    def test_union(self, instance):
        assert evaluate(Union(R, S), instance) == frozenset({(1, 2), (2, 3), (4, 5)})

    def test_intersection(self, instance):
        assert evaluate(Intersection(R, S), instance) == frozenset({(2, 3)})

    def test_difference(self, instance):
        assert evaluate(Difference(R, S), instance) == frozenset({(1, 2)})

    def test_cross_product(self, instance):
        result = evaluate(CrossProduct(U, U), instance)
        assert result == frozenset({(1, 1), (1, 4), (4, 1), (4, 4)})

    def test_selection_attribute(self, instance):
        assert evaluate(Selection(R, equals_const(0, 2)), instance) == frozenset({(2, 3)})

    def test_selection_join_condition(self, instance):
        joined = Selection(CrossProduct(R, S), equals(1, 2))
        assert evaluate(joined, instance) == frozenset({(1, 2, 2, 3)})

    def test_projection(self, instance):
        assert evaluate(Projection(R, (1,)), instance) == frozenset({(2,), (3,)})

    def test_projection_reorder_duplicate(self, instance):
        assert evaluate(Projection(R, (1, 0, 1)), instance) == frozenset(
            {(2, 1, 2), (3, 2, 3)}
        )

    def test_empty(self, instance):
        assert evaluate(Empty(2), instance) == frozenset()

    def test_constant_relation(self, instance):
        assert evaluate(ConstantRelation.singleton("c"), instance) == frozenset({("c",)})


class TestDomain:
    def test_active_domain_unary(self, instance):
        domain = evaluate(Domain(1), instance)
        assert domain == frozenset({(v,) for v in (1, 2, 3, 4, 5)})

    def test_active_domain_binary_size(self, instance):
        assert len(evaluate(Domain(2), instance)) == 25

    def test_extra_domain_values(self, instance):
        domain = evaluate(Domain(1), instance, extra_domain=["x"])
        assert ("x",) in domain

    def test_domain_size_limit(self, instance):
        with pytest.raises(EvaluationError):
            evaluate(Domain(3), instance, max_tuples=10)

    def test_product_size_limit(self, instance):
        with pytest.raises(EvaluationError):
            evaluate(CrossProduct(Domain(2), Domain(2)), instance, max_tuples=100)


class TestSkolemEvaluation:
    def test_requires_interpretation(self, instance):
        expression = SkolemApplication(R, SkolemFunction("f", (0,)))
        with pytest.raises(EvaluationError):
            evaluate(expression, instance)

    def test_with_interpretation(self, instance):
        expression = SkolemApplication(R, SkolemFunction("f", (0,)))
        skolems = SkolemInterpretation(functions={"f": lambda args: args[0] * 10})
        result = evaluate(expression, instance, skolems=skolems)
        assert result == frozenset({(1, 2, 10), (2, 3, 20)})

    def test_default_interpretation(self, instance):
        expression = SkolemApplication(R, SkolemFunction("g", (0, 1)))
        skolems = SkolemInterpretation(default=lambda name, args: (name, args))
        result = evaluate(expression, instance, skolems=skolems)
        assert (1, 2, ("g", (1, 2))) in result


class TestExtendedOperators:
    def test_semijoin(self, instance):
        # R rows whose second column appears as S's first column.
        expression = SemiJoin(R, S, equals(1, 2))
        assert evaluate(expression, instance) == frozenset({(1, 2), (2, 3)}) - frozenset(
            {(2, 3)}
        ) | frozenset({(1, 2)})

    def test_semijoin_simple(self):
        instance = Instance({"R": {(1,), (2,)}, "S": {(2,)}})
        expression = SemiJoin(Relation("R", 1), Relation("S", 1), equals(0, 1))
        assert evaluate(expression, instance) == frozenset({(2,)})

    def test_antisemijoin(self):
        instance = Instance({"R": {(1,), (2,)}, "S": {(2,)}})
        expression = AntiSemiJoin(Relation("R", 1), Relation("S", 1), equals(0, 1))
        assert evaluate(expression, instance) == frozenset({(1,)})

    def test_leftouterjoin_matching_and_padding(self):
        instance = Instance({"R": {(1,), (2,)}, "S": {(2, "x")}})
        expression = LeftOuterJoin(Relation("R", 1), Relation("S", 2), equals(0, 1))
        result = evaluate(expression, instance)
        assert (2, 2, "x") in result
        assert (1, NULL, NULL) in result
        assert len(result) == 2

    def test_transitive_closure_of_a_chain(self):
        instance = Instance({"E": {(1, 2), (2, 3), (3, 4)}})
        assert evaluate(TransitiveClosure(Relation("E", 2)), instance) == frozenset(
            {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}
        )

    def test_transitive_closure_of_a_cycle(self):
        instance = Instance({"E": {(1, 2), (2, 3), (3, 1)}})
        result = evaluate(TransitiveClosure(Relation("E", 2)), instance)
        assert result == frozenset((a, b) for a in (1, 2, 3) for b in (1, 2, 3))

    def test_transitive_closure_of_the_empty_relation(self):
        instance = Instance({"E": set(), "F": {(1, 2)}})
        assert evaluate(TransitiveClosure(Relation("E", 2)), instance) == frozenset()
        assert evaluate(TransitiveClosure(Empty(2)), instance) == frozenset()


class TestEvaluatorObject:
    def test_caching_returns_same_result(self, instance):
        evaluator = Evaluator(instance)
        first = evaluator.evaluate(Union(R, S))
        second = evaluator.evaluate(Union(R, S))
        assert first is second

    def test_active_domain_property(self, instance):
        evaluator = Evaluator(instance, extra_domain=["zz"])
        assert "zz" in evaluator.active_domain

    def test_unknown_expression_type_raises(self, instance):
        class Strange:
            pass

        with pytest.raises(EvaluationError):
            Evaluator(instance)._dispatch(Strange())


class TestAlgebraicIdentitiesSemantically:
    """Spot-check classical identities against the evaluator."""

    def test_difference_union_identity(self, instance):
        left = Difference(R, S)
        right = Union(S, Relation("T", 2))
        # A − B ⊆ C iff A ⊆ B ∪ C; verify on this instance for C = T (empty).
        lhs_holds = evaluate(Difference(R, S), instance) <= evaluate(Relation("T", 2), instance)
        rhs_holds = evaluate(R, instance) <= evaluate(Union(S, Relation("T", 2)), instance)
        assert lhs_holds == rhs_holds

    def test_projection_of_domain(self, instance):
        assert evaluate(Projection(Domain(2), (0,)), instance) == evaluate(Domain(1), instance)

    def test_selection_true_subset_of_domain(self, instance):
        assert evaluate(R, instance) <= evaluate(Domain(2), instance)
