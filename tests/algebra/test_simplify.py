"""Tests for algebraic simplification (D- and ∅-identities and friends)."""

import pytest

from repro.algebra.conditions import FALSE, TRUE, equals, equals_const
from repro.algebra.expressions import (
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Intersection,
    Projection,
    Relation,
    Selection,
    Union,
)
from repro.algebra.evaluation import evaluate
from repro.algebra.simplify import (
    is_trivially_satisfied,
    simplify_constraint,
    simplify_constraint_set,
    simplify_expression,
)
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.operators.registry import default_registry
from repro.schema.instance import Instance

R = Relation("R", 2)
S = Relation("S", 2)


class TestDomainIdentities:
    def test_union_with_domain(self):
        assert simplify_expression(Union(R, Domain(2))) == Domain(2)
        assert simplify_expression(Union(Domain(2), R)) == Domain(2)

    def test_intersection_with_domain(self):
        assert simplify_expression(Intersection(R, Domain(2))) == R
        assert simplify_expression(Intersection(Domain(2), R)) == R

    def test_difference_with_domain(self):
        assert simplify_expression(Difference(R, Domain(2))) == Empty(2)

    def test_projection_of_domain_distinct(self):
        assert simplify_expression(Projection(Domain(3), (0, 2))) == Domain(2)

    def test_projection_of_domain_with_duplicates_not_rewritten(self):
        # π_{0,0}(D^1) is a diagonal, not D^2: the rewrite must NOT fire.
        expression = Projection(Domain(1), (0, 0))
        assert simplify_expression(expression) == expression

    def test_product_of_domains(self):
        assert simplify_expression(CrossProduct(Domain(1), Domain(2))) == Domain(3)


class TestEmptyIdentities:
    def test_union_with_empty(self):
        assert simplify_expression(Union(R, Empty(2))) == R
        assert simplify_expression(Union(Empty(2), R)) == R

    def test_intersection_with_empty(self):
        assert simplify_expression(Intersection(R, Empty(2))) == Empty(2)

    def test_difference_with_empty(self):
        assert simplify_expression(Difference(R, Empty(2))) == R
        assert simplify_expression(Difference(Empty(2), R)) == Empty(2)

    def test_product_with_empty(self):
        assert simplify_expression(CrossProduct(R, Empty(1))) == Empty(3)

    def test_selection_of_empty(self):
        assert simplify_expression(Selection(Empty(2), equals(0, 1))) == Empty(2)

    def test_projection_of_empty(self):
        assert simplify_expression(Projection(Empty(3), (0,))) == Empty(1)


class TestStructuralSimplifications:
    def test_idempotent_union(self):
        assert simplify_expression(Union(R, R)) == R

    def test_idempotent_intersection(self):
        assert simplify_expression(Intersection(R, R)) == R

    def test_self_difference(self):
        assert simplify_expression(Difference(R, R)) == Empty(2)

    def test_true_selection_dropped(self):
        assert simplify_expression(Selection(R, TRUE)) == R

    def test_false_selection_is_empty(self):
        assert simplify_expression(Selection(R, FALSE)) == Empty(2)

    def test_nested_selections_merge(self):
        expression = Selection(Selection(R, equals_const(0, 1)), equals_const(1, 2))
        simplified = simplify_expression(expression)
        assert isinstance(simplified, Selection)
        assert not isinstance(simplified.child, Selection)

    def test_identity_projection_dropped(self):
        assert simplify_expression(Projection(R, (0, 1))) == R

    def test_nested_projections_compose(self):
        expression = Projection(Projection(R, (1, 0)), (1,))
        assert simplify_expression(expression) == Projection(R, (0,))

    def test_simplification_cascades(self):
        expression = Union(Intersection(R, Domain(2)), Empty(2))
        assert simplify_expression(expression) == R

    def test_registry_rule_applied(self):
        from repro.algebra.expressions import SemiJoin

        expression = SemiJoin(R, Empty(2), equals(0, 2))
        assert simplify_expression(expression, default_registry()) == Empty(2)

    def test_plain_expression_unchanged(self):
        expression = Union(R, S)
        assert simplify_expression(expression) == expression


class TestSemanticPreservation:
    @pytest.mark.parametrize(
        "expression",
        [
            Union(R, Empty(2)),
            Intersection(R, Domain(2)),
            Difference(R, Domain(2)),
            Union(Intersection(R, Domain(2)), Empty(2)),
            Projection(Projection(CrossProduct(R, S), (0, 1, 3)), (2, 0)),
            Selection(Selection(R, equals_const(0, 1)), equals_const(1, 2)),
        ],
    )
    def test_simplify_preserves_semantics(self, expression):
        instance = Instance({"R": {(1, 2), (2, 2)}, "S": {(2, 2), (3, 1)}})
        assert evaluate(simplify_expression(expression), instance) == evaluate(
            expression, instance
        )


class TestConstraintSimplification:
    def test_trivial_containment_detected(self):
        assert is_trivially_satisfied(ContainmentConstraint(R, R))
        assert is_trivially_satisfied(ContainmentConstraint(Empty(2), R))
        assert is_trivially_satisfied(ContainmentConstraint(R, Domain(2)))
        assert not is_trivially_satisfied(ContainmentConstraint(R, S))

    def test_trivial_equality_detected(self):
        assert is_trivially_satisfied(EqualityConstraint(R, R))
        assert not is_trivially_satisfied(EqualityConstraint(R, S))

    def test_simplify_constraint_both_sides(self):
        constraint = ContainmentConstraint(Union(R, Empty(2)), Intersection(S, Domain(2)))
        assert simplify_constraint(constraint) == ContainmentConstraint(R, S)

    def test_simplify_constraint_preserves_kind(self):
        constraint = EqualityConstraint(Union(R, Empty(2)), S)
        simplified = simplify_constraint(constraint)
        assert isinstance(simplified, EqualityConstraint)

    def test_simplify_constraint_set_drops_trivial(self):
        constraints = ConstraintSet(
            [
                ContainmentConstraint(R, Domain(2)),
                ContainmentConstraint(Union(R, Empty(2)), S),
            ]
        )
        simplified = simplify_constraint_set(constraints)
        assert list(simplified) == [ContainmentConstraint(R, S)]

    def test_simplify_constraint_set_keep_trivial(self):
        constraints = ConstraintSet([ContainmentConstraint(R, Domain(2))])
        kept = simplify_constraint_set(constraints, drop_trivial=False)
        assert len(kept) == 1


class TestRegistryVersionInvalidation:
    """Registering a rule mid-run must invalidate 'already simplified' marks."""

    def test_new_rule_applies_after_registration(self):
        from repro.operators.registry import OperatorRegistry

        registry = OperatorRegistry()
        constraints = ConstraintSet([ContainmentConstraint(Union(R, R), S)])
        first = simplify_constraint_set(constraints, registry)
        # ∪ is idempotent, so the built-in rules already collapse R ∪ R.
        assert list(first) == [ContainmentConstraint(R, S)]

        # A (contrived) rule rewriting the bare relation R to T.
        def rewrite_r(node):
            if isinstance(node, Relation) and node.name == "R":
                return Relation("T", 2)
            return None

        registry.register_operator(Relation, simplification_rule=rewrite_r)
        second = simplify_constraint_set(first, registry)
        assert list(second) == [
            ContainmentConstraint(Relation("T", 2), S)
        ]
