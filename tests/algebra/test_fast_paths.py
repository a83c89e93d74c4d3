"""The expression kernel's fast paths give exactly what the slow paths give.

Each fast path here replaced a general one on the composition hot path:

* ``node_summary`` summarizes a node whose children are all summarized
  directly, without the explicit-stack walk;
* substitution and simplification key their per-call memos by object
  identity, so a shared subtree is rewritten once while equal-but-distinct
  subtrees are rewritten separately;
* view unfolding derives the unfolded set's operator count from its parent's;
* projection validates its indices with ``min``/``max`` and walks them only
  to report the first bad one.

Every test compares the fast path against an independent reference (a plain
recursive reimplementation, or a fresh tree with no shared objects), so a
fast path that changes a result fails here.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.conditions import And, Comparison, equals, equals_const
from repro.algebra.digest import expression_digest
from repro.algebra.expressions import (
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
    Intersection,
    Projection,
    Relation,
    Selection,
    SkolemApplication,
    SkolemFunction,
    Union,
)
from repro.algebra.simplify import simplify_expression
from repro.algebra.summary import NodeSummary, node_summary
from repro.algebra.terms import Attribute
from repro.algebra.traversal import substitute_relation, substitute_relations
from repro.compose.view_unfolding import unfold_view
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.engine import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import ArityError

# ---------------------------------------------------------------------------
# References: plain recursion, no caches, no sharing
# ---------------------------------------------------------------------------


def reference_summary(expression: Expression) -> NodeSummary:
    children = expression.children
    if not children:
        names = (
            frozenset((expression.name,)) if isinstance(expression, Relation) else frozenset()
        )
        return NodeSummary(
            0, 1, 1, names, False, isinstance(expression, Domain), isinstance(expression, Empty)
        )
    subs = [reference_summary(child) for child in children]
    return NodeSummary(
        operator_count=1 + sum(s.operator_count for s in subs),
        node_count=1 + sum(s.node_count for s in subs),
        depth=1 + max(s.depth for s in subs),
        relation_names=frozenset().union(*(s.relation_names for s in subs)),
        contains_skolem=isinstance(expression, SkolemApplication)
        or any(s.contains_skolem for s in subs),
        contains_domain=any(s.contains_domain for s in subs),
        contains_empty=any(s.contains_empty for s in subs),
    )


def fresh_copy(expression: Expression) -> Expression:
    """A structurally equal tree sharing no node with ``expression``."""
    children = expression.children
    if not children:
        return dataclasses.replace(expression)
    return expression.with_children(tuple(fresh_copy(child) for child in children))


def reference_substitute(expression: Expression, name: str, replacement: Expression):
    if isinstance(expression, Relation):
        return replacement if expression.name == name else expression
    children = expression.children
    if not children:
        return expression
    return expression.with_children(
        tuple(reference_substitute(child, name, replacement) for child in children)
    )


def post_order(expression: Expression):
    """Every node object once, children before parents."""
    seen = set()
    order = []
    stack = [(expression, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((child, False) for child in node.children)
    return order


# ---------------------------------------------------------------------------
# Strategy: small expressions, some of them DAG-shaped
# ---------------------------------------------------------------------------

RELATIONS = {"R": 2, "S": 2, "T": 1}


def leaves():
    return st.sampled_from(
        [Relation(name, arity) for name, arity in RELATIONS.items()]
        + [Domain(1), Domain(2), Empty(1), Empty(2), ConstantRelation.singleton(7)]
    ).map(dataclasses.replace)


@st.composite
def expressions(draw, depth: int = 4) -> Expression:
    """Random expressions; ``share`` reuses one child object for both operands."""
    if depth == 0:
        return draw(leaves())
    choice = draw(st.integers(min_value=0, max_value=8))
    if choice == 0:
        return draw(leaves())
    child = draw(expressions(depth=depth - 1))
    if choice in (1, 2, 3):
        share = draw(st.booleans())
        other = child if share else draw(expressions(depth=depth - 1))
        if other.arity != child.arity:
            other = Projection(other, tuple(i % other.arity for i in range(child.arity)))
        return (Union, Intersection, Difference)[choice - 1](child, other)
    if choice == 4:
        other = child if draw(st.booleans()) else draw(expressions(depth=depth - 1))
        if child.arity + other.arity > 5:
            return Projection(child, (0,))
        return CrossProduct(child, other)
    if choice == 5:
        column = draw(st.integers(min_value=0, max_value=child.arity - 1))
        condition = draw(
            st.sampled_from(
                [equals_const(column, 1), equals(0, column), And(equals(0, column), equals_const(0, 2))]
            )
        )
        return Selection(child, condition)
    if choice == 6:
        return SkolemApplication(child, SkolemFunction("f", (0,)))
    if choice == 7:
        return Selection(child, Comparison(Attribute(0), "<", Attribute(child.arity - 1)))
    indices = draw(
        st.lists(st.integers(min_value=0, max_value=child.arity - 1), min_size=1, max_size=3)
    )
    return Projection(child, tuple(indices))


# ---------------------------------------------------------------------------
# node_summary
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(expressions())
def test_direct_summary_equals_stack_walk(expression):
    walked = fresh_copy(expression)
    direct = fresh_copy(expression)
    # One call on an unsummarized root takes the stack walk.
    walked_summary = node_summary(walked)
    # Summarizing children before parents takes the direct path at every node.
    for node in post_order(direct):
        node_summary(node)
    assert node_summary(direct) == walked_summary == reference_summary(expression)
    for node in post_order(direct):
        assert node._summary == reference_summary(node)


@settings(max_examples=40, deadline=None)
@given(expressions())
def test_summary_pass_warms_hashes_on_both_paths(expression):
    for node in post_order(expression):
        node_summary(node)
        assert "_hash_value" in node.__dict__


# ---------------------------------------------------------------------------
# Identity-keyed substitution and simplification
# ---------------------------------------------------------------------------


def _shared_dag():
    shared = Projection(CrossProduct(Relation("R", 2), Relation("S", 2)), (0, 3))
    return Union(shared, shared)


def _distinct_tree():
    return Union(
        Projection(CrossProduct(Relation("R", 2), Relation("S", 2)), (0, 3)),
        Projection(CrossProduct(Relation("R", 2), Relation("S", 2)), (0, 3)),
    )


@pytest.mark.parametrize("build", [_shared_dag, _distinct_tree], ids=["shared", "distinct"])
def test_substitute_matches_a_fresh_rebuild(build):
    replacement = Intersection(Relation("A", 2), Relation("B", 2))
    expression = build()
    result = substitute_relation(expression, "R", replacement)
    expected = fresh_copy(
        Union(
            Projection(CrossProduct(replacement, Relation("S", 2)), (0, 3)),
            Projection(CrossProduct(replacement, Relation("S", 2)), (0, 3)),
        )
    )
    assert result == expected
    assert str(result) == str(expected)
    assert expression_digest(result) == expression_digest(expected)
    # The substituted tree comes out summarized, and the summaries are right.
    for node in post_order(result):
        assert node._summary == reference_summary(node)
    # The input is untouched.
    assert expression == fresh_copy(build())


def test_shared_subtree_is_rewritten_once():
    result = substitute_relation(_shared_dag(), "R", Relation("A", 2))
    assert result.left is result.right


@settings(max_examples=80, deadline=None)
@given(expressions(), st.sampled_from(sorted(RELATIONS)))
def test_substitute_equals_recursive_reference(expression, name):
    replacement = Union(Relation("Z", RELATIONS[name]), Relation("Y", RELATIONS[name]))
    result = substitute_relation(expression, name, replacement)
    expected = reference_substitute(fresh_copy(expression), name, replacement)
    assert result == expected
    assert str(result) == str(expected)
    both = substitute_relations(expression, {name: replacement, "Q": Relation("Q", 1)})
    assert both == expected


@settings(max_examples=80, deadline=None)
@given(expressions())
def test_simplify_on_a_dag_equals_simplify_on_its_tree_copy(expression):
    from_dag = simplify_expression(expression)
    from_tree = simplify_expression(fresh_copy(expression))
    assert from_dag == from_tree
    assert str(from_dag) == str(from_tree)
    assert expression_digest(from_dag) == expression_digest(from_tree)


def test_simplify_keeps_shared_and_distinct_subtrees_apart_correctly():
    keep = Selection(Relation("R", 2), equals_const(0, 1))
    shared = Union(keep, Empty(2))
    dag = CrossProduct(shared, shared)
    distinct = CrossProduct(Union(keep, Empty(2)), Union(fresh_copy(keep), Empty(2)))
    for expression in (dag, distinct):
        result = simplify_expression(expression)
        assert result == CrossProduct(keep, keep)
        assert str(result) == str(CrossProduct(keep, keep))


# ---------------------------------------------------------------------------
# View unfolding's derived operator count
# ---------------------------------------------------------------------------


def _recount(constraints):
    return sum(constraint.operator_count() for constraint in constraints)


def test_unfold_view_derives_the_operator_count():
    a, r, s, t = (Relation(n, 2) for n in "ARST")
    constraints = ConstraintSet(
        [
            EqualityConstraint(a, Union(r, s)),
            ContainmentConstraint(Intersection(a, t), r),
            ContainmentConstraint(t, Difference(a, s)),
        ]
    )
    result = unfold_view(constraints, "A")
    assert len(result) == 2
    # Derived from the parent set, before anyone recounted it.
    assert result._operator_count == _recount(result)
    assert result.operator_count() == _recount(result) == 4


def test_unfold_view_recounts_when_dedup_collapses_constraints():
    a, r, s, t = (Relation(n, 2) for n in "ARST")
    constraints = ConstraintSet(
        [
            EqualityConstraint(a, Union(r, s)),
            ContainmentConstraint(a, t),
            # Becomes a copy of the constraint above once A is unfolded.
            ContainmentConstraint(Union(r, s), t),
            ContainmentConstraint(Intersection(a, t), r),
        ]
    )
    result = unfold_view(constraints, "A")
    assert len(result) == 2
    assert result.operator_count() == _recount(result) == 3


def test_unfold_view_count_on_generated_workloads():
    checked = 0
    for chain in generate_workload(WorkloadConfig(num_problems=6, seed=17)):
        for problem in pairwise_problems(chain):
            constraints = problem.all_constraints
            for symbol in problem.sigma2.names():
                result = unfold_view(constraints, symbol)
                if result is None:
                    continue
                assert result.operator_count() == _recount(result)
                positions = constraints.indices_mentioning(symbol)
                assert unfold_view(constraints, symbol, positions) == result
                constraints = result
                checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# Validation errors keep their messages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "indices, message",
    [
        ((0, 2), "projection index 2 out of range for input arity 2"),
        ((-1, 0), "projection index -1 out of range for input arity 2"),
        ((1, 5, -3), "projection index 5 out of range for input arity 2"),
        ((-3, 5), "projection index -3 out of range for input arity 2"),
    ],
)
def test_projection_range_errors_keep_their_messages(indices, message):
    with pytest.raises(ArityError) as raised:
        Projection(Relation("R", 2), indices)
    assert str(raised.value) == message


def test_projection_still_normalizes_indices_to_ints():
    projection = Projection(Relation("R", 3), ("2", 0.0, True))
    assert projection.indices == (2, 0, 1)
    assert all(type(index) is int for index in projection.indices)
    with pytest.raises(ArityError) as raised:
        Projection(Relation("R", 2), ())
    assert str(raised.value) == "projection must keep at least one column"


def test_selection_range_error_keeps_its_message():
    condition = And(equals(0, 3), equals_const(1, "x"))
    with pytest.raises(ArityError) as raised:
        Selection(Relation("R", 2), condition)
    assert str(raised.value) == (
        "selection condition references column #3 but the input has arity 2"
    )
    # The cached maximum is the computed one, and it leaves the condition's
    # equality, hash, repr and pickle untouched.
    fresh = And(equals(0, 3), equals_const(1, "x"))
    assert condition.max_index() == 3 == max(fresh.referenced_indices())
    assert condition == fresh and hash(condition) == hash(fresh)
    assert repr(condition) == repr(fresh)
    assert pickle.loads(pickle.dumps(condition)) == fresh
