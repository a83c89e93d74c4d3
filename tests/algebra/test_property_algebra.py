"""Property-based tests (Hypothesis) for the algebra core.

Strategies build random expressions over a fixed small signature and random
small instances; the properties assert that

* the printer/parser round-trip is the identity, for every library node type
  and every literal kind that reads back (integers, finite floats, strings),
* simplification never changes the semantics of an expression,
* evaluation respects basic well-formedness (arity of produced tuples).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algebra.conditions import And, Comparison, Not, Or
from repro.algebra.digest import expression_digest
from repro.algebra.evaluation import evaluate
from repro.algebra.expressions import (
    AntiSemiJoin,
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
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
from repro.algebra.parser import parse_expression
from repro.algebra.printer import expression_to_text
from repro.algebra.simplify import simplify_expression
from repro.algebra.terms import Attribute, Constant
from repro.schema.instance import Instance
from repro.schema.signature import Signature

#: The relations random expressions draw from.
BASE_RELATIONS = {"R": 2, "S": 2, "T": 1}
SIGNATURE = Signature.from_arities(BASE_RELATIONS)
DOMAIN_VALUES = [0, 1, 2]
#: Literals that print and read back as themselves.  ``True``, ``None``,
#: ``nan`` and ``inf`` do not yet (ROADMAP item 12).
LITERALS = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def conditions(arity: int, values=st.sampled_from(DOMAIN_VALUES)) -> st.SearchStrategy:
    """Random conditions over tuples of the given arity."""
    indices = st.integers(min_value=0, max_value=arity - 1)
    terms = st.one_of(indices.map(Attribute), values.map(Constant))
    comparisons = st.builds(
        Comparison, terms, st.sampled_from(["=", "!=", "<", "<="]), terms
    )
    return st.recursive(
        comparisons,
        lambda children: st.one_of(
            st.builds(lambda a, b: And(a, b), children, children),
            st.builds(lambda a, b: Or(a, b), children, children),
            children.map(Not),
        ),
        max_leaves=4,
    )


def leaf_expressions() -> st.SearchStrategy:
    relations = st.sampled_from(
        [Relation(name, arity) for name, arity in BASE_RELATIONS.items()]
    )
    specials = st.sampled_from([Domain(1), Domain(2), Empty(1), Empty(2)])
    return st.one_of(relations, specials)


@st.composite
def expressions(draw, max_depth: int = 3) -> Expression:
    """Random well-formed expressions of bounded depth and arity."""
    if max_depth == 0:
        return draw(leaf_expressions())
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return draw(leaf_expressions())
    if choice in (1, 2, 3):
        left = draw(expressions(max_depth=max_depth - 1))
        right = draw(expressions(max_depth=max_depth - 1))
        if left.arity != right.arity:
            # Make the arities agree by projecting the wider one.
            wide, narrow = (left, right) if left.arity > right.arity else (right, left)
            wide = Projection(wide, tuple(range(narrow.arity)))
            left, right = (wide, narrow) if left.arity > right.arity else (narrow, wide)
        constructor = (Union, Intersection, Difference)[choice - 1]
        return constructor(left, right)
    if choice == 4:
        left = draw(expressions(max_depth=max_depth - 1))
        right = draw(expressions(max_depth=max_depth - 1))
        if left.arity + right.arity > 4:
            return left
        return CrossProduct(left, right)
    if choice == 5:
        child = draw(expressions(max_depth=max_depth - 1))
        condition = draw(conditions(child.arity))
        return Selection(child, condition)
    child = draw(expressions(max_depth=max_depth - 1))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=child.arity - 1), min_size=1, max_size=3
        )
    )
    return Projection(child, tuple(indices))


_JOINS = {"semijoin": SemiJoin, "antisemijoin": AntiSemiJoin, "leftouterjoin": LeftOuterJoin}
_SAME_ARITY = {"union": Union, "intersect": Intersection, "difference": Difference}


@st.composite
def printable_expressions(draw, max_depth: int = 3) -> Expression:
    """Random expressions over every library node type, with any literal."""
    kinds = ["leaf", "const"]
    if max_depth > 0:
        kinds += ["select", "project", "skolem", "tclosure", "product", *_JOINS, *_SAME_ARITY]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(leaf_expressions())
    if kind == "const":
        width = draw(st.integers(min_value=1, max_value=2))
        rows = draw(st.lists(st.tuples(*[LITERALS] * width), min_size=1, max_size=2))
        return ConstantRelation(tuple(rows), width)
    left = draw(printable_expressions(max_depth=max_depth - 1))
    columns = st.integers(min_value=0, max_value=left.arity - 1)
    if kind == "select":
        return Selection(left, draw(conditions(left.arity, LITERALS)))
    if kind == "project":
        return Projection(left, tuple(draw(st.lists(columns, min_size=1, max_size=3))))
    if kind == "skolem":
        name = draw(st.sampled_from(["f", "g"]))
        return SkolemApplication(left, SkolemFunction(name, tuple(draw(st.sets(columns)))))
    if kind == "tclosure":
        pair = left if left.arity == 2 else Projection(left, (0, left.arity - 1))
        return TransitiveClosure(pair)
    right = draw(printable_expressions(max_depth=max_depth - 1))
    if kind == "product":
        return CrossProduct(left, right)
    if kind in _JOINS:
        return _JOINS[kind](left, right, draw(conditions(left.arity + right.arity, LITERALS)))
    if right.arity != left.arity:
        right = Projection(right, tuple(min(i, right.arity - 1) for i in range(left.arity)))
    return _SAME_ARITY[kind](left, right)


@st.composite
def instances(draw) -> Instance:
    """Random small instances over the fixed signature."""
    contents = {}
    for name, arity in BASE_RELATIONS.items():
        rows = draw(
            st.sets(
                st.tuples(*([st.sampled_from(DOMAIN_VALUES)] * arity)), max_size=4
            )
        )
        contents[name] = rows
    return Instance(contents, SIGNATURE)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(printable_expressions())
def test_printer_parser_roundtrip(expression):
    parsed = parse_expression(expression_to_text(expression))
    assert parsed == expression
    assert expression_digest(parsed) == expression_digest(expression)


@settings(max_examples=60, deadline=None)
@given(expressions(), instances())
def test_simplification_preserves_semantics(expression, instance):
    simplified = simplify_expression(expression)
    assert evaluate(simplified, instance) == evaluate(expression, instance)


@settings(max_examples=60, deadline=None)
@given(expressions(), instances())
def test_evaluation_respects_arity(expression, instance):
    rows = evaluate(expression, instance)
    assert all(len(row) == expression.arity for row in rows)


@settings(max_examples=40, deadline=None)
@given(expressions(), instances())
def test_evaluation_is_deterministic(expression, instance):
    assert evaluate(expression, instance) == evaluate(expression, instance)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_domain_contains_every_relation_projection(instance):
    domain = evaluate(Domain(1), instance)
    for name, arity in BASE_RELATIONS.items():
        for column in range(arity):
            projected = evaluate(Projection(Relation(name, arity), (column,)), instance)
            assert projected <= domain
