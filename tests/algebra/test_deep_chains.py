"""Regression tests for deep expression chains (satellite of the DAG-rewriter PR).

Left-normalization collapses bounds into ``E1 ∩ E2 ∩ …`` chains and
right-normalization into ``E1 ∪ E2 ∪ …`` chains; at scale those chains reach
thousands of nodes.  The recursive traversal helpers used to blow Python's
recursion limit around depth ~1000; everything here must work comfortably at
5,000 nodes.
"""

import sys

import pytest

from repro.algebra import traversal
from repro.algebra.expressions import Relation, Selection, Union
from repro.algebra.conditions import TrueCondition
from repro.algebra.parser import parse_expression
from repro.algebra.simplify import simplify_expression
from repro.algebra.summary import node_summary

DEPTH = 5_000


def _union_chain(depth: int, name: str = "R"):
    expression = Relation(name, 2)
    for _ in range(depth - 1):
        expression = Union(expression, Relation(name, 2))
    return expression


@pytest.fixture(scope="module")
def deep_chain():
    assert DEPTH > sys.getrecursionlimit()
    return _union_chain(DEPTH)


class TestDeepChains:
    def test_operator_count_is_iterative(self, deep_chain):
        assert traversal.operator_count(deep_chain) == DEPTH - 1

    def test_expression_depth_is_iterative(self, deep_chain):
        assert traversal.expression_depth(deep_chain) == DEPTH

    def test_node_count_and_names(self, deep_chain):
        assert traversal.node_count(deep_chain) == 2 * DEPTH - 1
        assert traversal.relation_names(deep_chain) == frozenset({"R"})

    def test_transform_bottom_up_is_iterative(self):
        chain = _union_chain(DEPTH)
        renamed = traversal.transform_bottom_up(
            chain,
            lambda node: Relation("S", 2)
            if isinstance(node, Relation) and node.name == "R"
            else node,
        )
        assert traversal.relation_names(renamed) == frozenset({"S"})
        assert traversal.operator_count(renamed) == DEPTH - 1

    def test_substitution_is_iterative(self):
        chain = _union_chain(DEPTH)
        substituted = traversal.substitute_relation(chain, "R", Relation("T", 2))
        assert traversal.relation_names(substituted) == frozenset({"T"})

    def test_text_round_trip_is_iterative(self, deep_chain):
        # The printer and the parser keep explicit stacks: 5,000 nested
        # parentheses print and parse back.
        text = str(deep_chain)
        assert text.startswith("(" * (DEPTH - 1))
        assert parse_expression(text) == deep_chain

    def test_hashing_after_summary_is_shallow(self):
        chain = _union_chain(DEPTH)
        node_summary(chain)  # warms hashes bottom-up without recursion
        assert isinstance(hash(chain), int)

    def test_independent_chains_compare_by_digest(self):
        # Two chains built apart share no node.  Equality summarizes each
        # side iteratively and compares the digests; it never walks the pair.
        left, right = _union_chain(DEPTH), _union_chain(DEPTH)
        assert left is not right and left.left is not right.left
        assert left == right and hash(left) == hash(right)
        assert left != _union_chain(DEPTH, "S")

    def test_simplify_deep_selection_chain(self):
        # σ_true(σ_true(...(R))) collapses to R no matter how deep.
        expression = Relation("R", 2)
        for _ in range(DEPTH):
            expression = Selection(expression, TrueCondition())
        assert simplify_expression(expression) == Relation("R", 2)

    def test_simplify_deep_chain_twice(self):
        expression = Relation("R", 2)
        for _ in range(DEPTH - 1):
            expression = Union(expression, Relation("S", 2))
        simplified = simplify_expression(expression)
        assert simplified is expression  # no rule applies
        # The warm call finds the stamp on the deep output and walks nothing.
        assert simplify_expression(simplified) is simplified
