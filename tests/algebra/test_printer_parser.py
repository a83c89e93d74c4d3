"""Tests for the plain-text printer and parser (including round-trips)."""

import pytest

from repro.algebra.conditions import And, Comparison, Not, Or, TRUE, equals, equals_const
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
from repro.algebra.parser import (
    parse_condition,
    parse_constraint,
    parse_constraints,
    parse_expression,
)
from repro.algebra.printer import condition_to_text, expression_to_text
from repro.algebra.terms import Attribute, Constant
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.exceptions import ParseError
from repro.schema.signature import Signature
from tests.conftest import expression_samples


class TestParserBasics:
    def test_parse_relation_with_inline_arity(self):
        assert parse_expression("R/3") == Relation("R", 3)

    def test_parse_relation_from_signature(self):
        signature = Signature.from_arities({"R": 4})
        assert parse_expression("R", signature) == Relation("R", 4)

    def test_parse_relation_without_arity_fails(self):
        with pytest.raises(ParseError):
            parse_expression("R")

    def test_parse_domain_and_empty(self):
        assert parse_expression("D(2)") == Domain(2)
        assert parse_expression("empty(3)") == Empty(3)

    def test_parse_constant_relation(self):
        expression = parse_expression("const((1, 'a'); (2, 'b'))")
        assert expression == ConstantRelation(tuples=((1, "a"), (2, "b")), constant_arity=2)

    def test_parse_binary_operators(self):
        assert parse_expression("(R/2 union S/2)") == Union(Relation("R", 2), Relation("S", 2))
        assert parse_expression("(R/2 intersect S/2)") == Intersection(
            Relation("R", 2), Relation("S", 2)
        )
        assert parse_expression("(R/2 - S/2)") == Difference(Relation("R", 2), Relation("S", 2))
        assert parse_expression("(R/2 x S/2)") == CrossProduct(Relation("R", 2), Relation("S", 2))

    def test_binary_chain_is_left_associative(self):
        expression = parse_expression("R/2 union S/2 union T/2")
        assert expression == Union(Union(Relation("R", 2), Relation("S", 2)), Relation("T", 2))

    def test_parse_select(self):
        expression = parse_expression("select[#0 = #1](R/2)")
        assert expression == Selection(Relation("R", 2), equals(0, 1))

    def test_parse_project(self):
        assert parse_expression("project[1,0](R/2)") == Projection(Relation("R", 2), (1, 0))

    def test_parse_skolem(self):
        expression = parse_expression("skolem f[0](R/2)")
        assert expression == SkolemApplication(Relation("R", 2), SkolemFunction("f", (0,)))

    def test_parse_extended_operators(self):
        assert parse_expression("semijoin[#0 = #2](R/2, S/2)") == SemiJoin(
            Relation("R", 2), Relation("S", 2), equals(0, 2)
        )
        assert parse_expression("antisemijoin[#0 = #2](R/2, S/2)") == AntiSemiJoin(
            Relation("R", 2), Relation("S", 2), equals(0, 2)
        )
        assert parse_expression("leftouterjoin[#0 = #2](R/2, S/2)") == LeftOuterJoin(
            Relation("R", 2), Relation("S", 2), equals(0, 2)
        )
        assert parse_expression("tclosure(S/2)") == TransitiveClosure(Relation("S", 2))

    def test_reserved_word_as_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("select/2")
        with pytest.raises(ParseError):
            parse_expression("tclosure/2")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expression("(R/2 union S/2")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("R/2 @@ S/2")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("R/2 S/2")


class TestConditionParsing:
    def test_parse_comparison(self):
        assert parse_condition("#0 = 5") == equals_const(0, 5)

    def test_parse_string_constant(self):
        assert parse_condition("#1 = 'abc'") == equals_const(1, "abc")

    def test_parse_escaped_string(self):
        condition = parse_condition(r"#0 = 'it\'s'")
        assert condition == equals_const(0, "it's")

    def test_parse_float(self):
        assert parse_condition("#0 = 1.5") == equals_const(0, 1.5)

    @pytest.mark.parametrize("value", [1e-05, 1e16, -2.5e-07, 5e-324])
    def test_a_float_with_an_exponent_round_trips(self, value):
        text = f"select[#0 = {value!r}](R/2)"
        assert "e" in text
        expression = parse_expression(text)
        assert expression.condition == equals_const(0, value)
        assert str(expression) == text

    def test_parse_negative_number(self):
        assert parse_condition("#0 = -3") == equals_const(0, -3)

    def test_parse_and_or_not(self):
        condition = parse_condition("#0 = #1 and (not (#1 = 3) or true)")
        assert isinstance(condition, And)
        assert isinstance(condition.operands[1], Or)
        assert isinstance(condition.operands[1].operands[0], Not)

    def test_parse_true_false(self):
        assert parse_condition("true") is TRUE or parse_condition("true") == TRUE

    def test_all_comparison_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert parse_condition(f"#0 {op} #1") == Comparison(Attribute(0), op, Attribute(1))


class TestConstraintParsing:
    def test_containment(self):
        constraint = parse_constraint("R/2 <= S/2")
        assert constraint == ContainmentConstraint(Relation("R", 2), Relation("S", 2))

    def test_reverse_containment(self):
        constraint = parse_constraint("R/2 >= S/2")
        assert constraint == ContainmentConstraint(Relation("S", 2), Relation("R", 2))

    def test_equality(self):
        constraint = parse_constraint("R/2 = S/2")
        assert constraint == EqualityConstraint(Relation("R", 2), Relation("S", 2))

    def test_missing_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("R/2 S/2")

    def test_parse_constraints_multi_line(self):
        text = """
        # a comment
        R/2 <= S/2

        S/2 <= T/2
        """
        constraints = parse_constraints(text)
        assert len(constraints) == 2


class TestRoundTrip:
    @pytest.mark.parametrize("expression", expression_samples(include_extended=True))
    def test_expression_roundtrip(self, expression):
        assert parse_expression(expression_to_text(expression)) == expression

    def test_condition_roundtrip(self):
        condition = And(equals(0, 1), Or(Not(equals_const(2, "x")), equals_const(0, 3)))
        assert parse_condition(condition_to_text(condition)) == condition

    def test_skolem_roundtrip(self):
        expression = SkolemApplication(
            Projection(Relation("R", 3), (0, 2)), SkolemFunction("sk1", (0, 1))
        )
        assert parse_expression(expression_to_text(expression)) == expression

    def test_constant_relation_roundtrip(self):
        expression = ConstantRelation(tuples=(("a", 1), ("b", 2)), constant_arity=2)
        assert parse_expression(expression_to_text(expression)) == expression

    def test_constraint_roundtrip(self):
        constraint = ContainmentConstraint(
            Projection(Selection(Relation("Movies", 6), equals_const(3, 5)), (0, 1, 2)),
            Relation("FiveStarMovies", 3),
        )
        assert parse_constraint(str(constraint)) == constraint
