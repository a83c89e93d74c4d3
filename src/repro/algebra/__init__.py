"""Relational algebra: expressions, conditions, evaluation, parsing and printing."""

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    FALSE,
    FalseCondition,
    Not,
    Or,
    TRUE,
    TrueCondition,
    conjunction,
    disjunction,
    equals,
    equals_const,
)
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
    Union,
)
from repro.algebra.terms import Attribute, Constant, NULL
from repro.algebra import builders, traversal
from repro.algebra.evaluation import Evaluator, SkolemInterpretation, evaluate
from repro.algebra.parser import parse_condition, parse_constraint, parse_constraints, parse_expression
from repro.algebra.printer import condition_to_text, expression_to_text
from repro.algebra.simplify import simplify_constraint, simplify_constraint_set, simplify_expression

__all__ = [
    # terms and conditions
    "Attribute",
    "Constant",
    "NULL",
    "Condition",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "TrueCondition",
    "FalseCondition",
    "conjunction",
    "disjunction",
    "equals",
    "equals_const",
    # expressions
    "Expression",
    "Relation",
    "Domain",
    "Empty",
    "ConstantRelation",
    "Union",
    "Intersection",
    "Difference",
    "CrossProduct",
    "Selection",
    "Projection",
    "SkolemFunction",
    "SkolemApplication",
    "SemiJoin",
    "AntiSemiJoin",
    "LeftOuterJoin",
    # helpers
    "builders",
    "traversal",
    "Evaluator",
    "SkolemInterpretation",
    "evaluate",
    "parse_expression",
    "parse_condition",
    "parse_constraint",
    "parse_constraints",
    "expression_to_text",
    "condition_to_text",
    "simplify_expression",
    "simplify_constraint",
    "simplify_constraint_set",
]
