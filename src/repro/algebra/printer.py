"""Plain-text rendering of expressions, conditions and constraints.

The syntax round-trips through :mod:`repro.algebra.parser` and is close to the
paper's index-based algebraic notation, restricted to ASCII:

========================  =============================================
Paper                     Text syntax
========================  =============================================
``R`` (arity 3)           ``R/3``
``D^2``                   ``D(2)``
``∅`` (arity 2)           ``empty(2)``
``{(1, 'a')}``            ``const((1, 'a'))``
``E1 ∪ E2``               ``(E1 union E2)``
``E1 ∩ E2``               ``(E1 intersect E2)``
``E1 − E2``               ``(E1 - E2)``
``E1 × E2``               ``(E1 x E2)``
``σ_{0=2}(E)``            ``select[#0 = #2](E)``
``π_{0,1}(E)``            ``project[0,1](E)``
``f_{0}(E)``              ``skolem f[0](E)``
``E1 ⋉_c E2``             ``semijoin[c](E1, E2)``
``E1 ▷_c E2``             ``antisemijoin[c](E1, E2)``
``E1 ⟕_c E2``             ``leftouterjoin[c](E1, E2)``
``tc(E)``                 ``tclosure(E)``
``E1 ⊆ E2``               ``E1 <= E2``
``E1 = E2``               ``E1 = E2``
========================  =============================================

All attribute indices are 0-based.  Every
:class:`~repro.algebra.expressions.PrefixOperator` renders through one path,
``keyword[payload](operand, …)``, from what its class declares.

:func:`expression_to_text` keeps an explicit stack, so an expression of any
depth renders (the algebra's operator chains reach thousands of nodes), and
:mod:`repro.algebra.parser` reads it back at the same depth.  A user-defined
operator type renders through its own ``__str__`` (the parser does not read
that text back).  Conditions render recursively: condition objects are
themselves recursive, and real ones nest a few levels at most.
"""

from __future__ import annotations

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    FalseCondition,
    Not,
    Or,
    TrueCondition,
)
from repro.algebra.expressions import (
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
    Intersection,
    PrefixOperator,
    Relation,
    SkolemApplication,
    Union,
)
from repro.algebra.terms import Attribute, Constant
from repro.exceptions import ExpressionError

__all__ = ["expression_to_text", "condition_to_text", "term_to_text"]


def term_to_text(term) -> str:
    """Render an attribute or constant term."""
    if isinstance(term, Attribute):
        return f"#{term.index}"
    if isinstance(term, Constant):
        if isinstance(term.value, str):
            escaped = term.value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return repr(term.value)
    raise ExpressionError(f"cannot render term {term!r}")


def condition_to_text(condition: Condition) -> str:
    """Render a selection condition in the textual syntax."""
    if isinstance(condition, TrueCondition):
        return "true"
    if isinstance(condition, FalseCondition):
        return "false"
    if isinstance(condition, Comparison):
        return f"{term_to_text(condition.left)} {condition.op} {term_to_text(condition.right)}"
    if isinstance(condition, And):
        return "(" + " and ".join(condition_to_text(op) for op in condition.operands) + ")"
    if isinstance(condition, Or):
        return "(" + " or ".join(condition_to_text(op) for op in condition.operands) + ")"
    if isinstance(condition, Not):
        return f"not ({condition_to_text(condition.operand)})"
    raise ExpressionError(f"cannot render condition {condition!r}")


def _render_constant_relation(expression: ConstantRelation) -> str:
    rows = []
    for row in expression.tuples:
        values = ", ".join(term_to_text(Constant(value)) for value in row)
        rows.append(f"({values})")
    return "const(" + "; ".join(rows) + ")"


#: Binary operators written infix between parentheses, with their keyword.
_INFIX = {
    Union: " union ",
    Intersection: " intersect ",
    Difference: " - ",
    CrossProduct: " x ",
}


def expression_to_text(expression: Expression) -> str:
    """Render an expression in the textual syntax used throughout the library.

    The walk is iterative.  It descends along first operands, emitting each
    operator's opening text, and keeps what follows the current node on a
    stack (closing text and pending operands, last first).
    """
    # A relation is most of what a record prints: read its field, not the
    # ``arity`` property.
    if isinstance(expression, Relation):
        return f"{expression.name}/{expression.relation_arity}"
    parts = []
    emit = parts.append
    pending = []
    push = pending.append
    node = expression
    while True:
        if isinstance(node, Relation):
            emit(f"{node.name}/{node.relation_arity}")
        elif isinstance(node, PrefixOperator):
            kind = node.payload_kind
            if kind == "condition":
                emit(f"{node.operator_name}[{condition_to_text(node.condition)}](")
            elif kind == "indices":
                emit(f"{node.operator_name}[{','.join(map(str, node.indices))}](")
            else:
                emit(node.operator_name + "(")
            push(")")
            children = node.children
            for child in children[:0:-1]:
                push(child)
                push(", ")
            node = children[0]
            continue
        elif isinstance(node, (Union, Intersection, Difference, CrossProduct)):
            emit("(")
            push(")")
            push(node.right)
            push(
                _INFIX.get(node.__class__)
                or next(word for node_type, word in _INFIX.items() if isinstance(node, node_type))
            )
            node = node.left
            continue
        elif isinstance(node, Domain):
            emit(f"D({node.arity})")
        elif isinstance(node, Empty):
            emit(f"empty({node.arity})")
        elif isinstance(node, ConstantRelation):
            emit(_render_constant_relation(node))
        elif isinstance(node, SkolemApplication):
            deps = ",".join(map(str, node.function.depends_on))
            emit(f"skolem {node.function.name}[{deps}](")
            push(")")
            node = node.child
            continue
        elif type(node).__str__ is not Expression.__str__:
            # A user-defined operator type that renders itself.
            emit(str(node))
        else:
            raise ExpressionError(f"cannot render expression of type {type(node).__name__}")
        # The node is rendered: emit the text after it, up to the next operand.
        while pending:
            node = pending.pop()
            if node.__class__ is not str:
                break
            emit(node)
        else:
            return "".join(parts)
