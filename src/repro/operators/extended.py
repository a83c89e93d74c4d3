"""Registration of the extended ("user-defined") operators.

The paper's key observation is that only *partial* knowledge of an operator is
needed for composition: knowing in which arguments it is monotone already lets
left- and right-compose substitute through it, and D-/∅-identities let the
clean-up steps simplify around it.  This module registers that knowledge for
the three extended operators the paper mentions explicitly — semijoin,
anti-semijoin and left outerjoin — through the same public registry API an
end user would employ for their own operators (see
``examples/extensibility_user_operator.py``).  The registry holds what the
algorithm knows; each operator's class in :mod:`repro.algebra.expressions`
holds its syntax and semantics.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algebra.expressions import (
    AntiSemiJoin,
    Empty,
    Expression,
    LeftOuterJoin,
    SemiJoin,
)
from repro.operators.monotonicity import Monotonicity, combine_same_polarity, flip
from repro.operators.registry import OperatorRegistry

__all__ = [
    "register_extended_operators",
    "semijoin_monotonicity",
    "antisemijoin_monotonicity",
    "leftouterjoin_monotonicity",
]


def semijoin_monotonicity(
    expression: Expression, child_values: Tuple[Monotonicity, ...]
) -> Monotonicity:
    """``E1 ⋉ E2`` is monotone in both arguments."""
    return combine_same_polarity(child_values)


def antisemijoin_monotonicity(
    expression: Expression, child_values: Tuple[Monotonicity, ...]
) -> Monotonicity:
    """``E1 ▷ E2`` is monotone in the first argument, anti-monotone in the second."""
    left, right = child_values
    return combine_same_polarity((left, flip(right)))


def leftouterjoin_monotonicity(
    expression: Expression, child_values: Tuple[Monotonicity, ...]
) -> Monotonicity:
    """``E1 ⟕ E2`` is monotone in the first argument but not in the second.

    Adding tuples to the right operand can *remove* NULL-padded result rows, so
    whenever the symbol occurs in the right operand the result is unknown.
    """
    left, right = child_values
    if right is not Monotonicity.INDEPENDENT:
        return Monotonicity.UNKNOWN
    return left


def _semijoin_simplify(expression: Expression) -> Optional[Expression]:
    """∅ identities for semijoin: ``∅ ⋉ E = ∅`` and ``E ⋉ ∅ = ∅``."""
    assert isinstance(expression, SemiJoin)
    if isinstance(expression.left, Empty) or isinstance(expression.right, Empty):
        return Empty(expression.arity)
    return None


def _antisemijoin_simplify(expression: Expression) -> Optional[Expression]:
    """∅ identities for anti-semijoin: ``∅ ▷ E = ∅`` and ``E ▷ ∅ = E``."""
    assert isinstance(expression, AntiSemiJoin)
    if isinstance(expression.left, Empty):
        return Empty(expression.arity)
    if isinstance(expression.right, Empty):
        return expression.left
    return None


def _leftouterjoin_simplify(expression: Expression) -> Optional[Expression]:
    """∅ identity for left outerjoin: ``∅ ⟕ E = ∅``."""
    assert isinstance(expression, LeftOuterJoin)
    if isinstance(expression.left, Empty):
        return Empty(expression.arity)
    return None


def register_extended_operators(registry: OperatorRegistry) -> None:
    """Register monotonicity and simplification knowledge for the extended operators."""
    registry.register_operator(
        SemiJoin,
        monotonicity_rule=semijoin_monotonicity,
        simplification_rule=_semijoin_simplify,
        description="semijoin: monotone in both arguments",
    )
    registry.register_operator(
        AntiSemiJoin,
        monotonicity_rule=antisemijoin_monotonicity,
        simplification_rule=_antisemijoin_simplify,
        description="anti-semijoin: monotone in the left argument, anti-monotone in the right",
    )
    registry.register_operator(
        LeftOuterJoin,
        monotonicity_rule=leftouterjoin_monotonicity,
        simplification_rule=_leftouterjoin_simplify,
        description="left outerjoin: monotone in the left argument only",
    )
