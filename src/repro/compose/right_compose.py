"""The right-compose step of ELIMINATE (paper Sections 3.1 and 3.5).

Right compose is dual to left compose: it finds a *lower bound* ``E1 ⊆ S``
(via right-normalization, possibly introducing Skolem functions to invert
projections) and substitutes ``E1`` for ``S`` in every constraint where ``S``
occurs on the left-hand side in a position monotone in ``S``:

    ``M(S) ⊆ E2``  becomes  ``M(E1) ⊆ E2``,

sound because ``M(E1) ⊆ M(S) ⊆ E2`` and complete by setting ``S := E1``.
If Skolem functions were introduced, the result must be deskolemized; if that
fails, the whole right-compose step fails (the paper's behaviour).
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.traversal import contains_relation, substitute_relation
from repro.compose.deskolemize import deskolemize
from repro.compose.empty_elimination import eliminate_empty
from repro.compose.failure_memo import NormalizationFailureMemo
from repro.compose.normalize_context import NormalizationContext
from repro.compose.phases import timed
from repro.compose.right_normalize import right_normalize
from repro.constraints.constraint import Constraint, ContainmentConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.operators.monotonicity import Monotonicity, monotonicity

__all__ = ["right_compose"]

_SAFE = (Monotonicity.MONOTONE, Monotonicity.INDEPENDENT)


def right_compose(
    constraints: ConstraintSet,
    symbol: str,
    symbol_arity: int,
    registry=None,
    max_steps: int = 500,
) -> Optional[ConstraintSet]:
    """Try to eliminate ``symbol`` by right composition.

    Returns the rewritten constraint set (free of ``symbol``) on success, or
    ``None`` if any sub-step fails:

    1. the symbol appears on both sides of some constraint;
    2. some left-hand side containing the symbol is not monotone in it;
    3. right-normalization fails (e.g. an unknown operator on the right);
    4. the post-normalization monotonicity re-check fails;
    5. deskolemization fails.

    As in left compose, the per-constraint failures (kinds 1-3) are stamped
    on the failing constraint (:mod:`repro.compose.failure_memo`) so retries
    fast-fail.
    """
    mentioning = [constraints[i] for i in constraints.indices_mentioning(symbol)]
    memo = NormalizationFailureMemo("right-compose", registry, symbol)
    if memo.any_known(mentioning):
        return None

    # Step 0: exit if S appears on both sides of some constraint.  The symbol
    # index narrows every scan to the constraints that mention S at all.
    for constraint in mentioning:
        if constraint.mentions_on_left(symbol) and constraint.mentions_on_right(symbol):
            memo.record(constraint)
            return None

    # Convert equalities mentioning S into pairs of containments.
    working = constraints.with_equalities_split(symbol)
    memo.map_split_origins(mentioning)

    # Step 1: left-monotonicity check — every LHS that mentions S must be monotone in S.
    for index in working.indices_mentioning(symbol):
        constraint = working[index]
        if constraint.mentions_on_left(symbol):
            if monotonicity(constraint.left, symbol, registry) not in _SAFE:
                memo.record(constraint)
                return None

    # Step 2: right-normalize, producing the single lower bound ξ : E1 ⊆ S.
    context = NormalizationContext(symbol=symbol, symbol_arity=symbol_arity, registry=registry)
    with timed("normalize"):
        normalized = right_normalize(
            working, symbol, context, max_steps=max_steps, failure_sink=memo.record
        )
    if normalized is None:
        return None
    normalized_set, xi = normalized
    lower_bound = xi.left
    if contains_relation(lower_bound, symbol):
        return None

    # Step 3: basic right compose — drop ξ and substitute E1 for S on left-hand sides.
    result: List[Constraint] = []
    for constraint in normalized_set:
        if constraint == xi:
            continue
        if constraint.mentions_on_right(symbol):
            # Right normal form guarantees S appears on the right only in ξ.
            return None
        if constraint.mentions_on_left(symbol):
            if monotonicity(constraint.left, symbol, registry) not in _SAFE:
                return None
            result.append(
                ContainmentConstraint(
                    substitute_relation(constraint.left, symbol, lower_bound),
                    constraint.right,
                )
            )
        else:
            result.append(constraint)

    candidate = ConstraintSet(result)

    # Step 4: deskolemize if normalization introduced Skolem functions.
    if candidate.contains_skolem():
        with timed("deskolemize"):
            deskolemized = deskolemize(candidate)
        if deskolemized is None:
            return None
        candidate = deskolemized

    # Step 5: eliminate the empty relation introduced by normalization.
    return eliminate_empty(candidate, registry)
