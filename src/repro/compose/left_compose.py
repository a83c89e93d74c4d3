"""The left-compose step of ELIMINATE (paper Sections 3.1 and 3.4).

Left compose eliminates a symbol ``S`` by finding an *upper bound* ``S ⊆ E1``
(via left-normalization) and substituting ``E1`` for ``S`` in every constraint
where ``S`` occurs on the right-hand side of a containment in a position
monotone in ``S``:

    ``E2 ⊆ M(S)``  becomes  ``E2 ⊆ M(E1)``,

which is sound because ``E2 ⊆ M(S) ⊆ M(E1)`` and complete because setting
``S := E1`` satisfies the removed bound.  Left compose handles cases where
right compose fails (e.g. a difference with ``S`` in the subtrahend on the
left-hand side — paper Example 10).
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.traversal import contains_relation, substitute_relation
from repro.compose.domain_elimination import eliminate_domain
from repro.compose.failure_memo import NormalizationFailureMemo
from repro.compose.left_normalize import left_normalize
from repro.compose.normalize_context import NormalizationContext
from repro.compose.phases import timed
from repro.constraints.constraint import Constraint, ContainmentConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.operators.monotonicity import Monotonicity, monotonicity

__all__ = ["left_compose"]

_SAFE = (Monotonicity.MONOTONE, Monotonicity.INDEPENDENT)


def left_compose(
    constraints: ConstraintSet,
    symbol: str,
    symbol_arity: int,
    registry=None,
    max_steps: int = 500,
) -> Optional[ConstraintSet]:
    """Try to eliminate ``symbol`` by left composition.

    Returns the rewritten constraint set (free of ``symbol``) on success, or
    ``None`` if any of the sub-steps fails:

    1. the symbol appears on both sides of some constraint;
    2. some right-hand side containing the symbol is not monotone in it;
    3. left-normalization fails;
    4. the post-normalization monotonicity re-check fails.

    Failures of kinds 1-3 are pure per-constraint properties, so they are
    stamped on the failing constraint (:mod:`repro.compose.failure_memo`),
    and the best-effort retries COMPOSE performs after every chain hop /
    schema edit fast-fail as soon as a known-dead constraint is still
    present.
    """
    mentioning = [constraints[i] for i in constraints.indices_mentioning(symbol)]
    memo = NormalizationFailureMemo("left-compose", registry, symbol)
    if memo.any_known(mentioning):
        return None

    # Step 0: the paper exits immediately if S appears on both sides of a
    # constraint.  The symbol index narrows every scan to the constraints
    # that mention S at all.
    for constraint in mentioning:
        if constraint.mentions_on_left(symbol) and constraint.mentions_on_right(symbol):
            memo.record(constraint)
            return None

    # Convert equalities mentioning S into pairs of containments.
    working = constraints.with_equalities_split(symbol)
    memo.map_split_origins(mentioning)

    # Step 1: right-monotonicity check — every RHS that mentions S must be monotone in S.
    for index in working.indices_mentioning(symbol):
        constraint = working[index]
        if constraint.mentions_on_right(symbol):
            if monotonicity(constraint.right, symbol, registry) not in _SAFE:
                memo.record(constraint)
                return None

    # Step 2: left-normalize, producing the single upper bound ξ : S ⊆ E1.
    context = NormalizationContext(symbol=symbol, symbol_arity=symbol_arity, registry=registry)
    with timed("normalize"):
        normalized = left_normalize(
            working, symbol, context, max_steps=max_steps, failure_sink=memo.record
        )
    if normalized is None:
        return None
    normalized_set, xi = normalized
    upper_bound = xi.right
    if contains_relation(upper_bound, symbol):
        return None

    # Step 3: basic left compose — drop ξ and substitute E1 for S on right-hand sides.
    result: List[Constraint] = []
    for constraint in normalized_set:
        if constraint == xi:
            continue
        if constraint.mentions_on_left(symbol):
            # Left normal form guarantees S appears on the left only in ξ.
            return None
        if constraint.mentions_on_right(symbol):
            if monotonicity(constraint.right, symbol, registry) not in _SAFE:
                return None
            result.append(
                ContainmentConstraint(
                    constraint.left,
                    substitute_relation(constraint.right, symbol, upper_bound),
                )
            )
        else:
            result.append(constraint)

    # Step 4: eliminate the active-domain relation introduced by normalization.
    return eliminate_domain(ConstraintSet(result), registry)
