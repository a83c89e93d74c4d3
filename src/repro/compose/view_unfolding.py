"""Step 1 of ELIMINATE: view unfolding (paper Section 3.2).

If the constraint set contains an equality ``S = E`` where ``E`` does not
mention ``S``, then ``S`` is a defined view: remove the defining constraint and
substitute ``E`` for ``S`` everywhere else.  Because the definition is an
*equality*, the substitution is correct regardless of monotonicity or of
unknown operators — this is what gives view unfolding "extra power" compared
to left and right compose (paper Example 5).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.constraints.constraint import EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet

__all__ = ["unfold_view"]


def unfold_view(
    constraints: ConstraintSet,
    symbol: str,
    positions: Optional[Sequence[int]] = None,
) -> Optional[ConstraintSet]:
    """Try to eliminate ``symbol`` by view unfolding.

    Returns the rewritten constraint set on success, or ``None`` if no
    constraint of the form ``symbol = E`` (with ``E`` free of ``symbol``)
    exists.  ``positions`` are the indices of the constraints mentioning
    ``symbol``, when the caller already has them (ELIMINATE computes them
    once per step); by default they come from the set's symbol index.
    """
    # The symbol index narrows the scan to the constraints that mention the
    # symbol at all — a defining equality necessarily does.
    if positions is None:
        positions = constraints.indices_mentioning(symbol)
    for position in positions:
        constraint = constraints[position]
        if not isinstance(constraint, EqualityConstraint):
            continue
        definition = constraint.definition_of(symbol)
        if definition is None:
            continue
        # Patch in place: rewrite the indexed constraints, drop the defining
        # equality; everything else is reused as-is.  The operator total is
        # the parent's, adjusted by what changed, so the blow-up guard does
        # not recount every constraint of the set.
        result = list(constraints)
        operator_count = constraints.operator_count() - constraint.operator_count()
        for index in positions:
            if index != position:
                old = result[index]
                new = old.substituting(symbol, definition)
                operator_count += new.operator_count() - old.operator_count()
                result[index] = new
        del result[position]
        return ConstraintSet(result, operator_count=operator_count)
    return None
