"""Shared probe/record helper for the normalization-failure memo.

Whether one constraint can be left-/right-normalized for a symbol — or passes
the per-constraint monotonicity and both-sides gates — is a pure function of
that constraint, the symbol and the registry's rules.  The best-effort
algorithm retries failed symbols after every chain hop and schema edit,
re-deriving the same dead ends; stamping each failure on the (immutable)
constraint turns every retry into one attribute read per affected constraint.

A stamp is ``(rules token, {(kind, symbol), ...})`` in the constraint's
``_known_failures`` attribute, keyed by the registry's rules token
(:func:`~repro.operators.registry.rules_token`), so registering or removing
a rule retires every failure recorded under the old rules.  Stamps are
idempotent: two threads racing on one constraint at worst drop a record,
which only repeats work.

Both compose directions use the same machinery; only the ``kind`` tag and the
call sites differ, so the bookkeeping lives here once.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.constraints.constraint import Constraint, EqualityConstraint
from repro.operators.registry import rules_token

__all__ = ["NormalizationFailureMemo"]


class NormalizationFailureMemo:
    """Per-(constraint, symbol) failure bookkeeping for one compose attempt."""

    def __init__(self, kind: str, registry: Optional[object], symbol: str):
        self._token = rules_token(registry)
        self._key = (kind, symbol)
        self._origins: dict = {}

    def any_known(self, constraints: Iterable[Constraint]) -> bool:
        """True if any of ``constraints`` is already known to fail for the symbol."""
        token, key = self._token, self._key
        for constraint in constraints:
            stamp = getattr(constraint, "_known_failures", None)
            if stamp is not None and stamp[0] is token and key in stamp[1]:
                return True
        return False

    def map_split_origins(self, mentioning: Iterable[Constraint]) -> None:
        """Trace equality-split containments back to their source equality.

        Failures must be stamped on constraints the entry probe can see —
        members of the original set — not on the transient split parts.
        """
        for constraint in mentioning:
            if isinstance(constraint, EqualityConstraint):
                for part in constraint.as_containments():
                    self._origins[part] = constraint

    def record(self, constraint: Constraint) -> None:
        """Stamp ``constraint`` (or its split origin) as failing for the symbol."""
        origin = self._origins.get(constraint, constraint)
        stamp = getattr(origin, "_known_failures", None)
        if stamp is None or stamp[0] is not self._token:
            stamp = (self._token, set())
            object.__setattr__(origin, "_known_failures", stamp)
        stamp[1].add(self._key)
