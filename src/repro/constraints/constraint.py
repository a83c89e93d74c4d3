"""Containment and equality constraints between relational expressions.

A mapping in the paper is a finite set of constraints, each of the form
``E1 ⊆ E2`` (containment) or ``E1 = E2`` (equality) where ``E1`` and ``E2``
are relational-algebra expressions over the combined signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import FrozenSet, Tuple

from repro.algebra.digest import DIGEST_SIZE, expression_digest
from repro.algebra.expressions import Expression, Relation
from repro.algebra import traversal
from repro.algebra.summary import node_summary
from repro.exceptions import ArityError, ConstraintError

__all__ = ["Constraint", "ContainmentConstraint", "EqualityConstraint"]


class Constraint:
    """Abstract base class for the two constraint forms.

    Symbol and size queries read the one-pass cached node summaries of both
    sides (:mod:`repro.algebra.summary`), so after the first probe every later
    ``mentions`` / ``operator_count`` call is a set lookup or an integer read —
    the elimination drivers issue these queries for every σ2 symbol against
    every constraint.
    """

    left: Expression
    right: Expression

    # Cached on first read (class-level ``None`` until then).
    _relation_names = None
    _operator_count = None

    # -- symbol queries -------------------------------------------------------

    def relation_names(self) -> FrozenSet[str]:
        """All base relation symbols mentioned on either side (cached)."""
        names = self._relation_names
        if names is None:
            names = node_summary(self.left).relation_names | node_summary(
                self.right
            ).relation_names
            object.__setattr__(self, "_relation_names", names)
        return names

    def mentions(self, name: str) -> bool:
        """Return ``True`` iff the constraint mentions relation ``name``."""
        return name in self.relation_names()

    def mentions_on_left(self, name: str) -> bool:
        """Return ``True`` iff ``name`` occurs in the left-hand side."""
        return name in node_summary(self.left).relation_names

    def mentions_on_right(self, name: str) -> bool:
        """Return ``True`` iff ``name`` occurs in the right-hand side."""
        return name in node_summary(self.right).relation_names

    def occurrences(self, name: str) -> int:
        """Total number of occurrences of relation ``name`` in the constraint."""
        return traversal.relation_occurrences(self.left, name) + traversal.relation_occurrences(
            self.right, name
        )

    def contains_skolem(self) -> bool:
        """Return ``True`` iff either side contains a Skolem application."""
        return node_summary(self.left).contains_skolem or node_summary(
            self.right
        ).contains_skolem

    def contains_domain(self) -> bool:
        """Return ``True`` iff either side contains the active-domain relation."""
        return node_summary(self.left).contains_domain or node_summary(
            self.right
        ).contains_domain

    def contains_empty(self) -> bool:
        """Return ``True`` iff either side contains the empty relation."""
        return node_summary(self.left).contains_empty or node_summary(
            self.right
        ).contains_empty

    def operator_count(self) -> int:
        """Number of operator nodes on both sides (the paper's size metric, cached)."""
        count = self._operator_count
        if count is None:
            count = node_summary(self.left).operator_count + node_summary(
                self.right
            ).operator_count
            object.__setattr__(self, "_operator_count", count)
        return count

    def digest(self) -> bytes:
        """Deterministic content digest of the constraint (kind plus both sides).

        Unlike the constraint's hash (a user-defined operator side may hash
        with the per-process salt), the digest survives pickling and names the
        constraint identically in every process — the property the
        incremental-recomposition checkpoints rely on.  Cached on the
        (immutable) constraint.
        """
        value = getattr(self, "_digest", None)
        if value is None:
            value = blake2b(
                type(self).__name__.encode()
                + expression_digest(self.left)
                + expression_digest(self.right),
                digest_size=DIGEST_SIZE,
            ).digest()
            object.__setattr__(self, "_digest", value)
        return value

    # -- rewriting ------------------------------------------------------------

    def substituting(self, name: str, replacement: Expression) -> "Constraint":
        """Return a copy with every occurrence of relation ``name`` replaced."""
        raise NotImplementedError

    def sides(self) -> Tuple[Expression, Expression]:
        """Return the ``(left, right)`` pair."""
        return (self.left, self.right)

    def is_trivial(self) -> bool:
        """Return ``True`` for constraints that every instance satisfies (``E ⊆ E``, ``E = E``)."""
        return self.left == self.right

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {self}>"

    def __hash__(self) -> int:
        # Constraints are hashed as often as expressions (constraint-set dedup
        # happens on every rewrite), so the hash of the two sides is cached.
        try:
            return self._hash_value
        except AttributeError:
            value = hash((self.left, self.right))
            object.__setattr__(self, "_hash_value", value)
            return value

    def __getstate__(self):
        # Drop the lazily cached hash (a user-defined operator side may hash
        # with the per-process string salt) and the "already simplified" and
        # "known to fail" stamps (they hold an in-process rules token that
        # never matches after unpickling); the cached name set and operator
        # count are structural and survive pickling.
        state = dict(self.__dict__)
        state.pop("_hash_value", None)
        state.pop("_simplified_for", None)
        state.pop("_known_failures", None)
        return state


@dataclass(frozen=True, repr=False)
class ContainmentConstraint(Constraint):
    """A constraint ``left ⊆ right``."""

    left: Expression
    right: Expression

    __hash__ = Constraint.__hash__  # explicit, so the dataclass keeps the cached hash

    def __post_init__(self) -> None:
        _validate_sides(self.left, self.right)

    def substituting(self, name: str, replacement: Expression) -> "ContainmentConstraint":
        left = traversal.substitute_relation(self.left, name, replacement)
        right = traversal.substitute_relation(self.right, name, replacement)
        if left is self.left and right is self.right:
            return self
        return ContainmentConstraint(left, right)

    def is_identity_definition_of(self, name: str) -> bool:
        """Containments never define a symbol outright (only equalities do)."""
        return False

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


@dataclass(frozen=True, repr=False)
class EqualityConstraint(Constraint):
    """A constraint ``left = right``."""

    left: Expression
    right: Expression

    __hash__ = Constraint.__hash__  # explicit, so the dataclass keeps the cached hash

    def __post_init__(self) -> None:
        _validate_sides(self.left, self.right)

    def substituting(self, name: str, replacement: Expression) -> "EqualityConstraint":
        left = traversal.substitute_relation(self.left, name, replacement)
        right = traversal.substitute_relation(self.right, name, replacement)
        if left is self.left and right is self.right:
            return self
        return EqualityConstraint(left, right)

    def as_containments(self) -> Tuple[ContainmentConstraint, ContainmentConstraint]:
        """Split into the two containments ``left ⊆ right`` and ``right ⊆ left``."""
        return (
            ContainmentConstraint(self.left, self.right),
            ContainmentConstraint(self.right, self.left),
        )

    def definition_of(self, name: str):
        """If this equality defines ``name`` (the symbol alone on one side and
        absent from the other), return the defining expression, else ``None``.

        This is exactly the shape the view-unfolding step looks for:
        ``S = E`` with ``S`` not occurring in ``E``.
        """
        left_is_symbol = isinstance(self.left, Relation) and self.left.name == name
        right_is_symbol = isinstance(self.right, Relation) and self.right.name == name
        if left_is_symbol and not traversal.contains_relation(self.right, name):
            return self.right
        if right_is_symbol and not traversal.contains_relation(self.left, name):
            return self.left
        return None

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


def _validate_sides(left: Expression, right: Expression) -> None:
    if not isinstance(left, Expression) or not isinstance(right, Expression):
        raise ConstraintError("both sides of a constraint must be expressions")
    if left.arity != right.arity:
        raise ArityError(
            f"constraint sides must have equal arity, got {left.arity} and {right.arity} "
            f"({left} vs {right})"
        )
