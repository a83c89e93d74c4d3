"""Finite sets of constraints with the query and rewrite operations COMPOSE needs.

A :class:`ConstraintSet` is an immutable, ordered collection of constraints.
Order is preserved because the paper's algorithm follows a user-specified
ordering of the symbols to eliminate and because deterministic ordering makes
runs reproducible; equality ignores order and duplicates.

Symbol and size queries are indexed: each set lazily builds, in one pass over
the per-constraint cached summaries, a symbol → constraint-indices index plus
the aggregate relation-name set and operator count.  ``mentions()`` (probed by
ELIMINATE for every σ2 symbol), the blow-up guard's ``operator_count()`` and
``constraints_mentioning()`` are then O(1)/O(affected) instead of
O(all constraints × tree size) per call.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.algebra.expressions import Expression
from repro.constraints.constraint import Constraint, ContainmentConstraint, EqualityConstraint
from repro.exceptions import ConstraintError

__all__ = ["ConstraintSet"]


class ConstraintSet:
    """An immutable ordered set of constraints."""

    def __init__(
        self,
        constraints: Iterable[Constraint] = (),
        operator_count: Optional[int] = None,
    ):
        """Build the set from ``constraints``, dropping duplicates.

        ``operator_count`` is the total operator count of ``constraints``
        when the caller already derived it (view unfolding adjusts its parent
        set's total by what it rewrote).  It is kept only when no duplicate
        was dropped; otherwise the total is recounted on first use.
        """
        # Materialize first so exceptions raised by a caller's generator
        # propagate intact; ``dict.fromkeys`` then dedups while preserving
        # first-occurrence order, in C.
        items = list(constraints)
        try:
            ordered = dict.fromkeys(items)
        except TypeError as exc:
            raise ConstraintError(f"expected hashable Constraints: {exc}") from exc
        for constraint in ordered:
            if not isinstance(constraint, Constraint):
                raise ConstraintError(f"expected a Constraint, got {constraint!r}")
        self._constraints: Tuple[Constraint, ...] = tuple(ordered)
        # Lazy aggregate caches (immutable set, computed at most once each).
        self._names_cache: Optional[FrozenSet[str]] = None
        self._mention_index: Optional[Dict[str, Tuple[int, ...]]] = None
        self._operator_count: Optional[int] = (
            operator_count if len(self._constraints) == len(items) else None
        )
        self._fingerprint: Optional[bytes] = None

    # -- collection protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, constraint: Constraint) -> bool:
        return constraint in self._constraints

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return set(self._constraints) == set(other._constraints)

    def __hash__(self) -> int:
        return hash(frozenset(self._constraints))

    def __getitem__(self, index: int) -> Constraint:
        return self._constraints[index]

    def __repr__(self) -> str:
        return f"ConstraintSet({len(self._constraints)} constraints)"

    def __getstate__(self):
        # The "already simplified" marker holds an in-process rules token;
        # identity does not survive pickling, so drop it (the caches do
        # survive — they are structural).
        state = dict(self.__dict__)
        state.pop("_simplified_marker", None)
        return state

    def to_text(self) -> str:
        """Render one constraint per line (parseable back with the parser)."""
        return "\n".join(str(constraint) for constraint in self._constraints)

    # -- building --------------------------------------------------------------

    def adding(self, *constraints: Constraint) -> "ConstraintSet":
        """Return a new set with the given constraints appended."""
        return ConstraintSet(self._constraints + constraints)

    def removing(self, *constraints: Constraint) -> "ConstraintSet":
        """Return a new set without the given constraints."""
        removed = set(constraints)
        return ConstraintSet(c for c in self._constraints if c not in removed)

    def replacing(self, old: Constraint, new_constraints: Iterable[Constraint]) -> "ConstraintSet":
        """Return a new set with ``old`` replaced (in place) by ``new_constraints``."""
        result: List[Constraint] = []
        replaced = False
        for constraint in self._constraints:
            if constraint == old and not replaced:
                result.extend(new_constraints)
                replaced = True
            else:
                result.append(constraint)
        if not replaced:
            raise ConstraintError("constraint to replace is not in the set")
        return ConstraintSet(result)

    def union(self, other: "ConstraintSet") -> "ConstraintSet":
        """Return the union of two constraint sets (order: self then other)."""
        return ConstraintSet(tuple(self._constraints) + tuple(other._constraints))

    def subset(self, indices: Iterable[int]) -> "ConstraintSet":
        """Return the set of constraints at ``indices``, in the given order.

        The composition planner carves a problem's constraint set into
        per-component sub-sets this way (see :mod:`repro.compose.planner`).
        """
        return ConstraintSet(self._constraints[index] for index in indices)

    def map(self, fn: Callable[[Constraint], Constraint]) -> "ConstraintSet":
        """Return a new set with ``fn`` applied to every constraint.

        Returns ``self`` when ``fn`` leaves every constraint identical, so
        no-op rewrites (substituting an absent symbol, re-simplifying an
        already-simplified set) skip the dedup pass entirely.
        """
        mapped = [fn(constraint) for constraint in self._constraints]
        if all(new is old for new, old in zip(mapped, self._constraints)):
            return self
        return ConstraintSet(mapped)

    def filter(self, predicate: Callable[[Constraint], bool]) -> "ConstraintSet":
        """Return a new set keeping only constraints satisfying ``predicate``.

        Returns ``self`` when the predicate keeps everything, so no-op filters
        (re-dropping trivial constraints from an already-clean set) skip the
        dedup pass entirely.
        """
        kept = [c for c in self._constraints if predicate(c)]
        if len(kept) == len(self._constraints):
            return self
        return ConstraintSet(kept)

    def without_trivial(self) -> "ConstraintSet":
        """Drop constraints of the form ``E ⊆ E`` / ``E = E``."""
        return self.filter(lambda c: not c.is_trivial())

    # -- queries ----------------------------------------------------------------

    #: Sets at least this large build the symbol → indices dictionary; smaller
    #: sets answer symbol queries by probing each constraint's cached name set
    #: directly (a handful of C-speed frozenset lookups beats building and
    #: throwing away a Python dict per rewritten set).
    INDEX_THRESHOLD = 32

    def _index(self) -> Dict[str, Tuple[int, ...]]:
        """The symbol → constraint-indices index, built lazily in one pass."""
        if self._mention_index is None:
            index: Dict[str, List[int]] = {}
            for position, constraint in enumerate(self._constraints):
                for name in constraint.relation_names():
                    index.setdefault(name, []).append(position)
            self._mention_index = {
                name: tuple(positions) for name, positions in index.items()
            }
        return self._mention_index

    def relation_names(self) -> FrozenSet[str]:
        """All relation symbols mentioned anywhere in the set (cached)."""
        if self._names_cache is None:
            if self._mention_index is not None:
                self._names_cache = frozenset(self._mention_index)
            else:
                self._names_cache = frozenset().union(
                    *(c.relation_names() for c in self._constraints)
                )
        return self._names_cache

    def constraints_mentioning(self, name: str) -> Tuple[Constraint, ...]:
        """Constraints that mention relation ``name`` on either side (indexed)."""
        return tuple(
            self._constraints[position] for position in self.indices_mentioning(name)
        )

    def indices_mentioning(self, name: str) -> Tuple[int, ...]:
        """Positions of the constraints mentioning ``name``.

        Served from the symbol index when the set is large (or the index is
        already built); small sets are scanned with O(1) per-constraint name
        probes instead.
        """
        if self._mention_index is None and len(self._constraints) < self.INDEX_THRESHOLD:
            return tuple(
                [
                    position
                    for position, constraint in enumerate(self._constraints)
                    if name in constraint.relation_names()
                ]
            )
        return self._index().get(name, ())

    def mentions(self, name: str) -> bool:
        """Return ``True`` iff any constraint mentions relation ``name``."""
        return name in self.relation_names()

    def operator_count(self) -> int:
        """Total number of operator nodes across all constraints (size metric).

        The per-constraint counts are O(1) attribute reads (cached summaries),
        and the set-level total is computed once per set — the blow-up guard
        re-measures every candidate rewrite, so this is a hot query.
        """
        if self._operator_count is None:
            self._operator_count = sum(
                constraint.operator_count() for constraint in self._constraints
            )
        return self._operator_count

    def contains_skolem(self) -> bool:
        """Return ``True`` iff any constraint contains a Skolem application."""
        return any(c.contains_skolem() for c in self._constraints)

    def fingerprint(self) -> bytes:
        """Deterministic, order-sensitive content fingerprint of the set.

        Derived from the per-constraint digests (which in turn come from the
        cached structural summaries of the sides), so equal structure yields
        an equal fingerprint in every process.  Order matters deliberately:
        the composition algorithm attempts symbols and simplifies constraints
        in set order, so two reorderings are distinct inputs.  Cached, and —
        being structural — the cache survives pickling.
        """
        if self._fingerprint is None:
            from hashlib import blake2b

            from repro.algebra.digest import DIGEST_SIZE

            h = blake2b(digest_size=DIGEST_SIZE)
            h.update(b"%d|" % len(self._constraints))
            for constraint in self._constraints:
                h.update(constraint.digest())
            self._fingerprint = h.digest()
        return self._fingerprint

    def containments(self) -> Tuple[ContainmentConstraint, ...]:
        """The containment constraints of the set."""
        return tuple(c for c in self._constraints if isinstance(c, ContainmentConstraint))

    def equalities(self) -> Tuple[EqualityConstraint, ...]:
        """The equality constraints of the set."""
        return tuple(c for c in self._constraints if isinstance(c, EqualityConstraint))

    # -- transformations ---------------------------------------------------------

    def substituting(self, name: str, replacement: Expression) -> "ConstraintSet":
        """Replace every occurrence of relation ``name`` by ``replacement``.

        Only constraints that actually mention ``name`` are rewritten (an O(1)
        probe of each constraint's cached name set, or of the symbol index when
        it is already built); the rest are reused as-is.  When nothing mentions
        ``name`` the set itself is returned, so no-op substitutions are
        allocation-free.
        """
        if self._mention_index is not None:
            positions = self._mention_index.get(name)
            if not positions:
                return self
            result = list(self._constraints)
            for position in positions:
                result[position] = result[position].substituting(name, replacement)
            return ConstraintSet(result)
        changed = False
        result = []
        for constraint in self._constraints:
            if name in constraint.relation_names():
                constraint = constraint.substituting(name, replacement)
                changed = True
            result.append(constraint)
        if not changed:
            return self
        return ConstraintSet(result)

    def with_equalities_split(self, name: str = None) -> "ConstraintSet":
        """Convert equality constraints into pairs of containments.

        If ``name`` is given, only equalities mentioning that symbol are split
        (this is what the left- and right-compose steps do); the symbol index
        narrows the scan to the affected constraints.  Otherwise every
        equality is split.  Returns ``self`` when nothing needs splitting.
        """
        if name is not None:
            to_split = {
                position
                for position in self.indices_mentioning(name)
                if isinstance(self._constraints[position], EqualityConstraint)
            }
            if not to_split:
                return self
            result: List[Constraint] = []
            for position, constraint in enumerate(self._constraints):
                if position in to_split:
                    result.extend(constraint.as_containments())
                else:
                    result.append(constraint)
            return ConstraintSet(result)
        result = []
        split_any = False
        for constraint in self._constraints:
            if isinstance(constraint, EqualityConstraint):
                result.extend(constraint.as_containments())
                split_any = True
            else:
                result.append(constraint)
        if not split_any:
            return self
        return ConstraintSet(result)
