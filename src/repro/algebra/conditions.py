"""Boolean selection conditions over indexed attributes and constants.

A condition is the ``c`` in a selection ``σ_c(E)``.  The paper allows ``c`` to
be "an arbitrary boolean formula on attributes (identified by index) and
constants"; this module implements exactly that: comparisons between terms
combined with conjunction, disjunction and negation, plus the trivial ``TRUE``
and ``FALSE`` conditions.

Conditions are immutable and hashable, evaluate against a tuple, and support
the index manipulations needed by normalization rules (shifting, remapping,
collecting referenced indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Tuple

from repro.algebra.terms import Attribute, Constant, NullValue, Term, resolve_term
from repro.exceptions import ConditionError

__all__ = [
    "Condition",
    "TrueCondition",
    "FalseCondition",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "conjunction",
    "disjunction",
    "equals",
    "equals_const",
    "COMPARISON_OPERATORS",
]


def _safe_lt(left: object, right: object) -> bool:
    """Ordered comparison that never raises on mixed types.

    Values of incomparable types are ordered by their type name so that the
    evaluator is total; NULLs never compare as less-than.
    """
    if isinstance(left, NullValue) or isinstance(right, NullValue):
        return False
    try:
        return left < right  # type: ignore[operator]
    except TypeError:
        return type(left).__name__ < type(right).__name__


def _eq(left: object, right: object) -> bool:
    if isinstance(left, NullValue) or isinstance(right, NullValue):
        return False
    return left == right


#: Supported comparison operators and their semantics.
COMPARISON_OPERATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": _eq,
    "!=": lambda a, b: not isinstance(a, NullValue) and not isinstance(b, NullValue) and a != b,
    "<": _safe_lt,
    "<=": lambda a, b: _safe_lt(a, b) or _eq(a, b),
    ">": lambda a, b: _safe_lt(b, a),
    ">=": lambda a, b: _safe_lt(b, a) or _eq(a, b),
}


class Condition:
    """Abstract base class for selection conditions."""

    def evaluate(self, row: Tuple) -> bool:
        """Return ``True`` iff the condition holds on ``row``."""
        raise NotImplementedError

    def referenced_indices(self) -> FrozenSet[int]:
        """Return the set of column indices the condition mentions."""
        raise NotImplementedError

    def shifted(self, offset: int) -> "Condition":
        """Return the condition with every attribute index shifted by ``offset``."""
        raise NotImplementedError

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        """Return the condition with attribute indices replaced via ``index_map``."""
        raise NotImplementedError

    def negated(self) -> "Condition":
        """Return the logical negation of the condition."""
        return Not(self)

    def max_index(self) -> int:
        """Return the largest referenced index, or ``-1`` if none.

        Every selection and join node built over the condition validates
        against it, so it is computed once and cached on the (immutable)
        condition.
        """
        value = getattr(self, "_max_index", None)
        if value is None:
            refs = self.referenced_indices()
            value = max(refs) if refs else -1
            object.__setattr__(self, "_max_index", value)
        return value


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The condition that is always satisfied."""

    def evaluate(self, row: Tuple) -> bool:
        return True

    def referenced_indices(self) -> FrozenSet[int]:
        return frozenset()

    def shifted(self, offset: int) -> "Condition":
        return self

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        return self

    def negated(self) -> "Condition":
        return FALSE

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseCondition(Condition):
    """The condition that is never satisfied."""

    def evaluate(self, row: Tuple) -> bool:
        return False

    def referenced_indices(self) -> FrozenSet[int]:
        return frozenset()

    def shifted(self, offset: int) -> "Condition":
        return self

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        return self

    def negated(self) -> "Condition":
        return TRUE

    def __str__(self) -> str:
        return "false"


TRUE = TrueCondition()
FALSE = FalseCondition()


@dataclass(frozen=True)
class Comparison(Condition):
    """A comparison ``left op right`` between two terms.

    ``op`` is one of ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
    """

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPERATORS:
            raise ConditionError(
                f"unknown comparison operator {self.op!r}; "
                f"expected one of {sorted(COMPARISON_OPERATORS)}"
            )
        for term in (self.left, self.right):
            if not isinstance(term, (Attribute, Constant)):
                raise ConditionError(f"comparison operand must be a term, got {term!r}")

    def evaluate(self, row: Tuple) -> bool:
        left = resolve_term(self.left, row)
        right = resolve_term(self.right, row)
        return COMPARISON_OPERATORS[self.op](left, right)

    def referenced_indices(self) -> FrozenSet[int]:
        indices = set()
        for term in (self.left, self.right):
            if isinstance(term, Attribute):
                indices.add(term.index)
        return frozenset(indices)

    def _map_term(self, term: Term, mapper: Callable[[Attribute], Attribute]) -> Term:
        return mapper(term) if isinstance(term, Attribute) else term

    def shifted(self, offset: int) -> "Condition":
        return Comparison(
            self._map_term(self.left, lambda a: a.shifted(offset)),
            self.op,
            self._map_term(self.right, lambda a: a.shifted(offset)),
        )

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        return Comparison(
            self._map_term(self.left, lambda a: a.remapped(index_map)),
            self.op,
            self._map_term(self.right, lambda a: a.remapped(index_map)),
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def _flatten(kind: type, operands: Iterable[Condition]) -> Tuple[Condition, ...]:
    """Flatten nested And/Or operands of the same kind into a single tuple.

    One operand is refused: ``(c)`` would print and read back as ``c``.
    """
    flat = []
    for operand in operands:
        if not isinstance(operand, Condition):
            raise ConditionError(f"operand must be a Condition, got {operand!r}")
        if isinstance(operand, kind):
            flat.extend(operand.operands)  # type: ignore[attr-defined]
        else:
            flat.append(operand)
    if len(flat) < 2:
        raise ConditionError(f"{kind.__name__} requires at least two operands")
    return tuple(flat)


@dataclass(frozen=True, init=False)
class And(Condition):
    """Conjunction of two or more conditions."""

    operands: Tuple[Condition, ...]

    def __init__(self, *operands: Condition):
        object.__setattr__(self, "operands", _flatten(And, operands))

    def evaluate(self, row: Tuple) -> bool:
        return all(operand.evaluate(row) for operand in self.operands)

    def referenced_indices(self) -> FrozenSet[int]:
        indices: FrozenSet[int] = frozenset()
        for operand in self.operands:
            indices |= operand.referenced_indices()
        return indices

    def shifted(self, offset: int) -> "Condition":
        return And(*(operand.shifted(offset) for operand in self.operands))

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        return And(*(operand.remapped(index_map) for operand in self.operands))

    def __str__(self) -> str:
        return "(" + " and ".join(str(operand) for operand in self.operands) + ")"


@dataclass(frozen=True, init=False)
class Or(Condition):
    """Disjunction of two or more conditions."""

    operands: Tuple[Condition, ...]

    def __init__(self, *operands: Condition):
        object.__setattr__(self, "operands", _flatten(Or, operands))

    def evaluate(self, row: Tuple) -> bool:
        return any(operand.evaluate(row) for operand in self.operands)

    def referenced_indices(self) -> FrozenSet[int]:
        indices: FrozenSet[int] = frozenset()
        for operand in self.operands:
            indices |= operand.referenced_indices()
        return indices

    def shifted(self, offset: int) -> "Condition":
        return Or(*(operand.shifted(offset) for operand in self.operands))

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        return Or(*(operand.remapped(index_map) for operand in self.operands))

    def __str__(self) -> str:
        return "(" + " or ".join(str(operand) for operand in self.operands) + ")"


@dataclass(frozen=True)
class Not(Condition):
    """Negation of a condition."""

    operand: Condition

    def __post_init__(self) -> None:
        if not isinstance(self.operand, Condition):
            raise ConditionError(f"operand must be a Condition, got {self.operand!r}")

    def evaluate(self, row: Tuple) -> bool:
        return not self.operand.evaluate(row)

    def referenced_indices(self) -> FrozenSet[int]:
        return self.operand.referenced_indices()

    def shifted(self, offset: int) -> "Condition":
        return Not(self.operand.shifted(offset))

    def remapped(self, index_map: Dict[int, int]) -> "Condition":
        return Not(self.operand.remapped(index_map))

    def negated(self) -> "Condition":
        return self.operand

    def __str__(self) -> str:
        return f"not ({self.operand})"


def conjunction(conditions: Iterable[Condition]) -> Condition:
    """Combine conditions with AND, collapsing the empty case to ``TRUE``."""
    conditions = [c for c in conditions if not isinstance(c, TrueCondition)]
    if not conditions:
        return TRUE
    if len(conditions) == 1:
        return conditions[0]
    return And(*conditions)


def disjunction(conditions: Iterable[Condition]) -> Condition:
    """Combine conditions with OR, collapsing the empty case to ``FALSE``."""
    conditions = [c for c in conditions if not isinstance(c, FalseCondition)]
    if not conditions:
        return FALSE
    if len(conditions) == 1:
        return conditions[0]
    return Or(*conditions)


def equals(left_index: int, right_index: int) -> Comparison:
    """Shorthand for the condition ``#left_index = #right_index``."""
    return Comparison(Attribute(left_index), "=", Attribute(right_index))


def equals_const(index: int, value: object) -> Comparison:
    """Shorthand for the condition ``#index = value``."""
    return Comparison(Attribute(index), "=", Constant(value))
