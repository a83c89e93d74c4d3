"""The relational-algebra expression AST.

This is the heart of the library's representation layer.  Following the paper
(Section 2), a relational expression is built from base relation symbols and
the six basic operators — union, intersection, cross product, set difference,
selection and projection — plus:

* the special active-domain relation ``D^r`` (:class:`Domain`),
* the special empty relation ``∅^r`` (:class:`Empty`),
* constant relations (needed by the schema-evolution primitive "add default"),
* Skolem-function applications, used internally by right-normalization
  (Section 3.5),
* *extended* operators (:class:`SemiJoin`, :class:`AntiSemiJoin`,
  :class:`LeftOuterJoin`) that play the role of the paper's "user-defined"
  operators and are wired into the algorithm only through the operator
  registry (:mod:`repro.operators.registry`), and
* :class:`TransitiveClosure`, which no registry rule describes.

All nodes are immutable, hashable, structurally comparable, expose their
``arity``, their ``children`` and a ``with_children`` reconstructor so that
generic traversal utilities (:mod:`repro.algebra.traversal`) can rewrite trees
without knowing every node type.  A built-in node's one identity is its
content digest (:mod:`repro.algebra.digest`): its hash is the digest's first
eight bytes, and two nodes are equal when they have the same class and the
same digest.

Attribute indices are 0-based everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.algebra.conditions import Condition
from repro.algebra.terms import NULL
from repro.exceptions import ArityError, ExpressionError

__all__ = [
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
    "TransitiveClosure",
    "PrefixOperator",
    "BASIC_OPERATOR_TYPES",
    "EXTENDED_OPERATOR_TYPES",
    "PREFIX_OPERATOR_TYPES",
    "LEAF_TYPES",
]


class Expression:
    """Abstract base class for relational-algebra expressions."""

    #: Short operator name used by printers, registries and error messages.
    operator_name: str = "?"

    @property
    def arity(self) -> int:
        """Number of columns produced by the expression."""
        raise NotImplementedError

    @property
    def children(self) -> Tuple["Expression", ...]:
        """Immediate sub-expressions (empty for leaves)."""
        raise NotImplementedError

    def with_children(self, children: Tuple["Expression", ...]) -> "Expression":
        """Rebuild this node with new children (same non-expression payload)."""
        raise NotImplementedError

    def is_leaf(self) -> bool:
        """Return ``True`` if the node has no sub-expressions."""
        return not self.children

    def __str__(self) -> str:
        # Imported lazily to avoid a circular import at module load time.
        from repro.algebra.printer import expression_to_text

        return expression_to_text(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {self}>"

    def __getstate__(self):
        # Drop the "already simplified" stamp (it holds an in-process rules
        # token whose identity does not survive pickling).  The summary, the
        # digest, the hash derived from it and the cached arity survive —
        # they are process-independent.
        state = dict(self.__dict__)
        state.pop("_simplified_for", None)
        return state


class PrefixOperator(Expression):
    """An operator written ``keyword[payload](operand, …)``.

    ``operator_name`` is the keyword.  The first ``operand_count`` fields are
    the operands, and ``payload_kind`` names the field after them, if any:
    ``"condition"`` (written ``[c]``) or ``"indices"`` (written ``[i,…]``).
    """

    operand_count = 1
    payload_kind: Optional[str] = None

    def evaluate_rows(self, *child_rows: FrozenSet[tuple]) -> FrozenSet[tuple]:
        """The set of rows this node denotes, given each child's rows."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class _Leaf(Expression):
    """A node type without sub-expressions."""

    @property
    def children(self) -> Tuple[Expression, ...]:
        return ()

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if children:
            raise ExpressionError(f"{type(self).__name__} is a leaf and takes no children")
        return self


@dataclass(frozen=True, repr=False)
class Relation(_Leaf):
    """A reference to a base relation symbol with a fixed arity."""

    name: str
    relation_arity: int

    operator_name = "relation"

    def __post_init__(self) -> None:
        if not self.name:
            raise ExpressionError("relation name must be non-empty")
        if self.relation_arity <= 0:
            raise ArityError(f"relation {self.name!r} must have positive arity, got {self.relation_arity}")

    @property
    def arity(self) -> int:
        return self.relation_arity


@dataclass(frozen=True, repr=False)
class Domain(_Leaf):
    """The active-domain relation ``D^r`` of the paper.

    ``D`` is shorthand for the union of all single-column projections of all
    relations in the database; ``D^r`` is its ``r``-fold cross product.
    """

    domain_arity: int

    operator_name = "domain"

    def __post_init__(self) -> None:
        if self.domain_arity <= 0:
            raise ArityError(f"domain relation must have positive arity, got {self.domain_arity}")

    @property
    def arity(self) -> int:
        return self.domain_arity


@dataclass(frozen=True, repr=False)
class Empty(_Leaf):
    """The empty relation ``∅`` of a given arity."""

    empty_arity: int

    operator_name = "empty"

    def __post_init__(self) -> None:
        if self.empty_arity <= 0:
            raise ArityError(f"empty relation must have positive arity, got {self.empty_arity}")

    @property
    def arity(self) -> int:
        return self.empty_arity


@dataclass(frozen=True, repr=False)
class ConstantRelation(_Leaf):
    """A small literal relation, e.g. the ``{c}`` used by the "add default" primitive."""

    tuples: Tuple[Tuple[object, ...], ...]
    constant_arity: int

    operator_name = "constant"

    def __post_init__(self) -> None:
        if self.constant_arity <= 0:
            raise ArityError(f"constant relation must have positive arity, got {self.constant_arity}")
        for row in self.tuples:
            if not isinstance(row, tuple):
                raise ExpressionError(f"constant relation rows must be tuples, got {row!r}")
            if len(row) != self.constant_arity:
                raise ArityError(
                    f"constant relation declared arity {self.constant_arity} "
                    f"but contains a row of width {len(row)}"
                )

    @classmethod
    def singleton(cls, *values: object) -> "ConstantRelation":
        """Build the one-row constant relation ``{(values...)}``."""
        if not values:
            raise ExpressionError("a constant relation row needs at least one value")
        return cls(tuples=(tuple(values),), constant_arity=len(values))

    @property
    def arity(self) -> int:
        return self.constant_arity


# ---------------------------------------------------------------------------
# Basic binary operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class _BinarySameArity(Expression):
    """Shared implementation for ∪, ∩ and − (operands must agree on arity)."""

    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        for operand in (self.left, self.right):
            if not isinstance(operand, Expression):
                raise ExpressionError(f"operand must be an Expression, got {operand!r}")
        if self.left.arity != self.right.arity:
            raise ArityError(
                f"{self.operator_name} requires operands of equal arity, "
                f"got {self.left.arity} and {self.right.arity}"
            )

    @property
    def arity(self) -> int:
        return self.left.arity

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 2:
            raise ExpressionError(f"{self.operator_name} takes exactly two children")
        return type(self)(children[0], children[1])


@dataclass(frozen=True, repr=False)
class Union(_BinarySameArity):
    """Set union ``E1 ∪ E2``."""

    operator_name = "union"


@dataclass(frozen=True, repr=False)
class Intersection(_BinarySameArity):
    """Set intersection ``E1 ∩ E2``."""

    operator_name = "intersect"


@dataclass(frozen=True, repr=False)
class Difference(_BinarySameArity):
    """Set difference ``E1 − E2`` (monotone in the left operand only)."""

    operator_name = "difference"


@dataclass(frozen=True, repr=False)
class CrossProduct(Expression):
    """Cross product ``E1 × E2``; arity is the sum of the operand arities."""

    left: Expression
    right: Expression

    operator_name = "product"

    def __post_init__(self) -> None:
        for operand in (self.left, self.right):
            if not isinstance(operand, Expression):
                raise ExpressionError(f"operand must be an Expression, got {operand!r}")

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 2:
            raise ExpressionError("product takes exactly two children")
        return CrossProduct(children[0], children[1])


# ---------------------------------------------------------------------------
# Basic unary operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Selection(PrefixOperator):
    """Selection ``σ_c(E)``; keeps the rows of ``E`` satisfying condition ``c``."""

    child: Expression
    condition: Condition

    operator_name = "select"
    payload_kind = "condition"

    def __post_init__(self) -> None:
        if not isinstance(self.child, Expression):
            raise ExpressionError(f"selection child must be an Expression, got {self.child!r}")
        if not isinstance(self.condition, Condition):
            raise ExpressionError(f"selection condition must be a Condition, got {self.condition!r}")
        if self.condition.max_index() >= self.child.arity:
            raise ArityError(
                f"selection condition references column #{self.condition.max_index()} "
                f"but the input has arity {self.child.arity}"
            )

    @property
    def arity(self) -> int:
        return self.child.arity

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 1:
            raise ExpressionError("select takes exactly one child")
        return Selection(children[0], self.condition)

    def evaluate_rows(self, rows):
        return frozenset(row for row in rows if self.condition.evaluate(row))


@dataclass(frozen=True, repr=False)
class Projection(PrefixOperator):
    """Projection ``π_I(E)``; ``I`` is a list of 0-based column indices.

    The index list may reorder and duplicate columns, which is how column
    permutations are expressed in the unnamed perspective.
    """

    child: Expression
    indices: Tuple[int, ...]

    operator_name = "project"
    payload_kind = "indices"

    def __post_init__(self) -> None:
        if not isinstance(self.child, Expression):
            raise ExpressionError(f"projection child must be an Expression, got {self.child!r}")
        if not self.indices:
            raise ArityError("projection must keep at least one column")
        indices = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", indices)
        arity = self.child.arity
        if min(indices) < 0 or max(indices) >= arity:
            for index in indices:
                if index < 0 or index >= arity:
                    raise ArityError(
                        f"projection index {index} out of range for input arity {arity}"
                    )

    @property
    def arity(self) -> int:
        return len(self.indices)

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 1:
            raise ExpressionError("project takes exactly one child")
        return Projection(children[0], self.indices)

    def evaluate_rows(self, rows):
        return frozenset(tuple(row[i] for i in self.indices) for row in rows)


# ---------------------------------------------------------------------------
# Skolem functions (internal device of right-normalization)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class SkolemFunction:
    """A named Skolem function depending on a set of input column indices."""

    name: str
    depends_on: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ExpressionError("Skolem function name must be non-empty")
        object.__setattr__(self, "depends_on", tuple(sorted(int(i) for i in self.depends_on)))
        for index in self.depends_on:
            if index < 0:
                raise ArityError(f"Skolem dependency index must be non-negative, got {index}")

    def __str__(self) -> str:
        deps = ",".join(str(i) for i in self.depends_on)
        return f"{self.name}[{deps}]"


@dataclass(frozen=True, repr=False)
class SkolemApplication(Expression):
    """Application of a Skolem function to an expression.

    ``f_I(E)`` has arity ``arity(E) + 1``: it appends one column whose value is
    some (existentially quantified) function of the columns of ``E`` listed in
    ``I``.  Skolem applications appear only transiently, between
    right-normalization and deskolemization.
    """

    child: Expression
    function: SkolemFunction

    operator_name = "skolem"

    def __post_init__(self) -> None:
        if not isinstance(self.child, Expression):
            raise ExpressionError(f"skolem child must be an Expression, got {self.child!r}")
        if not isinstance(self.function, SkolemFunction):
            raise ExpressionError(f"expected a SkolemFunction, got {self.function!r}")
        for index in self.function.depends_on:
            if index >= self.child.arity:
                raise ArityError(
                    f"Skolem function {self.function.name!r} depends on column #{index} "
                    f"but the input has arity {self.child.arity}"
                )

    @property
    def arity(self) -> int:
        return self.child.arity + 1

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 1:
            raise ExpressionError("skolem takes exactly one child")
        return SkolemApplication(children[0], self.function)


# ---------------------------------------------------------------------------
# Extended ("user-defined") operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class _JoinLike(PrefixOperator):
    """Shared implementation for the condition-based extended binary operators.

    The join condition's attribute indices refer to the concatenation of the
    left operand's columns followed by the right operand's columns.
    """

    left: Expression
    right: Expression
    condition: Condition

    operand_count = 2
    payload_kind = "condition"

    def __post_init__(self) -> None:
        for operand in (self.left, self.right):
            if not isinstance(operand, Expression):
                raise ExpressionError(f"operand must be an Expression, got {operand!r}")
        if not isinstance(self.condition, Condition):
            raise ExpressionError(f"join condition must be a Condition, got {self.condition!r}")
        combined = self.left.arity + self.right.arity
        if self.condition.max_index() >= combined:
            raise ArityError(
                f"{self.operator_name} condition references column #{self.condition.max_index()} "
                f"but the combined arity is {combined}"
            )

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 2:
            raise ExpressionError(f"{self.operator_name} takes exactly two children")
        return type(self)(children[0], children[1], self.condition)

    def _matches(self, left_row, right_rows):
        evaluate = self.condition.evaluate
        return [left_row + row for row in right_rows if evaluate(left_row + row)]


@dataclass(frozen=True, repr=False)
class SemiJoin(_JoinLike):
    """Semijoin ``E1 ⋉_c E2``: rows of E1 with at least one matching row in E2."""

    operator_name = "semijoin"

    @property
    def arity(self) -> int:
        return self.left.arity

    def evaluate_rows(self, left_rows, right_rows):
        return frozenset(row for row in left_rows if self._matches(row, right_rows))


@dataclass(frozen=True, repr=False)
class AntiSemiJoin(_JoinLike):
    """Anti-semijoin ``E1 ▷_c E2``: rows of E1 with no matching row in E2."""

    operator_name = "antisemijoin"

    @property
    def arity(self) -> int:
        return self.left.arity

    def evaluate_rows(self, left_rows, right_rows):
        return frozenset(row for row in left_rows if not self._matches(row, right_rows))


@dataclass(frozen=True, repr=False)
class LeftOuterJoin(_JoinLike):
    """Left outerjoin ``E1 ⟕_c E2``; unmatched E1 rows are padded with NULLs."""

    operator_name = "leftouterjoin"

    @property
    def arity(self) -> int:
        return self.left.arity + self.right.arity

    def evaluate_rows(self, left_rows, right_rows):
        padding = (NULL,) * self.right.arity
        result = set()
        for row in left_rows:
            matches = self._matches(row, right_rows)
            if matches:
                result.update(matches)
            else:
                result.add(row + padding)
        return frozenset(result)


@dataclass(frozen=True, repr=False)
class TransitiveClosure(PrefixOperator):
    """Transitive closure ``tc(E)`` of a binary relation (Nash et al., Theorem 1).

    No registry rule describes it, so the algorithm tolerates it but cannot
    eliminate a symbol that it guards.
    """

    child: Expression

    operator_name = "tclosure"

    def __post_init__(self) -> None:
        if not isinstance(self.child, Expression):
            raise ExpressionError(f"tclosure child must be an Expression, got {self.child!r}")
        if self.child.arity != 2:
            raise ArityError("transitive closure requires a binary relation")

    @property
    def arity(self) -> int:
        return 2

    @property
    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, children: Tuple[Expression, ...]) -> Expression:
        if len(children) != 1:
            raise ExpressionError("tclosure takes exactly one child")
        return TransitiveClosure(children[0])

    def evaluate_rows(self, rows):
        closure, frontier = set(rows), set(rows)
        while frontier:
            # Extend each pair found last round by one more edge.
            frontier = {(a, d) for a, b in frontier for c, d in rows if b == c} - closure
            closure |= frontier
        return frozenset(closure)


#: The six basic operators of the paper plus the leaf node types.
BASIC_OPERATOR_TYPES = (
    Union,
    Intersection,
    Difference,
    CrossProduct,
    Selection,
    Projection,
)

#: Operators handled purely through the extensibility machinery.
EXTENDED_OPERATOR_TYPES = (SemiJoin, AntiSemiJoin, LeftOuterJoin)

#: The operators written ``keyword[payload](operand, …)``; the parser reads these.
PREFIX_OPERATOR_TYPES = (Selection, Projection, *EXTENDED_OPERATOR_TYPES, TransitiveClosure)

#: Node types that never have children.
LEAF_TYPES = (Relation, Domain, Empty, ConstantRelation)


def _digest_hash(self) -> int:
    """A built-in node's hash: its digest's first eight bytes, cached."""
    try:
        return self._hash_value
    except AttributeError:
        # Not summarized yet (the summary pass stores the hash with the
        # digest); the pass is iterative, so a fresh deep tree is safe.
        from repro.algebra.summary import node_summary

        node_summary(self)
        return self._hash_value


def _digest_eq(self, other) -> bool:
    """Built-in nodes are equal when they have the same class and digest."""
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    try:
        return self._digest == other._digest
    except AttributeError:
        from repro.algebra.digest import expression_digest

        return expression_digest(self) == expression_digest(other)


def _install_cached_arity(cls) -> None:
    """Cache a composite node's ``arity`` on first access.

    ``arity`` recurses through the children (``CrossProduct`` sums both
    sides), and every node construction re-derives its operands' arities for
    validation — on the deep operator chains normalization builds, that turns
    arity into an O(depth) query asked O(n) times.  Trees are built bottom-up,
    so caching makes each node's arity an O(1) attribute read by the time its
    parent asks.  Leaves keep their plain field read.
    """
    getter = cls.arity.fget

    def arity(self, _getter=getter):
        try:
            return self._arity
        except AttributeError:
            value = _getter(self)
            object.__setattr__(self, "_arity", value)
            return value

    cls.arity = property(arity)


_OPERATOR_TYPES = set(BASIC_OPERATOR_TYPES + PREFIX_OPERATOR_TYPES) | {SkolemApplication}
for _node_type in LEAF_TYPES + tuple(_OPERATOR_TYPES):
    _node_type.__hash__ = _digest_hash
    _node_type.__eq__ = _digest_eq
for _node_type in _OPERATOR_TYPES:
    _install_cached_arity(_node_type)
del _node_type
