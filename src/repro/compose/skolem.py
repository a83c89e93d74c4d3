"""Canonical form for constraints containing Skolem functions.

Deskolemization (Section 3.5.3) first brings each Skolemized left-hand side
into the canonical shape the paper describes::

    π σ f g ... σ (R1 × R2 × ... × Rk)

i.e. an outer projection over a chain of Skolem functions over a (selected)
cross product of Skolem-free expressions.  We represent that shape explicitly:

* ``base``    — a Skolem-free expression (the ``σ(R1 × ... × Rk)`` part);
* ``skolems`` — the chain of Skolem columns, each recording its function and
  which *base* columns it depends on;
* ``output``  — for every output column, whether it reads a base column or a
  Skolem column (the outer ``π``).

Canonicalization is best-effort: shapes it cannot handle (Skolem functions
under union/intersection/difference, selections on Skolem columns, Skolem
functions depending on other Skolem columns) return ``None``, which makes the
enclosing right-compose step fail for that symbol — mirroring the paper, whose
deskolemization "may fail at several of the steps".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.algebra.builders import select
from repro.algebra.expressions import (
    CrossProduct,
    Expression,
    Projection,
    Selection,
    SkolemApplication,
    SkolemFunction,
)
from repro.algebra.traversal import contains_skolem

__all__ = ["ColumnRef", "SkolemColumn", "SkolemizedSide", "canonicalize_skolemized"]


@dataclass(frozen=True)
class ColumnRef:
    """A reference to either a base column or a Skolem column of the canonical form."""

    kind: str  # "base" or "skolem"
    index: int

    def shifted(self, base_offset: int, skolem_offset: int) -> "ColumnRef":
        if self.kind == "base":
            return ColumnRef("base", self.index + base_offset)
        return ColumnRef("skolem", self.index + skolem_offset)


@dataclass(frozen=True)
class SkolemColumn:
    """One Skolem column: the function applied and the base columns it reads."""

    function: SkolemFunction
    arguments: Tuple[ColumnRef, ...]

    def shifted(self, base_offset: int, skolem_offset: int) -> "SkolemColumn":
        return SkolemColumn(
            self.function,
            tuple(argument.shifted(base_offset, skolem_offset) for argument in self.arguments),
        )


@dataclass(frozen=True)
class SkolemizedSide:
    """The canonical form ``π_output(skolems(base))`` of a Skolemized expression."""

    base: Expression
    skolems: Tuple[SkolemColumn, ...]
    output: Tuple[ColumnRef, ...]

    @property
    def base_arity(self) -> int:
        return self.base.arity

    def function_names(self) -> Tuple[str, ...]:
        return tuple(column.function.name for column in self.skolems)

    def uses_skolem_output(self) -> bool:
        """Return ``True`` if any output column reads a Skolem column."""
        return any(ref.kind == "skolem" for ref in self.output)


def canonicalize_skolemized(expression: Expression) -> Optional[SkolemizedSide]:
    """Bring a (possibly Skolemized) expression into canonical form.

    Returns ``None`` when the expression's shape is outside the fragment the
    deskolemizer handles (the paper's unnest / cycle checks, steps 1-2).
    """
    if not contains_skolem(expression):
        return SkolemizedSide(
            base=expression,
            skolems=(),
            output=tuple(ColumnRef("base", i) for i in range(expression.arity)),
        )

    if isinstance(expression, SkolemApplication):
        inner = canonicalize_skolemized(expression.child)
        if inner is None:
            return None
        arguments: List[ColumnRef] = []
        for index in expression.function.depends_on:
            reference = inner.output[index]
            if reference.kind == "skolem":
                # A Skolem function depending on another Skolem column would be
                # a cycle (paper step 2): refuse.
                return None
            arguments.append(reference)
        new_column = SkolemColumn(expression.function, tuple(arguments))
        return SkolemizedSide(
            base=inner.base,
            skolems=inner.skolems + (new_column,),
            output=inner.output + (ColumnRef("skolem", len(inner.skolems)),),
        )

    if isinstance(expression, Projection):
        inner = canonicalize_skolemized(expression.child)
        if inner is None:
            return None
        return SkolemizedSide(
            base=inner.base,
            skolems=inner.skolems,
            output=tuple(inner.output[index] for index in expression.indices),
        )

    if isinstance(expression, Selection):
        inner = canonicalize_skolemized(expression.child)
        if inner is None:
            return None
        references = expression.condition.referenced_indices()
        mapping = {}
        for index in references:
            reference = inner.output[index]
            if reference.kind == "skolem":
                # A selection restricting a Skolem column (a "restricting atom",
                # paper step 5) is outside the fragment we eliminate: refuse.
                return None
            mapping[index] = reference.index
        pushed_condition = expression.condition.remapped(mapping)
        return SkolemizedSide(
            base=select(inner.base, pushed_condition),
            skolems=inner.skolems,
            output=inner.output,
        )

    if isinstance(expression, CrossProduct):
        left = canonicalize_skolemized(expression.left)
        right = canonicalize_skolemized(expression.right)
        if left is None or right is None:
            return None
        base = CrossProduct(left.base, right.base)
        base_offset = left.base.arity
        skolem_offset = len(left.skolems)
        skolems = left.skolems + tuple(
            column.shifted(base_offset, skolem_offset) for column in right.skolems
        )
        output = left.output + tuple(
            reference.shifted(base_offset, skolem_offset) for reference in right.output
        )
        return SkolemizedSide(base=base, skolems=skolems, output=output)

    # Skolem functions under any other operator (union, intersection,
    # difference, extended operators) are outside the canonical fragment.
    return None
