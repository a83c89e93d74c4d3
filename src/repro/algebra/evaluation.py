"""Set-semantics evaluation of relational-algebra expressions over instances.

The evaluator implements the standard set semantics of Section 2 of the paper,
including the special relations:

* ``D^r`` — the r-fold cross product of the active domain of the instance, and
* ``∅``  — the empty relation.

Skolem applications can only be evaluated when a concrete interpretation for
each Skolem function is supplied (a :class:`SkolemInterpretation`); this is
used by tests that verify the *semantics* of Skolemized constraint sets, never
by the composition algorithm itself.

A prefix operator (selection, projection, the extended joins and transitive
closure) is evaluated through the one set semantics its class declares,
:meth:`~repro.algebra.expressions.PrefixOperator.evaluate_rows`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.algebra.expressions import (
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
    Intersection,
    PrefixOperator,
    Relation,
    SkolemApplication,
    Union,
)
from repro.exceptions import EvaluationError
from repro.schema.instance import Instance

__all__ = ["Evaluator", "SkolemInterpretation", "evaluate"]

Row = Tuple[object, ...]
Rows = FrozenSet[Row]

#: Hard cap on the number of tuples any single sub-result may contain.
DEFAULT_MAX_TUPLES = 200_000


@dataclass
class SkolemInterpretation:
    """Concrete interpretations for Skolem functions.

    ``functions`` maps a Skolem function name to a Python callable that takes
    the tuple of depended-on values and returns a single value.  Functions not
    listed fall back to ``default``, which simply returns a deterministic
    value derived from its arguments (useful for completeness-style tests).
    """

    functions: Dict[str, Callable[[Tuple[object, ...]], object]] = field(default_factory=dict)
    default: Optional[Callable[[str, Tuple[object, ...]], object]] = None

    def apply(self, name: str, arguments: Tuple[object, ...]) -> object:
        if name in self.functions:
            return self.functions[name](arguments)
        if self.default is not None:
            return self.default(name, arguments)
        raise EvaluationError(f"no interpretation supplied for Skolem function {name!r}")


class Evaluator:
    """Evaluate expressions against a fixed instance.

    Parameters
    ----------
    instance:
        The database instance supplying relation contents and the active domain.
    skolems:
        Optional interpretation of Skolem functions.
    extra_domain:
        Extra values to include in the active domain (the paper allows the
        witness of completeness to range outside the restricted instance).
    max_tuples:
        Safety limit on intermediate result sizes; exceeding it raises
        :class:`EvaluationError` instead of exhausting memory (relevant for
        ``D^r`` with a large active domain).
    """

    def __init__(
        self,
        instance: Instance,
        skolems: Optional[SkolemInterpretation] = None,
        extra_domain: Iterable[object] = (),
        max_tuples: int = DEFAULT_MAX_TUPLES,
    ):
        self.instance = instance
        self.skolems = skolems
        self.max_tuples = max_tuples
        self._domain = frozenset(instance.active_domain()) | frozenset(extra_domain)
        self._cache: Dict[Expression, Rows] = {}

    # -- public API ----------------------------------------------------------

    def evaluate(self, expression: Expression) -> Rows:
        """Return the set of tuples denoted by ``expression`` on the instance."""
        if expression in self._cache:
            return self._cache[expression]
        result = self._dispatch(expression)
        self._check_size(result, expression)
        self._cache[expression] = result
        return result

    @property
    def active_domain(self) -> FrozenSet[object]:
        """The active domain used to interpret ``D``."""
        return self._domain

    # -- dispatch -------------------------------------------------------------

    def _check_size(self, rows: Rows, expression: Expression) -> None:
        if len(rows) > self.max_tuples:
            raise EvaluationError(
                f"evaluation of {expression!s} produced {len(rows)} tuples, "
                f"exceeding the limit of {self.max_tuples}"
            )

    def _dispatch(self, expression: Expression) -> Rows:
        if isinstance(expression, PrefixOperator):
            return expression.evaluate_rows(*map(self.evaluate, expression.children))
        if isinstance(expression, Relation):
            return self._eval_relation(expression)
        if isinstance(expression, Domain):
            return self._eval_domain(expression)
        if isinstance(expression, Empty):
            return frozenset()
        if isinstance(expression, ConstantRelation):
            return frozenset(expression.tuples)
        if isinstance(expression, Union):
            return self.evaluate(expression.left) | self.evaluate(expression.right)
        if isinstance(expression, Intersection):
            return self.evaluate(expression.left) & self.evaluate(expression.right)
        if isinstance(expression, Difference):
            return self.evaluate(expression.left) - self.evaluate(expression.right)
        if isinstance(expression, CrossProduct):
            return self._eval_product(expression)
        if isinstance(expression, SkolemApplication):
            return self._eval_skolem(expression)
        raise EvaluationError(f"cannot evaluate expression of type {type(expression).__name__}")

    # -- node evaluators -------------------------------------------------------

    def _eval_relation(self, expression: Relation) -> Rows:
        rows = self.instance.relation(expression.name)
        for row in rows:
            if len(row) != expression.arity:
                raise EvaluationError(
                    f"relation {expression.name!r} declared with arity {expression.arity} "
                    f"but the instance contains a tuple of width {len(row)}"
                )
        return rows

    def _eval_domain(self, expression: Domain) -> Rows:
        domain = sorted(self._domain, key=repr)
        size = len(domain) ** expression.arity
        if size > self.max_tuples:
            raise EvaluationError(
                f"materializing D({expression.arity}) over a domain of {len(domain)} values "
                f"would produce {size} tuples (limit {self.max_tuples})"
            )
        return frozenset(itertools.product(domain, repeat=expression.arity))

    def _eval_product(self, expression: CrossProduct) -> Rows:
        left = self.evaluate(expression.left)
        right = self.evaluate(expression.right)
        if len(left) * len(right) > self.max_tuples:
            raise EvaluationError(
                f"cross product would produce {len(left) * len(right)} tuples "
                f"(limit {self.max_tuples})"
            )
        return frozenset(l + r for l in left for r in right)

    def _eval_skolem(self, expression: SkolemApplication) -> Rows:
        if self.skolems is None:
            raise EvaluationError(
                f"expression contains Skolem function {expression.function.name!r} "
                "but no SkolemInterpretation was supplied"
            )
        child_rows = self.evaluate(expression.child)
        result = set()
        for row in child_rows:
            arguments = tuple(row[i] for i in expression.function.depends_on)
            value = self.skolems.apply(expression.function.name, arguments)
            result.add(row + (value,))
        return frozenset(result)


def evaluate(
    expression: Expression,
    instance: Instance,
    skolems: Optional[SkolemInterpretation] = None,
    extra_domain: Iterable[object] = (),
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> Rows:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(instance, skolems, extra_domain, max_tuples).evaluate(expression)
