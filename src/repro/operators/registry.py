"""The operator registry — the extensibility point of the algorithm.

The paper stresses that the composition algorithm is "extensible by allowing
additional information to be added separately for each operator in the form of
information about monotonicity and rules for normalization and
denormalization".  The :class:`OperatorRegistry` is that mechanism: each
registered operator type may supply

* a **monotonicity rule** — how the operator combines the monotonicity of its
  operands (consumed by :func:`repro.operators.monotonicity.monotonicity`);
* a **left-normalization rule** — how to rewrite a containment whose left side
  has this operator on top so the symbol being eliminated moves closer to
  being alone on the left (consumed by left-normalize);
* a **right-normalization rule** — the dual, for the right side (consumed by
  right-normalize);
* a **simplification rule** — extra identities, typically for the special
  relations ``D`` and ``∅`` (consumed by the simplifier and the
  domain-/empty-elimination steps).

The six basic relational operators are handled natively by the corresponding
modules; the registry is consulted for everything else.  The extended
operators shipped with the library (semijoin, anti-semijoin, left outerjoin)
are registered through exactly this public interface — see
:mod:`repro.operators.extended`.

The registry holds what the algorithm knows about an operator.  Its class
holds its syntax and semantics (:class:`~repro.algebra.expressions.PrefixOperator`),
which the parser, printer, digest and evaluator read without a registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.algebra.expressions import Expression
from repro.exceptions import RegistryError
from repro.operators.monotonicity import Monotonicity

__all__ = ["OperatorRule", "OperatorRegistry", "default_registry", "rules_token"]


#: A monotonicity rule receives the expression and the per-child classifications
#: and returns the classification of the whole expression (or None to decline).
MonotonicityRule = Callable[[Expression, Tuple[Monotonicity, ...]], Optional[Monotonicity]]

#: Normalization rules receive the containment constraint (as a (left, right)
#: pair of expressions), the symbol being eliminated, and a rewrite context;
#: they return a list of replacement (left, right) pairs, or None if the rule
#: does not apply / the rewrite is impossible.
NormalizationRule = Callable[[Expression, Expression, str, object], Optional[List[Tuple[Expression, Expression]]]]

#: A simplification rule receives a node (whose children are already simplified)
#: and returns a replacement node or None to leave it unchanged.
SimplificationRule = Callable[[Expression], Optional[Expression]]


@dataclass
class OperatorRule:
    """The bundle of per-operator knowledge the registry stores."""

    operator_type: Type[Expression]
    monotonicity_rule: Optional[MonotonicityRule] = None
    left_normalization_rule: Optional[NormalizationRule] = None
    right_normalization_rule: Optional[NormalizationRule] = None
    simplification_rule: Optional[SimplificationRule] = None
    description: str = ""


class OperatorRegistry:
    """Mutable collection of :class:`OperatorRule` entries keyed by node type."""

    def __init__(self) -> None:
        self._rules: Dict[Type[Expression], OperatorRule] = {}
        #: Bumped on every (un)registration; :meth:`fingerprint` covers it, so
        #: extending a registry mid-run retires every checkpoint token derived
        #: from the old rule set.
        self.version = 0
        #: Names this registry's current rule set in process: the key of the
        #: "already simplified" and "known to fail" stamps that the
        #: simplifier and the failure memo leave on immutable expressions and
        #: constraints.  Replaced whenever ``version`` is bumped, so a stamp
        #: made under the old rules stops matching.
        self.rules_token = object()

    # -- registration -----------------------------------------------------------

    def register(self, rule: OperatorRule) -> None:
        """Register (or replace) the rule bundle for an operator type."""
        if not isinstance(rule, OperatorRule):
            raise RegistryError(f"expected an OperatorRule, got {rule!r}")
        if not (isinstance(rule.operator_type, type) and issubclass(rule.operator_type, Expression)):
            raise RegistryError(
                f"operator_type must be an Expression subclass, got {rule.operator_type!r}"
            )
        self._rules[rule.operator_type] = rule
        self.version += 1
        self.rules_token = object()

    def register_operator(
        self,
        operator_type: Type[Expression],
        monotonicity_rule: Optional[MonotonicityRule] = None,
        left_normalization_rule: Optional[NormalizationRule] = None,
        right_normalization_rule: Optional[NormalizationRule] = None,
        simplification_rule: Optional[SimplificationRule] = None,
        description: str = "",
    ) -> OperatorRule:
        """Convenience wrapper building and registering an :class:`OperatorRule`."""
        rule = OperatorRule(
            operator_type=operator_type,
            monotonicity_rule=monotonicity_rule,
            left_normalization_rule=left_normalization_rule,
            right_normalization_rule=right_normalization_rule,
            simplification_rule=simplification_rule,
            description=description,
        )
        self.register(rule)
        return rule

    def unregister(self, operator_type: Type[Expression]) -> None:
        """Remove the rule bundle for an operator type (no-op if absent)."""
        self._rules.pop(operator_type, None)
        self.version += 1
        self.rules_token = object()

    def copy(self) -> "OperatorRegistry":
        """Return an independent copy (so callers can extend without side effects)."""
        clone = OperatorRegistry()
        clone._rules = dict(self._rules)
        return clone

    # -- queries ------------------------------------------------------------------

    def registered_types(self) -> Tuple[Type[Expression], ...]:
        """The operator types with registered rules."""
        return tuple(self._rules)

    def rule_for(self, expression: Expression) -> Optional[OperatorRule]:
        """Return the rule bundle for this expression's type, or ``None``."""
        return self._rules.get(type(expression))

    def fingerprint(self) -> bytes:
        """Deterministic content fingerprint of the registry's rule set.

        Covers the registered operator types, which of the four rule slots
        each fills (by the rule functions' qualified names), and the mutation
        ``version``, so registering or removing a rule mid-run retires every
        fingerprint derived from the old rule set — exactly how the
        incremental-recomposition checkpoints are invalidated.  Two registries
        built the same way (e.g. fresh :func:`default_registry` copies)
        fingerprint equal, so checkpoint reuse survives config reconstruction.
        """
        from hashlib import blake2b

        h = blake2b(digest_size=16)
        h.update(b"v%d|" % self.version)
        entries = []
        for operator_type, rule in self._rules.items():
            slots = tuple(
                f"{fn.__module__}.{fn.__qualname__}" if fn is not None else None
                for fn in (
                    rule.monotonicity_rule,
                    rule.left_normalization_rule,
                    rule.right_normalization_rule,
                    rule.simplification_rule,
                )
            )
            entries.append(
                (f"{operator_type.__module__}.{operator_type.__qualname__}", slots)
            )
        for entry in sorted(entries):
            h.update(repr(entry).encode())
        return h.digest()

    def knows(self, expression: Expression) -> bool:
        """Return ``True`` if the expression's operator has any registered rule."""
        return type(expression) in self._rules

    # -- hooks consumed by the algorithm --------------------------------------------

    def combine_monotonicity(
        self, expression: Expression, child_values: Tuple[Monotonicity, ...]
    ) -> Optional[Monotonicity]:
        """Apply the registered monotonicity rule, if any."""
        rule = self.rule_for(expression)
        if rule is None or rule.monotonicity_rule is None:
            return None
        return rule.monotonicity_rule(expression, child_values)

    def left_normalize(
        self, left: Expression, right: Expression, symbol: str, context
    ) -> Optional[List[Tuple[Expression, Expression]]]:
        """Apply the registered left-normalization rule for the LHS operator, if any."""
        rule = self.rule_for(left)
        if rule is None or rule.left_normalization_rule is None:
            return None
        return rule.left_normalization_rule(left, right, symbol, context)

    def right_normalize(
        self, left: Expression, right: Expression, symbol: str, context
    ) -> Optional[List[Tuple[Expression, Expression]]]:
        """Apply the registered right-normalization rule for the RHS operator, if any."""
        rule = self.rule_for(right)
        if rule is None or rule.right_normalization_rule is None:
            return None
        return rule.right_normalization_rule(left, right, symbol, context)

    def simplify_node(self, expression: Expression) -> Optional[Expression]:
        """Apply the registered simplification rule, if any."""
        rule = self.rule_for(expression)
        if rule is None or rule.simplification_rule is None:
            return None
        return rule.simplification_rule(expression)


#: The rules token of ``registry=None``: the built-in rules alone.
BUILTIN_RULES_TOKEN = object()


def rules_token(registry: Optional[OperatorRegistry]) -> object:
    """The stamp key for ``registry``'s current rule set.

    See :attr:`OperatorRegistry.rules_token`; ``None`` (the built-in rules
    alone) maps to :data:`BUILTIN_RULES_TOKEN`.
    """
    return BUILTIN_RULES_TOKEN if registry is None else registry.rules_token


_DEFAULT_REGISTRY: Optional[OperatorRegistry] = None


def default_registry() -> OperatorRegistry:
    """Return a fresh copy of the default registry.

    The default registry contains the rules for the extended operators shipped
    with the library (semijoin, anti-semijoin and left outerjoin).  Each call
    returns an independent copy so callers may add or remove rules freely.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        from repro.operators.extended import register_extended_operators

        registry = OperatorRegistry()
        register_extended_operators(registry)
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY.copy()
