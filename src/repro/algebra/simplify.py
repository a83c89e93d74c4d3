"""Algebraic simplification of expressions and constraints.

The composition steps introduce the special relations ``D`` (active domain)
and ``∅`` (empty) and the paper devotes two sub-steps (Sections 3.4.3 and
3.5.4) to eliminating them "to the extent that our knowledge of the operators
allows".  This module implements those identities, a few additional safe
simplifications, and the constraint-level clean-up (dropping constraints that
every instance satisfies).

Identities for ``D`` (Section 3.4.3)::

    E ∪ D^r = D^r        E ∩ D^r = E
    E − D^r = ∅          π_I(D^r) = D^{|I|}

Identities for ``∅`` (Section 3.5.4)::

    E ∪ ∅ = E            E ∩ ∅ = ∅           E − ∅ = E
    ∅ − E = ∅            σ_c(∅) = ∅          π_I(∅) = ∅

User-defined operators may contribute additional rules through the operator
registry; the functions here accept an optional registry for that purpose.
"""

from __future__ import annotations

from operator import is_not
from typing import Dict, List, Optional

from repro.algebra.conditions import FalseCondition, TrueCondition, conjunction
from repro.algebra.expressions import (
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
    Intersection,
    Projection,
    Selection,
    Union,
)
from repro.algebra.summary import node_summary
from repro.constraints.constraint import (
    Constraint,
    ContainmentConstraint,
    EqualityConstraint,
)
from repro.constraints.constraint_set import ConstraintSet
from repro.operators.registry import rules_token

__all__ = [
    "simplify_expression",
    "simplify_constraint",
    "simplify_constraint_set",
    "is_trivially_satisfied",
]


def _is_full_domain(expression: Expression) -> bool:
    """Return True if the expression is syntactically the full relation D^r."""
    return isinstance(expression, Domain)


def _is_empty(expression: Expression) -> bool:
    """Return True if the expression is syntactically the empty relation."""
    return isinstance(expression, Empty)


def _simplify_union(node: Union) -> Optional[Expression]:
    left, right = node.left, node.right
    if _is_full_domain(left) or _is_full_domain(right):
        return Domain(node.arity)
    if _is_empty(left):
        return right
    if _is_empty(right):
        return left
    if left == right:
        return left
    return None


def _simplify_intersection(node: Intersection) -> Optional[Expression]:
    left, right = node.left, node.right
    if _is_full_domain(left):
        return right
    if _is_full_domain(right):
        return left
    if _is_empty(left) or _is_empty(right):
        return Empty(node.arity)
    if left == right:
        return left
    return None


def _simplify_difference(node: Difference) -> Optional[Expression]:
    left, right = node.left, node.right
    if _is_full_domain(right):
        return Empty(node.arity)
    if _is_empty(right):
        return left
    if _is_empty(left) or left == right:
        return Empty(node.arity)
    return None


def _simplify_product(node: CrossProduct) -> Optional[Expression]:
    left, right = node.left, node.right
    if _is_empty(left) or _is_empty(right):
        return Empty(node.arity)
    if _is_full_domain(left) and _is_full_domain(right):
        return Domain(node.arity)
    return None


def _simplify_selection(node: Selection) -> Optional[Expression]:
    child, condition = node.child, node.condition
    if _is_empty(child):
        return Empty(node.arity)
    if isinstance(condition, TrueCondition):
        return child
    if isinstance(condition, FalseCondition):
        return Empty(node.arity)
    if isinstance(child, Selection):
        return Selection(child.child, conjunction([child.condition, condition]))
    return None


def _simplify_projection(node: Projection) -> Optional[Expression]:
    child, indices = node.child, node.indices
    if _is_empty(child):
        return Empty(node.arity)
    if _is_full_domain(child) and len(set(indices)) == len(indices):
        # π_I(D^r) = D^{|I|} requires distinct indices: with duplicates the
        # result is a diagonal, a strict subset of D^{|I|}.
        return Domain(node.arity)
    if indices == tuple(range(child.arity)):
        return child
    if isinstance(child, Projection):
        return Projection(child.child, tuple(child.indices[i] for i in indices))
    return None


#: The built-in local rules, by exact node class (the operator registry looks
#: up user rules the same way).
_LOCAL_RULES = {
    Union: _simplify_union,
    Intersection: _simplify_intersection,
    Difference: _simplify_difference,
    CrossProduct: _simplify_product,
    Selection: _simplify_selection,
    Projection: _simplify_projection,
}


def _simplify_node(node: Expression, registry=None) -> Expression:
    """Apply one round of local rewrite rules to a node whose children are simplified."""
    rule = _LOCAL_RULES.get(node.__class__)
    if rule is not None:
        rewritten = rule(node)
        if rewritten is not None:
            return rewritten
    if registry is not None:
        rewritten = registry.simplify_node(node)
        if rewritten is not None:
            return rewritten
    return node


#: Work-stack frame kinds of the iterative DAG rewriter.  A COMBINE frame
#: carries the node's children, an ALIAS frame the nodes to alias.
_VISIT, _COMBINE, _ALIAS = 0, 1, 2


def _simplify_dag(root: Expression, registry) -> Expression:
    """Simplify ``root`` in one bottom-up pass over the shared expression DAG.

    The per-call memo maps every subtree object already processed to its fully
    simplified form, so a subtree shared by several parents is simplified
    exactly once per pass — not once per occurrence per fixpoint pass.  The
    traversal is iterative (explicit stack), so arbitrarily deep
    Union/Intersection chains are safe.

    At each node the children are simplified first, then the local rules are
    applied; when a rule fires, its (possibly brand-new) result is routed back
    through the same pipeline until it is stable, which reproduces the old
    whole-tree fixpoint exactly — the built-in rules only ever shrink the tree,
    so the loop terminates.  Change detection is ``is``-identity, so "nothing
    changed" never requires a deep comparison.

    The memo is keyed by ``id()``, as in
    :func:`~repro.algebra.traversal.transform_bottom_up`, which keeps probes
    free of hashing.  An id names an object only while it is alive, so every
    node the call builds and keys is kept in ``built`` until the call returns.
    """
    node_summary(root)  # warm summaries + hashes so rebuilt nodes combine shallowly
    memo: Dict[int, Expression] = {}
    built: List[Expression] = []
    stack = [(_VISIT, root, None)]
    while stack:
        kind, node, payload = stack.pop()
        if kind == _ALIAS:
            # ``node`` (a rewritten form) is simplified by now; alias its
            # sources onto the final result.
            result = memo[id(node)]
            for source in payload:
                memo[id(source)] = result
            continue
        if id(node) in memo:
            continue
        if kind == _VISIT:
            children = node.children
            if children:
                stack.append((_COMBINE, node, children))
                for child in children:
                    if id(child) not in memo:
                        stack.append((_VISIT, child, None))
                continue
        else:
            children = payload
        # Combine: children (if any) are simplified; rebuild and rewrite.
        candidate = node
        if children:
            new_children = tuple([memo[id(child)] for child in children])
            if any(map(is_not, new_children, children)):
                candidate = node.with_children(new_children)
                node_summary(candidate)
                built.append(candidate)
        rewritten = _simplify_node(candidate, registry)
        if rewritten is candidate or rewritten == candidate:
            memo[id(node)] = candidate
            memo[id(candidate)] = candidate
            continue
        node_summary(rewritten)
        done = memo.get(id(rewritten))
        if done is not None:
            memo[id(node)] = done
            memo[id(candidate)] = done
            continue
        built.append(rewritten)
        sources = (node, candidate) if candidate is not node else (node,)
        stack.append((_ALIAS, rewritten, sources))
        stack.append((_VISIT, rewritten, None))
    return memo[id(root)]


def simplify_expression(expression: Expression, registry=None) -> Expression:
    """Simplify an expression by applying the local rewrite rules to a fixpoint.

    The rewriter is a single bottom-up pass over the expression DAG with
    per-subtree memoization.  Its output is stamped with the registry's
    rules token (:func:`~repro.operators.registry.rules_token`), and an input
    that carries the current token is returned as-is: COMPOSE re-simplifies
    the same immutable objects after every elimination round and chain hop,
    so each repeat costs one attribute read.  Registering or removing a rule
    replaces the token, which retires every stamp made under the old rules.
    """
    token = rules_token(registry)
    if getattr(expression, "_simplified_for", None) is token:
        return expression
    result = _simplify_dag(expression, registry)
    object.__setattr__(result, "_simplified_for", token)
    return result


def is_trivially_satisfied(constraint: Constraint) -> bool:
    """Return ``True`` for constraints every instance satisfies.

    Recognized shapes: ``E ⊆ E``, ``E = E``, ``∅ ⊆ E``, ``E ⊆ D^r`` and the
    equality variants that reduce to them.
    """
    if constraint.is_trivial():
        return True
    if isinstance(constraint, ContainmentConstraint):
        return _is_empty(constraint.left) or _is_full_domain(constraint.right)
    if isinstance(constraint, EqualityConstraint):
        return (_is_empty(constraint.left) and _is_empty(constraint.right)) or (
            _is_full_domain(constraint.left) and _is_full_domain(constraint.right)
        )
    return False


def simplify_constraint(constraint: Constraint, registry=None) -> Constraint:
    """Simplify both sides of a constraint.

    Stamped like :func:`simplify_expression`: whole constraints recur
    verbatim across elimination rounds and chain hops, and the stamp turns
    each repeat into one attribute read.
    """
    token = rules_token(registry)
    if getattr(constraint, "_simplified_for", None) is token:
        return constraint
    result = _simplify_constraint(constraint, registry)
    object.__setattr__(result, "_simplified_for", token)
    return result


def _simplify_constraint(constraint: Constraint, registry=None) -> Constraint:
    left = simplify_expression(constraint.left, registry)
    right = simplify_expression(constraint.right, registry)
    if left is constraint.left and right is constraint.right:
        return constraint
    if isinstance(constraint, ContainmentConstraint):
        return ContainmentConstraint(left, right)
    return EqualityConstraint(left, right)


def simplify_constraint_set(
    constraints: ConstraintSet, registry=None, drop_trivial: bool = True
) -> ConstraintSet:
    """Simplify every constraint and optionally drop the trivially-satisfied ones.

    Constraint sets are immutable, so a set that has already been through this
    function for the same registry (and the same ``drop_trivial`` policy) is
    returned as-is — COMPOSE's final pass then skips the re-walk whenever the
    last elimination step already simplified its output.
    """
    # The marker holds the registry's rules token, so registering a new
    # simplification rule mid-run invalidates the "already simplified" skip.
    marker = (rules_token(registry), drop_trivial)
    if getattr(constraints, "_simplified_marker", None) == marker:
        return constraints
    simplified = constraints.map(lambda c: simplify_constraint(c, registry))
    if drop_trivial:
        simplified = simplified.filter(lambda c: not is_trivially_satisfied(c))
    simplified._simplified_marker = marker
    return simplified
