"""Generic traversal, inspection and rewriting utilities for expressions.

These helpers are the only way the rest of the library walks or rewrites
expression trees, so new operators added through the registry automatically
work with substitution, symbol collection and size metrics — the key to the
paper's extensibility story.

All helpers are iterative (explicit stacks, no Python recursion), so they are
safe on the very deep Union/Intersection chains that left- and
right-normalization produce.  The size and symbol queries are answered from
the one-pass cached summary of :mod:`repro.algebra.summary`, so repeated
probes — the blow-up guard, the "does this constraint mention S?" scans — cost
an attribute read instead of a tree walk.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, Set

from repro.algebra.expressions import (
    Expression,
    Relation,
    SkolemApplication,
    SkolemFunction,
)
from repro.algebra.summary import node_summary
from repro.exceptions import ArityError

__all__ = [
    "walk",
    "transform_bottom_up",
    "substitute_relation",
    "substitute_relations",
    "contains_relation",
    "relation_names",
    "relation_occurrences",
    "skolem_functions",
    "contains_skolem",
    "contains_domain",
    "contains_empty",
    "operator_count",
    "node_count",
    "expression_depth",
]


def walk(expression: Expression) -> Iterator[Expression]:
    """Yield every node of the expression tree in pre-order."""
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def transform_bottom_up(
    expression: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """Rebuild the tree bottom-up, applying ``fn`` to every (rebuilt) node.

    ``fn`` receives a node whose children have already been transformed and
    returns its replacement (possibly the same node).  ``fn`` must be a pure
    function of its argument: the rewrite is DAG-aware, so a subtree that is
    shared (the same object reached through several parents) is transformed
    once and the result reused.  Change detection uses object identity — when
    ``fn`` and the children rebuilds return the very same objects, the original
    node is kept, which makes no-op rewrites allocation-free.
    """
    # Keyed by id(): valid while the input tree is alive (it is, for the whole
    # call), and avoids hashing nodes — important both for speed and because a
    # fresh deep tree has no cached hash to lean on.
    memo: Dict[int, Expression] = {}
    stack = [(expression, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in memo:
            continue
        children = node.children
        if not ready and children:
            stack.append((node, True))
            for child in children:
                if id(child) not in memo:
                    stack.append((child, False))
            continue
        if children:
            new_children = tuple(memo[id(child)] for child in children)
            if any(new is not old for new, old in zip(new_children, children)):
                node = node.with_children(new_children)
        memo[key] = fn(node)
    return memo[id(expression)]


def _substitute(
    expression: Expression,
    matches: Callable[[Relation], "Expression | None"],
    targets: FrozenSet[str],
) -> Expression:
    """Shared iterative engine of the relation-substitution helpers.

    ``matches`` maps a Relation leaf to its replacement (or ``None``);
    ``targets`` is the set of symbol names being replaced.  The walk descends
    *only* into children whose cached summary mentions a target symbol, so the
    cost is proportional to the paths leading to actual occurrences, not to
    the whole tree.  The per-call memo is keyed by ``id()``, as in
    :func:`transform_bottom_up`: every key is a node of the input tree, which
    stays alive for the whole call, and a subtree shared by several parents is
    rewritten once.  Summaries are maintained for rebuilt nodes, so the
    substituted tree comes out pre-summarized.

    Precondition: ``expression``'s (and the replacements') summaries are warm
    and ``expression`` mentions at least one target.
    """
    target = next(iter(targets)) if len(targets) == 1 else None
    memo: Dict[int, Expression] = {}
    stack = [(expression, False)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, ready = pop()
        if ready:
            # At least one child mentioned a target, so the rebuild always
            # changes the node; pruned children fall back to themselves.
            rebuilt = node.with_children(
                tuple([memo.get(id(child), child) for child in node.children])
            )
            node_summary(rebuilt)
            memo[id(node)] = rebuilt
            continue
        if id(node) in memo:
            continue
        if isinstance(node, Relation):
            replacement = matches(node)
            if replacement is None:
                memo[id(node)] = node
            else:
                if replacement.arity != node.arity:
                    raise ArityError(
                        f"cannot substitute relation {node.name!r} of arity {node.arity} "
                        f"with an expression of arity {replacement.arity}"
                    )
                memo[id(node)] = replacement
            continue
        push((node, True))
        if target is not None:
            for child in node.children:
                if target in child._summary.relation_names and id(child) not in memo:
                    push((child, False))
        else:
            for child in node.children:
                if targets & child._summary.relation_names and id(child) not in memo:
                    push((child, False))
    return memo[id(expression)]


def substitute_relation(
    expression: Expression, name: str, replacement: Expression
) -> Expression:
    """Replace every occurrence of the relation symbol ``name`` by ``replacement``.

    The replacement must have the same arity as the symbol it replaces;
    otherwise the resulting expression would be ill-formed and an
    :class:`ArityError` is raised.
    """
    if isinstance(expression, Relation):
        # The dominant case on rename-heavy workloads: a bare-symbol side.
        if expression.name != name:
            return expression
        if replacement.arity != expression.arity:
            raise ArityError(
                f"cannot substitute relation {name!r} of arity {expression.arity} "
                f"with an expression of arity {replacement.arity}"
            )
        return replacement
    if name not in node_summary(expression).relation_names:
        return expression
    node_summary(replacement)  # rebuilt nodes combine child summaries shallowly
    return _substitute(
        expression,
        lambda node: replacement if node.name == name else None,
        frozenset((name,)),
    )


def substitute_relations(
    expression: Expression, replacements: Dict[str, Expression]
) -> Expression:
    """Replace several relation symbols at once (non-recursively)."""
    targets = frozenset(replacements)
    if not targets & node_summary(expression).relation_names:
        return expression
    for replacement in replacements.values():
        node_summary(replacement)
    return _substitute(expression, lambda node: replacements.get(node.name), targets)


def contains_relation(expression: Expression, name: str) -> bool:
    """Return ``True`` iff the expression references the relation symbol ``name``."""
    return name in node_summary(expression).relation_names


def relation_names(expression: Expression) -> FrozenSet[str]:
    """Return the set of base relation symbols referenced by the expression."""
    return node_summary(expression).relation_names


def relation_occurrences(expression: Expression, name: str) -> int:
    """Return the number of occurrences of relation symbol ``name``."""
    return sum(
        1 for node in walk(expression) if isinstance(node, Relation) and node.name == name
    )


def skolem_functions(expression: Expression) -> FrozenSet[SkolemFunction]:
    """Return the set of Skolem functions applied anywhere in the expression."""
    if not node_summary(expression).contains_skolem:
        return frozenset()
    functions: Set[SkolemFunction] = set()
    for node in walk(expression):
        if isinstance(node, SkolemApplication):
            functions.add(node.function)
    return frozenset(functions)


def contains_skolem(expression: Expression) -> bool:
    """Return ``True`` iff the expression contains any Skolem application."""
    return node_summary(expression).contains_skolem


def contains_domain(expression: Expression) -> bool:
    """Return ``True`` iff the expression contains the active-domain relation ``D``."""
    return node_summary(expression).contains_domain


def contains_empty(expression: Expression) -> bool:
    """Return ``True`` iff the expression contains the empty relation ``∅``."""
    return node_summary(expression).contains_empty


def operator_count(expression: Expression) -> int:
    """Return the number of operator (non-leaf) nodes in the expression.

    This is the size metric the paper uses ("the total number of operators
    across all constraints") for the blow-up abort criterion.  The count comes
    from the one-pass cached summary, since the blow-up guard re-measures the
    same sub-trees after every candidate rewrite.
    """
    return node_summary(expression).operator_count


def node_count(expression: Expression) -> int:
    """Return the total number of AST nodes, leaves included."""
    return node_summary(expression).node_count


def expression_depth(expression: Expression) -> int:
    """Return the height of the expression tree (a single leaf has depth 1)."""
    return node_summary(expression).depth
