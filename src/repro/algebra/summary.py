"""One-pass cached structural summaries of expression nodes.

The composition algorithm keeps asking the same questions about the same
(immutable) subtrees: how many operators does this expression contain (the
blow-up guard), which relation symbols does it mention (substitution pruning
and the "find a constraint mentioning S" scans), does it contain a Skolem
application (the deskolemization gate)?  Answering each question with its own
tree walk made the guards themselves a hot path.

:func:`node_summary` computes every one of those facts in a single iterative
bottom-up pass and stores the result directly on the node, so every later
query — on the node or on any of its subtrees — is an attribute read.  The
pass also stores the node's identity: its digest (:mod:`repro.algebra.digest`),
computed from the children's cached digests, and the hash derived from it.
So hashing and equality stay shallow (no recursion) even for the very deep
Union/Intersection chains that left- and right-normalization produce.

Summaries, digests and hashes are structural (no per-process salting), so
they survive pickling.
"""

from __future__ import annotations

import struct
from typing import FrozenSet, NamedTuple

from repro.algebra import digest
from repro.algebra.expressions import (
    Domain,
    Empty,
    Expression,
    Relation,
    SkolemApplication,
)

__all__ = ["NodeSummary", "node_summary"]

_EMPTY_NAMES: FrozenSet[str] = frozenset()


class NodeSummary(NamedTuple):
    """Everything the rewrite engine wants to know about a subtree, at once."""

    operator_count: int
    node_count: int
    depth: int
    relation_names: FrozenSet[str]
    contains_skolem: bool
    contains_domain: bool
    contains_empty: bool


#: Builds a NodeSummary from a tuple without a Python-level ``__new__`` call
#: (every node pays for one summary).
_new_summary = tuple.__new__


def _leaf_summary(node: Expression) -> NodeSummary:
    if isinstance(node, Relation):
        return _new_summary(
            NodeSummary, (0, 1, 1, frozenset((node.name,)), False, False, False)
        )
    return _new_summary(
        NodeSummary,
        (0, 1, 1, _EMPTY_NAMES, False, isinstance(node, Domain), isinstance(node, Empty)),
    )


def _combine(node: Expression, children: tuple) -> NodeSummary:
    """Summarize ``node`` from its children's summaries.

    Every built-in operator has one or two children, and a rebuilt node pays
    for this call, so those two shapes are spelled out; other arities take
    the general loop.
    """
    skolem = isinstance(node, SkolemApplication)
    if len(children) == 1:
        ops, nodes, depth, names, child_skolem, domain, empty = children[0]._summary
        return _new_summary(
            NodeSummary,
            (ops + 1, nodes + 1, depth + 1, names, skolem or child_skolem, domain, empty),
        )
    if len(children) == 2:
        l_ops, l_nodes, l_depth, l_names, l_skolem, l_domain, l_empty = children[0]._summary
        r_ops, r_nodes, r_depth, r_names, r_skolem, r_domain, r_empty = children[1]._summary
        return _new_summary(
            NodeSummary,
            (
                l_ops + r_ops + 1,
                l_nodes + r_nodes + 1,
                (l_depth if l_depth > r_depth else r_depth) + 1,
                l_names | r_names,
                skolem or l_skolem or r_skolem,
                l_domain or r_domain,
                l_empty or r_empty,
            ),
        )
    summaries = [child._summary for child in children]
    return NodeSummary(
        operator_count=1 + sum(s.operator_count for s in summaries),
        node_count=1 + sum(s.node_count for s in summaries),
        depth=1 + max(s.depth for s in summaries),
        relation_names=frozenset().union(*(s.relation_names for s in summaries)),
        contains_skolem=skolem or any(s.contains_skolem for s in summaries),
        contains_domain=any(s.contains_domain for s in summaries),
        contains_empty=any(s.contains_empty for s in summaries),
    )


#: Reads the digest's first eight bytes as a signed little-endian integer.
_hash_of_digest = struct.Struct("<q").unpack_from


def _store(node: Expression, summary: NodeSummary, children: tuple) -> None:
    """Cache ``summary``, the digest and its hash on ``node`` (children done).

    Every node built pays for this call, so it writes the (frozen) node's
    ``__dict__`` directly instead of calling ``object.__setattr__`` thrice.
    """
    state = node.__dict__
    state["_summary"] = summary
    value = state["_digest"] = digest._node_digest(node, children)
    state["_hash_value"] = _hash_of_digest(value)[0]


def node_summary(expression: Expression) -> NodeSummary:
    """Return the cached :class:`NodeSummary` of ``expression``, computing it once.

    A node whose children are all summarized already (every node a rewrite
    rebuilds) is summarized directly.  Otherwise the computation is iterative
    (explicit stack) and shares work across DAG-shaped trees (a subtree
    reached twice is summarized once).  Every node summarized also gets its
    digest and hash, so later hashing and equality never recurse through the
    tree.
    """
    summary = getattr(expression, "_summary", None)
    if summary is not None:
        return summary
    children = expression.children
    for child in children:
        if getattr(child, "_summary", None) is None:
            break
    else:
        summary = _combine(expression, children) if children else _leaf_summary(expression)
        _store(expression, summary, children)
        return summary

    stack = [(expression, False)]
    while stack:
        node, ready = stack.pop()
        if hasattr(node, "_summary"):
            continue
        if not ready:
            children = node.children
            if not children:
                _store(node, _leaf_summary(node), children)
                continue
            stack.append((node, True))
            for child in children:
                stack.append((child, False))
        else:
            # The children's digests are cached by now, so this stays shallow.
            children = node.children
            _store(node, _combine(node, children), children)
    return expression._summary
