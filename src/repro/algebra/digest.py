"""Deterministic content digests: the one identity of an expression node.

A node's digest is a BLAKE2b hash over its class name, its non-child payload
and its children's digests.  The summary pass
(:func:`repro.algebra.summary.node_summary`) computes it bottom-up through
:func:`_node_digest` and stores it on the (immutable) node, with the node's
hash: the digest's first eight bytes.  Built-in nodes are equal exactly when
their classes and digests are, so hashing, equality, checkpoint tokens and
the service's request key name an expression one way.  Nothing is salted, so
a digest (and a hash) is the same in every process and survives pickling.

A built-in class's payload bytes are the ``repr`` of its payload fields (one
field alone, several as a tuple), written by the per-class table
:data:`_PAYLOADS` without the dataclass ``__repr__`` (a prefix operator's
by its declared payload kind).  ``tests/engine/test_golden_digests.py``
pins them.  A user-defined operator type contributes ``repr(node)`` instead.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.algebra.conditions import And, Comparison, FalseCondition, Not, Or, TrueCondition
from repro.algebra.expressions import (
    PREFIX_OPERATOR_TYPES,
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Expression,
    Intersection,
    Relation,
    SkolemApplication,
    Union,
)
from repro.algebra.terms import Attribute, Constant

__all__ = ["DIGEST_SIZE", "expression_digest"]

#: Digest width in bytes; 16 (128 bits) makes accidental collisions between
#: constraint sides practically impossible while keeping tokens small.
DIGEST_SIZE = 16


def _term_text(term) -> str:
    cls = term.__class__
    if cls is Attribute:
        return f"Attribute(index={term.index!r})"
    if cls is Constant:
        return f"Constant(value={term.value!r})"
    return repr(term)


def _condition_text(c) -> str:
    """The dataclass ``repr`` of a condition, spelled out for the built-in ones."""
    cls = c.__class__
    if cls is Comparison:
        return f"Comparison(left={_term_text(c.left)}, op={c.op!r}, right={_term_text(c.right)})"
    if cls is And or cls is Or:
        inner = ", ".join(map(_condition_text, c.operands))
        return f"{cls.__qualname__}(operands=({inner}))"
    if cls is Not:
        return f"Not(operand={_condition_text(c.operand)})"
    if cls is TrueCondition or cls is FalseCondition:
        return f"{cls.__qualname__}()"
    return repr(c)


#: Payload bytes of a prefix operator, by its payload kind.
_PREFIX_PAYLOADS = {
    None: lambda n: b"",
    "condition": lambda n: _condition_text(n.condition).encode(),
    "indices": lambda n: repr(n.indices).encode(),
}

#: Per-class payload bytes of the built-in node types.
_PAYLOADS = {
    Relation: lambda n: f"({n.name!r}, {n.relation_arity!r})".encode(),
    Domain: lambda n: repr(n.domain_arity).encode(),
    Empty: lambda n: repr(n.empty_arity).encode(),
    ConstantRelation: lambda n: repr((n.tuples, n.constant_arity)).encode(),
    SkolemApplication: lambda n: repr(n.function).encode(),
    **dict.fromkeys((Union, Intersection, Difference, CrossProduct), lambda n: b""),
    **{cls: _PREFIX_PAYLOADS[cls.payload_kind] for cls in PREFIX_OPERATOR_TYPES},
}

#: Each built-in class's name, encoded once.
_NAMES = {cls: cls.__qualname__.encode() for cls in _PAYLOADS}


def _node_digest(node: Expression, children: tuple) -> bytes:
    """The digest of ``node``, whose children carry their digests already."""
    cls = node.__class__
    payload_of = _PAYLOADS.get(cls)
    if payload_of is None:
        # A user-defined operator type: its class name and its repr.
        data = cls.__qualname__.encode() + repr(node).encode()
    else:
        data = _NAMES[cls] + payload_of(node)
    data += b"|%d|" % len(children)
    for child in children:
        data += child._digest
    return blake2b(data, digest_size=DIGEST_SIZE).digest()


def expression_digest(expression: Expression) -> bytes:
    """Return the digest of ``expression``, summarizing it first if needed."""
    try:
        return expression._digest
    except AttributeError:
        from repro.algebra.summary import node_summary

        node_summary(expression)
        return expression._digest
