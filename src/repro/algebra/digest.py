"""Deterministic structural digests of expression trees.

The cached structural *hashes* (:mod:`repro.algebra.summary` warms them,
constraint-set dedup keys on them) are the right tool inside one process, but
CPython salts string hashing per process, so they cannot name an expression
across a pickle boundary.  Incremental recomposition needs exactly that: a
checkpoint persisted by one process must still be recognized by the next.

:func:`expression_digest` therefore computes a *deterministic* content digest
(BLAKE2b over the node class, its non-child payload and the child digests) in
the same iterative bottom-up style as :func:`repro.algebra.summary.node_summary`,
and caches it on the (immutable) node.  Like the summaries — and unlike the
salted ``_hash_value`` — the digest is structural, so it survives pickling;
shared subtrees (the DAGs the rewrite engine builds) are digested once.
"""

from __future__ import annotations

from hashlib import blake2b

from repro.algebra.expressions import _NO_GETTER, _PAYLOAD_GETTERS, Expression

__all__ = ["DIGEST_SIZE", "expression_digest"]

#: Digest width in bytes; 16 (128 bits) makes accidental collisions between
#: constraint sides practically impossible while keeping tokens small.
DIGEST_SIZE = 16


def _node_digest(node: Expression, children: tuple) -> bytes:
    cls = node.__class__
    getter = _PAYLOAD_GETTERS.get(cls, _NO_GETTER)
    if getter is _NO_GETTER:
        # A user-defined operator type outside the structural-equality
        # machinery: fall back to its repr, mirroring the __eq__ fallback.
        payload = repr(node).encode()
    elif getter is not None:
        payload = repr(getter(node)).encode()
    else:
        payload = b""
    parts = [cls.__qualname__.encode(), payload, b"|%d|" % len(children)]
    parts.extend(child._digest for child in children)
    # One call over the concatenation: BLAKE2b is a streaming hash, so this is
    # the same digest as updating with each part in turn.
    return blake2b(b"".join(parts), digest_size=DIGEST_SIZE).digest()


def expression_digest(expression: Expression) -> bytes:
    """Return the cached deterministic digest of ``expression``, computing it once.

    A node whose children are all digested already is digested directly.
    Otherwise the walk is iterative (explicit stack), so the deep operator
    chains normalization produces are safe, and a subtree reached twice is
    digested once.
    """
    value = getattr(expression, "_digest", None)
    if value is not None:
        return value
    children = expression.children
    for child in children:
        if getattr(child, "_digest", None) is None:
            break
    else:
        value = _node_digest(expression, children)
        object.__setattr__(expression, "_digest", value)
        return value

    setattr_ = object.__setattr__
    stack = [(expression, False)]
    while stack:
        node, ready = stack.pop()
        if hasattr(node, "_digest"):
            continue
        children = node.children
        if not ready and children:
            stack.append((node, True))
            for child in children:
                stack.append((child, False))
            continue
        setattr_(node, "_digest", _node_digest(node, children))
    return expression._digest
