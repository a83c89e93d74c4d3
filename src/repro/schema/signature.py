"""Signatures (schemas): relation symbols, arities and optional keys.

The paper uses "signature" and "schema" synonymously: a function from relation
symbols to positive integers (their arities).  For the experiments we also
track an optional *key* per relation — a set of column indices — because the
'keys' configuration of the study encodes key constraints via the active
domain (paper Example 2) and the vertical-partitioning primitive requires its
input to be keyed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.algebra.expressions import Relation
from repro.exceptions import SchemaError

__all__ = ["RelationSchema", "Signature"]


@dataclass(frozen=True)
class RelationSchema:
    """A single relation symbol: name, arity and optional key columns."""

    name: str
    arity: int
    key: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if self.arity <= 0:
            raise SchemaError(f"relation {self.name!r} must have positive arity, got {self.arity}")
        if self.key is not None:
            key = tuple(sorted(set(int(i) for i in self.key)))
            object.__setattr__(self, "key", key)
            if not key:
                raise SchemaError(f"relation {self.name!r} has an empty key; use key=None instead")
            for index in key:
                if index < 0 or index >= self.arity:
                    raise SchemaError(
                        f"key column #{index} out of range for relation {self.name!r} "
                        f"of arity {self.arity}"
                    )

    @property
    def has_key(self) -> bool:
        """Return ``True`` if the relation declares a key."""
        return self.key is not None

    def to_expression(self) -> Relation:
        """Return the algebra leaf referencing this relation."""
        return Relation(self.name, self.arity)


class Signature:
    """An immutable collection of :class:`RelationSchema` objects.

    Signatures behave like read-only mappings from relation name to
    :class:`RelationSchema` and support the set-like operations the
    composition algorithm needs (union, difference, disjointness checks).
    """

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._fingerprint: Optional[bytes] = None
        self._relations: Dict[str, RelationSchema] = {}
        for relation_schema in relations:
            if not isinstance(relation_schema, RelationSchema):
                raise SchemaError(f"expected a RelationSchema, got {relation_schema!r}")
            if relation_schema.name in self._relations:
                raise SchemaError(f"duplicate relation {relation_schema.name!r} in signature")
            self._relations[relation_schema.name] = relation_schema

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_arities(cls, arities: Mapping[str, int]) -> "Signature":
        """Build a signature from a ``{name: arity}`` mapping (no keys)."""
        return cls(RelationSchema(name, arity) for name, arity in arities.items())

    def adding(self, *relations: RelationSchema) -> "Signature":
        """Return a new signature with the given relations added."""
        return Signature(list(self._relations.values()) + list(relations))

    def removing(self, *names: str) -> "Signature":
        """Return a new signature without the given relation names."""
        missing = [name for name in names if name not in self._relations]
        if missing:
            raise SchemaError(f"cannot remove unknown relations: {missing}")
        removed = set(names)
        return Signature(r for name, r in self._relations.items() if name not in removed)

    def union(self, other: "Signature") -> "Signature":
        """Return the union of two signatures; shared names must agree exactly."""
        merged: Dict[str, RelationSchema] = dict(self._relations)
        for name, relation_schema in other._relations.items():
            if name in merged and merged[name] != relation_schema:
                raise SchemaError(
                    f"signatures disagree on relation {name!r}: "
                    f"{merged[name]} vs {relation_schema}"
                )
            merged[name] = relation_schema
        return Signature(merged.values())

    def restricted_to(self, names: Iterable[str]) -> "Signature":
        """Return the sub-signature containing only the given relation names."""
        names = set(names)
        return Signature(r for name, r in self._relations.items() if name in names)

    # -- mapping / set protocol ----------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        return hash(frozenset(self._relations.values()))

    def __repr__(self) -> str:
        names = ", ".join(f"{r.name}/{r.arity}" for r in self.relations())
        return f"Signature({names})"

    # -- queries --------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """Relation names, in insertion order."""
        return tuple(self._relations)

    def relations(self) -> Tuple[RelationSchema, ...]:
        """All relation schemas, in insertion order."""
        return tuple(self._relations.values())

    def arity_of(self, name: str) -> int:
        """Arity of the named relation."""
        return self[name].arity

    def key_of(self, name: str) -> Optional[Tuple[int, ...]]:
        """Key columns of the named relation, or ``None``."""
        return self[name].key

    def fingerprint(self) -> bytes:
        """Deterministic, order-sensitive content fingerprint of the signature.

        Covers the relation names, arities and keys *in insertion order* —
        the order the composition algorithm attempts σ2 symbols in, so two
        orderings of the same relations are distinct inputs.  Stable across
        processes (no salted hashing), which the incremental-recomposition
        checkpoints rely on.  Cached on the (immutable) signature: a chain
        fingerprints each of its signatures as one mapping's output and the
        next one's input.
        """
        # Signatures unpickled from an older checkpoint lack the attribute.
        value = getattr(self, "_fingerprint", None)
        if value is None:
            from hashlib import blake2b

            from repro.algebra.digest import DIGEST_SIZE

            h = blake2b(digest_size=DIGEST_SIZE)
            for relation_schema in self._relations.values():
                h.update(
                    repr(
                        (relation_schema.name, relation_schema.arity, relation_schema.key)
                    ).encode()
                )
            value = self._fingerprint = h.digest()
        return value

    def is_disjoint_from(self, other: "Signature") -> bool:
        """Return ``True`` if no relation name is shared with ``other``."""
        return not (set(self._relations) & set(other._relations))

    def shared_names(self, other: "Signature") -> Tuple[str, ...]:
        """Relation names present in both signatures."""
        return tuple(name for name in self._relations if name in other)

    def relation(self, name: str) -> Relation:
        """Return the algebra leaf for the named relation."""
        return self[name].to_expression()

    def keyed_names(self) -> Tuple[str, ...]:
        """Names of relations that declare a key."""
        return tuple(name for name, r in self._relations.items() if r.has_key)
