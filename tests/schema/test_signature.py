"""Tests for signatures and relation schemas."""

import pickle

import pytest

from repro.algebra.expressions import Relation
from repro.exceptions import SchemaError
from repro.schema.signature import RelationSchema, Signature


class TestRelationSchema:
    def test_basic(self):
        schema = RelationSchema("R", 3)
        assert schema.arity == 3
        assert schema.key is None
        assert not schema.has_key

    def test_key_normalized(self):
        schema = RelationSchema("R", 3, (2, 0))
        assert schema.key == (0, 2)
        assert schema.has_key

    def test_key_out_of_range(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, (2,))

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, ())

    def test_zero_arity_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 0)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", 2)

    def test_to_expression(self):
        assert RelationSchema("R", 2).to_expression() == Relation("R", 2)


class TestSignature:
    def test_from_arities(self):
        signature = Signature.from_arities({"R": 2, "S": 3})
        assert len(signature) == 2
        assert signature.arity_of("S") == 3

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            Signature([RelationSchema("R", 2), RelationSchema("R", 2)])

    def test_contains_and_getitem(self):
        signature = Signature.from_arities({"R": 2})
        assert "R" in signature
        assert signature["R"].arity == 2
        with pytest.raises(SchemaError):
            signature["missing"]

    def test_iteration_order_is_insertion_order(self):
        signature = Signature.from_arities({"B": 1, "A": 2})
        assert signature.names() == ("B", "A")

    def test_adding_and_removing(self):
        signature = Signature.from_arities({"R": 2})
        bigger = signature.adding(RelationSchema("S", 1))
        assert "S" in bigger and "S" not in signature
        smaller = bigger.removing("R")
        assert smaller.names() == ("S",)

    def test_removing_unknown_rejected(self):
        with pytest.raises(SchemaError):
            Signature.from_arities({"R": 2}).removing("Z")

    def test_union_disjoint(self):
        left = Signature.from_arities({"R": 2})
        right = Signature.from_arities({"S": 1})
        assert set(left.union(right).names()) == {"R", "S"}

    def test_union_conflicting_arity_rejected(self):
        left = Signature.from_arities({"R": 2})
        right = Signature.from_arities({"R": 3})
        with pytest.raises(SchemaError):
            left.union(right)

    def test_union_identical_shared_ok(self):
        left = Signature.from_arities({"R": 2})
        right = Signature.from_arities({"R": 2, "S": 1})
        assert len(left.union(right)) == 2

    def test_disjointness(self):
        left = Signature.from_arities({"R": 2})
        right = Signature.from_arities({"S": 1})
        assert left.is_disjoint_from(right)
        assert not left.is_disjoint_from(left)
        assert left.shared_names(left) == ("R",)

    def test_restricted_to(self):
        signature = Signature.from_arities({"R": 2, "S": 1, "T": 3})
        assert signature.restricted_to(["S", "T"]).names() == ("S", "T")

    def test_keyed_names(self):
        signature = Signature(
            [RelationSchema("R", 2, (0,)), RelationSchema("S", 2)]
        )
        assert signature.keyed_names() == ("R",)
        assert signature.key_of("R") == (0,)
        assert signature.key_of("S") is None

    def test_relation_leaf(self):
        signature = Signature.from_arities({"R": 2})
        assert signature.relation("R") == Relation("R", 2)

    def test_equality_and_hash(self):
        a = Signature.from_arities({"R": 2, "S": 1})
        b = Signature.from_arities({"S": 1, "R": 2})
        assert a == b
        assert hash(a) == hash(b)

    def test_fingerprint_is_cached_and_survives_an_older_pickle(self):
        signature = Signature([RelationSchema("R", 2, (0,)), RelationSchema("S", 1)])
        expected = signature.fingerprint()
        assert signature.fingerprint() is expected
        # Checkpoints pickled before signatures cached their fingerprint
        # carry no such attribute; they must still name the same signature.
        restored = pickle.loads(pickle.dumps(signature))
        restored.__dict__.pop("_fingerprint", None)
        assert restored.fingerprint() == expected

    def test_empty_signature(self):
        signature = Signature()
        assert len(signature) == 0
        assert signature.names() == ()
