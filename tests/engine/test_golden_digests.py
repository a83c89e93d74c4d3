"""Pinned values of the persisted content identities.

Checkpoint tokens name hop checkpoints on disk, and chain and mapping
fingerprints content-address catalog entries.  A checkpoint written by one
version must be found by the next, so these values may not drift when the
expression kernel changes: every digest below is pinned to its hex value.

The fixed chain covers a selection on a constant, a projection, a cross
product, a constant relation and a keyed relation.  If one of these values
changes on purpose, the on-disk formats change with it, and every persisted
checkpoint and catalog address becomes unreachable.
"""

from repro.algebra.conditions import equals_const
from repro.algebra.digest import expression_digest
from repro.algebra.expressions import (
    ConstantRelation,
    CrossProduct,
    Projection,
    Relation,
    Selection,
    Union,
)
from repro.compose.config import ComposerConfig
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.engine import chain_tokens, compose_chain
from repro.engine.fingerprint import chain_fingerprint
from repro.mapping.mapping import Mapping
from repro.schema.signature import RelationSchema, Signature

R = Relation("R", 2)
S = Relation("S", 1)
A = Relation("A", 2)
B = Relation("B", 3)
T = Relation("T", 2)
U = Relation("U", 1)

SELECTED = Selection(R, equals_const(0, "x"))
PRODUCT = CrossProduct(R, S)
PROJECTED = Projection(B, (0, 2))
WITH_CONSTANT = Union(Projection(A, (1,)), ConstantRelation.singleton(7))

SIGMA1 = Signature((RelationSchema("R", 2, key=(0,)), RelationSchema("S", 1)))
SIGMA2 = Signature((RelationSchema("A", 2), RelationSchema("B", 3, key=(0,))))
SIGMA3 = Signature((RelationSchema("T", 2), RelationSchema("U", 1)))

CONSTRAINTS_12 = (
    EqualityConstraint(A, SELECTED),
    EqualityConstraint(B, PRODUCT),
    ContainmentConstraint(ConstantRelation.singleton("c"), S),
)
CONSTRAINTS_23 = (
    EqualityConstraint(T, PROJECTED),
    ContainmentConstraint(WITH_CONSTANT, U),
)


def _chain():
    return (
        Mapping(SIGMA1, SIGMA2, ConstraintSet(CONSTRAINTS_12)),
        Mapping(SIGMA2, SIGMA3, ConstraintSet(CONSTRAINTS_23)),
    )


def test_expression_digests_are_pinned():
    expressions = (SELECTED, PRODUCT, PROJECTED, WITH_CONSTANT)
    assert [expression_digest(e).hex() for e in expressions] == [
        "208c7e9042f2563fbfe6a0dda9f0d68c",
        "4d3969211cb7d763eb6f145042de64aa",
        "add6f711e729ab6628401a0d97fefa45",
        "09b021670b9ae0ceebf2eb7731b0dc1d",
    ]


def test_constraint_digests_are_pinned():
    assert [c.digest().hex() for c in CONSTRAINTS_12 + CONSTRAINTS_23] == [
        "fa6d07e9e18bb71e9ff21b4772de0a7c",
        "7475afab3ffc7c157b5014cddc7556a3",
        "4f24da55862a8d252ab7a81dec4f4e71",
        "8e15e59473f1e90dc895735a3ffac87f",
        "e2344c5644f65f4a953a185a97c7bdf7",
    ]


def test_signature_fingerprints_are_pinned():
    assert [s.fingerprint().hex() for s in (SIGMA1, SIGMA2, SIGMA3)] == [
        "581d73e1d312a112ea921497be9b771a",
        "910feb586d987ab15824a14556912711",
        "44c602d12db3e75f356851d545e4d78f",
    ]


def test_mapping_and_chain_fingerprints_are_pinned():
    m12, m23 = _chain()
    assert m12.fingerprint().hex() == "a14ea0c6e5fe2281d228baf55c91297b"
    assert m23.fingerprint().hex() == "309a5987880f0544e10355de9d950c6c"
    assert chain_fingerprint(_chain()).hex() == "0cb7d4a49838772812ae19d8dc00249b"


def test_chain_tokens_are_pinned():
    config = ComposerConfig()
    retry = chain_tokens(_chain(), config, retry_residuals=True)
    freeze = chain_tokens(_chain(), config, retry_residuals=False)
    assert [t.hex() for t in retry] == ["e29c25e451b0173c333d1c840f5b6394"]
    assert [t.hex() for t in freeze] == ["77cea62dea7571ac142eaf98b5d12e05"]


def test_composed_output_is_pinned():
    result = compose_chain(_chain())
    assert result.constraints.to_text().splitlines() == [
        "const(('c')) <= S/1",
        "T/2 = project[0,2]((R/2 x S/1))",
        "(project[1](select[#0 = 'x'](R/2)) union const((7))) <= U/1",
    ]
    assert result.residual_symbols == ()
    assert result.constraints.fingerprint().hex() == (
        "86bba37bc20bf6b2c016585f5be78319"
    )
