"""One identity per expression node.

A built-in node's content digest is its identity: its hash is the signed
little-endian value of the digest's first eight bytes, and two nodes are
equal exactly when they have the same class and the same digest.  The digest
is not salted, so hashes are the same in every process and survive pickling.
"""

import os
import pickle
import subprocess
import sys
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.algebra.conditions import FALSE, TRUE, And, Not, Or, equals, equals_const
from repro.algebra.digest import DIGEST_SIZE, expression_digest
from repro.algebra.expressions import (
    BASIC_OPERATOR_TYPES,
    LEAF_TYPES,
    PREFIX_OPERATOR_TYPES,
    AntiSemiJoin,
    ConstantRelation,
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Intersection,
    LeftOuterJoin,
    Projection,
    Relation,
    Selection,
    SemiJoin,
    SkolemApplication,
    SkolemFunction,
    TransitiveClosure,
    Union,
)
from repro.algebra.parser import parse_constraint, parse_expression
from repro.exceptions import ConditionError

SRC = Path(__file__).resolve().parents[2] / "src"

R = Relation("R", 2)
S = Relation("S", 2)

BUILT_IN_NODES = [
    R,
    Relation("it's", 1),
    Domain(2),
    Empty(2),
    ConstantRelation.singleton(1, "a"),
    ConstantRelation(((1.5,), (None,)), 1),
    Union(R, S),
    Intersection(R, S),
    Difference(R, S),
    CrossProduct(R, S),
    Selection(R, equals_const(0, "x")),
    Selection(R, equals_const(0, 1)),
    Selection(R, equals_const(0, 1.0)),
    Selection(R, And(equals(0, 1), Or(equals_const(0, 1), Not(equals_const(1, "x"))))),
    Selection(R, TRUE),
    Selection(R, FALSE),
    Projection(R, (1, 0)),
    Projection(R, (1,)),
    SkolemApplication(R, SkolemFunction("f", (0,))),
    SemiJoin(R, S, equals(0, 2)),
    AntiSemiJoin(R, S, equals(1, 3)),
    LeftOuterJoin(R, S, equals(0, 3)),
    TransitiveClosure(S),
]

#: The payload fields of each built-in class, as the digest has always read
#: them: the repr of one field alone, or of several as a tuple.
_PAYLOAD_FIELDS = {
    Relation: ("name", "relation_arity"),
    Domain: ("domain_arity",),
    Empty: ("empty_arity",),
    ConstantRelation: ("tuples", "constant_arity"),
    Union: (),
    Intersection: (),
    Difference: (),
    CrossProduct: (),
    Selection: ("condition",),
    Projection: ("indices",),
    SkolemApplication: ("function",),
    SemiJoin: ("condition",),
    AntiSemiJoin: ("condition",),
    LeftOuterJoin: ("condition",),
    TransitiveClosure: (),
}


def _reference_digest(node) -> bytes:
    """The digest recomputed recursively from the payload reprs."""
    values = tuple(getattr(node, name) for name in _PAYLOAD_FIELDS[type(node)])
    payload = repr(values[0] if len(values) == 1 else values).encode() if values else b""
    children = node.children
    data = type(node).__qualname__.encode() + payload + b"|%d|" % len(children)
    data += b"".join(_reference_digest(child) for child in children)
    return blake2b(data, digest_size=DIGEST_SIZE).digest()


def _signed_prefix(digest: bytes) -> int:
    return int.from_bytes(digest[:8], "little", signed=True)


def _node_id(node) -> str:
    return str(node)


def test_the_nodes_cover_every_built_in_type():
    assert {type(node) for node in BUILT_IN_NODES} == set(
        LEAF_TYPES + BASIC_OPERATOR_TYPES + PREFIX_OPERATOR_TYPES + (SkolemApplication,)
    )
    assert set(_PAYLOAD_FIELDS) == {type(node) for node in BUILT_IN_NODES}


@pytest.mark.parametrize("node", BUILT_IN_NODES, ids=_node_id)
def test_hash_is_the_signed_digest_prefix(node):
    assert hash(node) == _signed_prefix(expression_digest(node))


@pytest.mark.parametrize("node", BUILT_IN_NODES, ids=_node_id)
def test_payload_bytes_are_the_payload_repr(node):
    # The per-class writers spell the dataclass reprs out; the bytes must not
    # move, or every persisted digest would.
    assert expression_digest(node) == _reference_digest(node)


def test_nodes_are_equal_exactly_when_their_digests_are():
    originals = [
        Union(R, S),
        CrossProduct(R, S),
        Selection(R, equals_const(0, "x")),
        Selection(R, And(equals(0, 1), Or(equals_const(0, 1), Not(equals_const(1, "x"))))),
        Projection(R, (1, 0)),
        SemiJoin(R, S, equals(0, 2)),
    ]
    rebuilt = [parse_expression(str(node)) for node in originals]
    for original, copy in zip(originals, rebuilt):
        assert copy is not original and copy == original
    nodes = BUILT_IN_NODES + originals + rebuilt
    for a in nodes:
        for b in nodes:
            same = type(a) is type(b) and expression_digest(a) == expression_digest(b)
            assert (a == b) is same
            assert (a != b) is not same
            if same:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("kind", [And, Or])
def test_a_one_operand_conjunction_or_disjunction_is_refused(kind):
    # ``(c)`` would print and read back as ``c``: another node, digest and
    # request key.  Nested operands of the same kind still flatten.
    with pytest.raises(ConditionError, match="at least two operands"):
        kind(equals(0, 1))
    assert len(kind(kind(equals(0, 1), equals_const(1, 2))).operands) == 2


def test_one_and_one_point_zero_are_different_nodes():
    # Equal payloads that print differently are different nodes: the digest
    # hashes the repr, and equality, the hash and the request key agree.
    one = parse_expression("select[#0 = 1](R/2)")
    one_float = parse_expression("select[#0 = 1.0](R/2)")
    assert one.condition == one_float.condition
    assert expression_digest(one) != expression_digest(one_float)
    assert one != one_float
    assert hash(one) != hash(one_float)
    assert len({one, one_float}) == 2


def test_equality_summarizes_unsummarized_sides():
    a = Union(Projection(R, (0,)), Projection(S, (1,)))
    b = Union(Projection(R, (0,)), Projection(S, (1,)))
    assert "_digest" not in a.__dict__ and "_digest" not in b.__dict__
    assert a == b
    assert a.__dict__["_digest"] == b.__dict__["_digest"]


_WRITER = """
import pickle, sys
from repro.algebra.parser import parse_constraint, parse_expression
from repro.constraints.constraint_set import ConstraintSet
node = parse_expression(sys.argv[1])
constraints = ConstraintSet([parse_constraint(line) for line in sys.argv[2:]])
hashes = (hash(node), [hash(c) for c in constraints])
sys.stdout.buffer.write(pickle.dumps((node, constraints, hashes)))
"""

_READER = """
import pickle, sys
from repro.algebra.parser import parse_constraint, parse_expression
from repro.constraints.constraint_set import ConstraintSet
node, constraints, (node_hash, _) = pickle.loads(sys.stdin.buffer.read())
fresh = parse_expression(sys.argv[1])
fresh_constraints = ConstraintSet([parse_constraint(line) for line in sys.argv[2:]])
assert "_hash_value" in node.__dict__, "the node hash was dropped"
assert hash(node) == hash(fresh) == node_hash
assert node == fresh and node in {fresh} and fresh in {node}
assert not any("_hash_value" in c.__dict__ for c in constraints), "a constraint kept its hash"
for loaded, built in zip(constraints, fresh_constraints):
    assert hash(loaded) == hash(built)
    assert built in set(constraints) and loaded in set(fresh_constraints)
assert constraints == fresh_constraints and hash(constraints) == hash(fresh_constraints)
print("ok")
"""


def test_hashes_survive_pickling_across_hash_seeds():
    expression = "(project[1](select[#0 = 'x'](R/2)) union S/1)"
    constraints = [
        "project[1](select[#0 = 'x'](R/2)) <= S/1",
        "(R/2 x S/1) = T/3",
        "select[#1 = 7](R/2) <= R/2",
    ]
    args = [expression] + constraints

    def run(script, seed, data=None):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            input=data,
            capture_output=True,
            env=env,
            check=False,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    written = run(_WRITER, "0")
    assert run(_READER, "1", written).strip() == b"ok"
    # In this process too, whatever its seed: the same node hash.
    node, _, (node_hash, _) = pickle.loads(written)
    assert hash(node) == hash(parse_expression(expression)) == node_hash


def test_a_pickled_constraint_drops_its_hash():
    constraint = parse_constraint("select[#1 = 7](R/2) <= R/2")
    hash(constraint)
    assert "_hash_value" in constraint.__dict__
    loaded = pickle.loads(pickle.dumps(constraint))
    assert "_hash_value" not in loaded.__dict__
    assert "_hash_value" in loaded.left.__dict__
    assert hash(loaded) == hash(constraint) and loaded == constraint
