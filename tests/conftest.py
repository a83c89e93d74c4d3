"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.algebra.conditions import equals, equals_const
from repro.algebra.expressions import (
    CrossProduct,
    Difference,
    Domain,
    Empty,
    Intersection,
    Projection,
    Relation,
    Selection,
    Union,
)
from repro.schema.instance import Instance
from repro.schema.signature import RelationSchema, Signature


@pytest.fixture
def r2() -> Relation:
    """A binary relation R."""
    return Relation("R", 2)


@pytest.fixture
def s2() -> Relation:
    """A binary relation S."""
    return Relation("S", 2)


@pytest.fixture
def t2() -> Relation:
    """A binary relation T."""
    return Relation("T", 2)


@pytest.fixture
def small_signature() -> Signature:
    """A small signature with relations of arity 1 and 2."""
    return Signature(
        [
            RelationSchema("R", 2),
            RelationSchema("S", 2),
            RelationSchema("T", 2),
            RelationSchema("U", 1),
        ]
    )


@pytest.fixture
def small_instance(small_signature) -> Instance:
    """A small instance over the small signature."""
    return Instance(
        {
            "R": {(1, 2), (2, 3), (3, 3)},
            "S": {(1, 2), (3, 3), (4, 1)},
            "T": {(2, 3), (4, 1)},
            "U": {(1,), (2,)},
        },
        small_signature,
    )


def random_instance(
    signature: Signature, seed: int, domain_size: int = 4, max_rows: int = 5
) -> Instance:
    """Build a deterministic pseudo-random instance over ``signature``."""
    rng = random.Random(seed)
    contents = {}
    for schema in signature.relations():
        rows = set()
        for _ in range(rng.randint(0, max_rows)):
            rows.add(tuple(rng.randint(0, domain_size - 1) for _ in range(schema.arity)))
        contents[schema.name] = rows
    return Instance(contents, signature)


def expression_samples(include_extended: bool = False):
    """A list of hand-built expressions over R/2, S/2, T/2, U/1 covering every operator."""
    r, s, t = Relation("R", 2), Relation("S", 2), Relation("T", 2)
    u = Relation("U", 1)
    samples = [
        r,
        Domain(2),
        Empty(2),
        Union(r, s),
        Intersection(r, s),
        Difference(r, s),
        CrossProduct(u, r),
        Selection(r, equals(0, 1)),
        Selection(s, equals_const(1, 2)),
        Projection(r, (1, 0)),
        Projection(CrossProduct(r, s), (0, 3)),
        Union(Difference(r, s), Intersection(s, t)),
        Projection(Selection(CrossProduct(r, s), equals(1, 2)), (0, 3)),
    ]
    if include_extended:
        from repro.algebra.expressions import (
            AntiSemiJoin,
            LeftOuterJoin,
            SemiJoin,
            TransitiveClosure,
        )

        samples.extend(
            [
                SemiJoin(r, s, equals(0, 2)),
                AntiSemiJoin(r, s, equals(0, 2)),
                LeftOuterJoin(r, s, equals(1, 2)),
                TransitiveClosure(Union(r, s)),
            ]
        )
    return samples


@pytest.fixture
def record_scans(monkeypatch):
    """Counts record scans while a test runs: ``{"scans": n}``.

    ``parse_record`` is the one record scanner; every module that holds a
    reference to it gets a counting wrapper (the pattern of
    ``benchmarks/work_counts.py``), restored when the test ends.
    """
    import importlib

    from repro.textio import records

    original = records.parse_record
    counts = {"scans": 0}

    def counted(text):
        counts["scans"] += 1
        return original(text)

    for name in (
        "repro.textio.records",
        "repro.textio.format",
        "repro.catalog.catalog",
        "repro.service.http",
    ):
        module = importlib.import_module(name)
        if hasattr(module, "parse_record"):
            monkeypatch.setattr(module, "parse_record", counted)
    return counts
