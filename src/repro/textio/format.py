"""Plain-text serialization of composition problems.

The paper distributed its composition tasks "in a machine-readable format"
with "a plain-text syntax for specifying mapping composition tasks".  This
module provides that: a composition problem is written as five sections —
the three signatures and the two constraint sets — using the expression syntax
of :mod:`repro.algebra.printer`::

    # name: example3_inclusion_chain
    # description: {R <= S, S <= T} is equivalent to {R <= T}
    [sigma1]
    R/2
    [sigma2]
    S/2
    [sigma3]
    T/2
    [sigma12]
    R/2 <= S/2
    [sigma23]
    S/2 <= T/2

Relations are declared one per line as ``name/arity`` with an optional
``key=i,j`` suffix.  Lines starting with ``#`` are comments; the first
``# name:`` / ``# description:`` comments populate the problem metadata.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.parser import _Reader
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import ParseError
from repro.mapping.composition_problem import CompositionProblem
from repro.schema.signature import RelationSchema, Signature

__all__ = ["problem_to_text", "problem_from_text", "write_problem", "read_problem"]

_SECTIONS = ("sigma1", "sigma2", "sigma3", "sigma12", "sigma23")


def _signature_to_lines(signature: Signature) -> List[str]:
    lines = []
    for schema in signature.relations():
        line = f"{schema.name}/{schema.arity}"
        if schema.key is not None:
            line += " key=" + ",".join(str(i) for i in schema.key)
        lines.append(line)
    return lines


def problem_to_text(problem: CompositionProblem) -> str:
    """Serialize a composition problem to the plain-text format."""
    lines: List[str] = []
    if problem.name:
        lines.append(f"# name: {problem.name}")
    if problem.description:
        lines.append(f"# description: {problem.description}")
    for section, signature in (
        ("sigma1", problem.sigma1),
        ("sigma2", problem.sigma2),
        ("sigma3", problem.sigma3),
    ):
        lines.append(f"[{section}]")
        lines.extend(_signature_to_lines(signature))
    lines.append("[sigma12]")
    lines.extend(str(constraint) for constraint in problem.sigma12)
    lines.append("[sigma23]")
    lines.extend(str(constraint) for constraint in problem.sigma23)
    return "\n".join(lines) + "\n"


def _parse_relation_line(line: str) -> RelationSchema:
    parts = line.split()
    name, slash, arity_text = parts[0].partition("/")
    if not slash:
        raise ParseError(f"expected 'name/arity' in relation declaration, got {line!r}")
    try:
        arity = int(arity_text)
    except ValueError:
        raise ParseError(f"invalid arity in relation declaration {line!r}") from None
    key: Optional[Tuple[int, ...]] = None
    for extra in parts[1:]:
        if not extra.startswith("key="):
            raise ParseError(f"unexpected token {extra!r} in relation declaration {line!r}")
        try:
            key = tuple(int(piece) for piece in extra[4:].split(",") if piece)
        except ValueError:
            raise ParseError(f"invalid key in relation declaration {line!r}") from None
    return RelationSchema(name, arity, key)


def _parse_signature(lines: List[str]) -> Signature:
    return Signature([_parse_relation_line(line) for line in lines])


def problem_from_text(text: str) -> CompositionProblem:
    """Parse a composition problem from the plain-text format.

    The constraints of both sets share one leaf table: each distinct
    relation ``name/arity`` becomes one :class:`Relation` object.
    """
    sections: Dict[str, List[str]] = {section: [] for section in _SECTIONS}
    name = ""
    description = ""
    current: Optional[List[str]] = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        first = line[0]
        if first == "#":
            comment = line[1:].strip()
            if comment.lower().startswith("name:"):
                name = comment[5:].strip()
            elif comment.lower().startswith("description:"):
                description = comment[12:].strip()
            continue
        if first == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            current = sections.get(section)
            if current is None:
                raise ParseError(f"unknown section {section!r}")
            continue
        if current is None:
            raise ParseError(f"content outside any section: {line!r}")
        current.append(line)

    sigma1 = _parse_signature(sections["sigma1"])
    sigma2 = _parse_signature(sections["sigma2"])
    sigma3 = _parse_signature(sections["sigma3"])
    constraint = _Reader().constraint_line
    return CompositionProblem(
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
        sigma12=ConstraintSet([constraint(line) for line in sections["sigma12"]]),
        sigma23=ConstraintSet([constraint(line) for line in sections["sigma23"]]),
        name=name,
        description=description,
    )


def write_problem(problem: CompositionProblem, path) -> None:
    """Write a composition problem to ``path`` in the plain-text format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(problem_to_text(problem))


def read_problem(path) -> CompositionProblem:
    """Read a composition problem from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return problem_from_text(handle.read())
