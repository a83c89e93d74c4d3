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
``# name:`` / ``# description:`` comments (keys in any case) populate the
problem metadata.  The text is read by the record scanner and reader table
of :mod:`repro.textio.records`: an unknown section is an error, a missing
one reads as empty, and a text that declares another ``# kind:`` is refused.
"""

from __future__ import annotations

from repro.mapping.composition_problem import CompositionProblem
from repro.textio.records import (
    _constraint_section,
    _metadata_lines,
    _signature_section,
    parse_record,
    read_record,
)

__all__ = ["problem_to_text", "problem_from_text", "write_problem", "read_problem"]


def problem_to_text(problem: CompositionProblem) -> str:
    """Serialize a composition problem to the plain-text format.

    A multi-line name or description is a :class:`ParseError`, as in every
    other record writer: it could not be read back.
    """
    # The paper's files carry no ``# kind:`` line.
    lines = _metadata_lines("", problem.name, problem.description)
    lines.extend(_signature_section("sigma1", problem.sigma1))
    lines.extend(_signature_section("sigma2", problem.sigma2))
    lines.extend(_signature_section("sigma3", problem.sigma3))
    lines.extend(_constraint_section("sigma12", problem.sigma12))
    lines.extend(_constraint_section("sigma23", problem.sigma23))
    return "\n".join(lines) + "\n"


def problem_from_text(text: str) -> CompositionProblem:
    """Parse a composition problem from the plain-text format.

    The constraints of both sets share one leaf table: each distinct
    relation ``name/arity`` becomes one :class:`Relation` object.
    """
    return read_record(parse_record(text), "problem")


def write_problem(problem: CompositionProblem, path) -> None:
    """Write a composition problem to ``path`` in the plain-text format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(problem_to_text(problem))


def read_problem(path) -> CompositionProblem:
    """Read a composition problem from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return problem_from_text(handle.read())
