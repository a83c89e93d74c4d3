"""The contract of the text -> algebra path: errors, leaves and outputs.

* Every malformed input raises :class:`ParseError` with a pinned message and
  character position (the table below; the values for inputs that were
  already rejected with a ``ParseError`` were recorded before the parser
  became iterative, and a malformed number, which used to escape as a
  ``ValueError``, now gets one too).
* A seeded fuzz over the token alphabet: only :class:`ReproError` escapes the
  constraint parser and the record parsers, so a served record is answered
  with HTTP 400, never a dropped connection.
* One parsed record holds one :class:`Relation` object per ``(name, arity)``;
  separate parses share none.
* A golden digest over the fingerprints and constraint texts of 64 seeded
  generated problem records pins the parsed objects.
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from repro.algebra.expressions import Relation
from repro.algebra.parser import (
    parse_condition,
    parse_constraint,
    parse_constraints,
    parse_expression,
)
from repro.algebra.traversal import walk
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import ParseError, ReproError
from repro.textio.format import problem_from_text, problem_to_text
from repro.textio.records import (
    chain_from_text,
    chain_to_text,
    mapping_from_text,
    mapping_to_text,
    result_from_text,
)

_PARSERS = {
    "expression": parse_expression,
    "condition": parse_condition,
    "constraint": parse_constraint,
}

#: (parser, text, message, position)
MALFORMED = [
    ("expression", "", "expected an expression, found ''", 0),
    ("expression", "R", "relation 'R' has no inline arity (use R/<arity>) and is not in the signature", 0),
    ("expression", "R/", "expected 'number' but found ''", 2),
    ("expression", "R/x", "expected 'number' but found 'x'", 2),
    ("expression", "(R/2 union S/2", "expected ')' but found ''", 14),
    ("expression", "R/2 @@ S/2", "unexpected character '@'", 4),
    ("expression", "R/2 S/2", "expected 'eof' but found 'S'", 4),
    ("expression", "R/2 S/2 @", "unexpected character '@'", 8),
    ("expression", "select/2", "expected '[' but found '/'", 6),
    ("expression", "union/2", "'union' is a reserved word", 0),
    ("expression", "project[0,](R/2)", "expected 'number' but found ']'", 10),
    ("expression", "project[0 1](R/2)", "expected ']' but found '1'", 10),
    ("expression", "project(R/2)", "expected '[' but found '('", 7),
    ("expression", "skolem [0](R/2)", "expected 'name' but found '['", 7),
    ("expression", "semijoin[#0 = #2](R/2 S/2)", "expected ',' but found 'S'", 22),
    ("expression", "leftouterjoin[#0 = #1](R/2)", "expected ',' but found ')'", 26),
    ("expression", "tclosure(R/2, S/2)", "expected ')' but found ','", 12),
    ("expression", "tclosure[#0 = 1](R/2)", "expected '(' but found '['", 8),
    ("expression", "D(x)", "expected 'number' but found 'x'", 2),
    ("expression", "empty()", "expected 'number' but found ')'", 6),
    ("expression", "const()", "expected '(' but found ')'", 6),
    ("expression", "const((1, ))", "expected a literal value, found ')'", 10),
    ("expression", "const((1); (2)", "expected ')' but found ''", 14),
    ("expression", "select[#0](R/2)", "expected a comparison operator, found ']'", 9),
    ("expression", "select[#0 = ](R/2)", "expected a literal value, found ']'", 12),
    ("expression", "select[not #0 = 1](R/2)", "expected '(' but found '#0'", 11),
    ("expression", "select[(#0 = 1](R/2)", "expected ')' but found ']'", 14),
    ("expression", "R/2 union", "expected an expression, found ''", 9),
    ("expression", "R/2 - - S/2", "expected an expression, found '-'", 6),
    ("expression", "1.5", "expected an expression, found '1.5'", 0),
    ("expression", "R/2 union S/2)", "expected 'eof' but found ')'", 13),
    ("expression", "skolem f[-1](R/2 union)", "expected an expression, found ')'", 22),
    ("expression", "project[5](R/2) @", "unexpected character '@'", 16),
    ("condition", "#0 = 'abc", 'unexpected character "\'"', 5),
    ("condition", "#0 = 1 and", "expected a literal value, found ''", 10),
    ("condition", "#0 == 1", "expected a literal value, found '='", 4),
    ("condition", "# 0 = 1", "unexpected character '#'", 0),
    ("condition", "true false", "expected 'eof' but found 'false'", 5),
    ("condition", "not (#0 = 1", "expected ')' but found ''", 11),
    ("constraint", "R/2 < S/2", "expected '<=', '>=' or '=', found '<'", 4),
    ("constraint", "R/2 <= S/2 <= T/2", "expected 'eof' but found '<='", 11),
    ("constraint", "R/2 <= (S/2", "expected ')' but found ''", 11),
    # A malformed number (a ValueError before the parser was rewritten).
    ("constraint", "R/1.5 <= S/2", "expected an integer, found '1.5'", 2),
    ("expression", "project[1.5](R/2)", "expected an integer, found '1.5'", 8),
    ("expression", "D(1.5)", "expected an integer, found '1.5'", 2),
    ("expression", "empty(2.0)", "expected an integer, found '2.0'", 6),
    ("expression", "skolem f[0.5](R/2)", "expected an integer, found '0.5'", 9),
    ("expression", "project[1e+16](R/2)", "expected an integer, found '1e+16'", 8),
]


@pytest.mark.parametrize("parser, text, message, position", MALFORMED)
def test_malformed_input_error(parser, text, message, position):
    with pytest.raises(ParseError) as excinfo:
        _PARSERS[parser](text)
    assert (str(excinfo.value), excinfo.value.position, excinfo.value.text) == (
        message,
        position,
        text,
    )


def test_malformed_key_in_a_declaration_is_a_parse_error():
    text = "[sigma1]\nR/2 key=a\n[sigma2]\n[sigma3]\n[sigma12]\n[sigma23]\n"
    with pytest.raises(ParseError, match="invalid key in relation declaration 'R/2 key=a'"):
        problem_from_text(text)


def test_too_deeply_nested_condition_is_a_parse_error():
    # Condition objects are recursive; the parser itself is not.
    depth = 3 * sys.getrecursionlimit()
    condition = "not (" * depth + "#0 = 1" + ")" * depth
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_expression(f"select[{condition}](R/2)")


# ---------------------------------------------------------------------------
# Fuzz: only ReproError escapes
# ---------------------------------------------------------------------------

ALPHABET = (
    "R/2", "S/2", "T/3", "R", "/", "2", "0", "1.5", "-1", "-", "#0", "#1", "#",
    "'a'", "'", "(", ")", "[", "]", ",", ";", "=", "<=", ">=", "<", "union",
    "x", "select", "project", "skolem", "f", "semijoin", "antisemijoin",
    "leftouterjoin", "tclosure", "D", "empty", "const", "true", "not", "and",
    "or", "@",
)
SEED_LINES = (
    "project[0,1](R4/3) = R6/2",
    "R4/3 = project[0,1,3](select[#0 = #2]((R6/2 x R7/2)))",
    "C3/2 = project[0,1](select[#2 = 'c0'](R8/3))",
    "semijoin[#0 = #2](R/2, S/2) <= (T/2 - D(2))",
)
DECLARATION_PIECES = ("0", "1", "2", "1.5", "-", "#", "a", "")


def _fuzz_line(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return " ".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 12)))
    # A valid line with a few tokens replaced: reaches deeper into the grammar.
    tokens = (
        rng.choice(SEED_LINES)
        .replace("(", " ( ").replace(")", " ) ").replace("[", " [ ").replace("]", " ] ")
        .replace(",", " , ").replace("/", " / ").split()
    )
    for _ in range(rng.randint(1, 3)):
        tokens[rng.randrange(len(tokens))] = rng.choice(ALPHABET)
    return "".join(tokens) if rng.random() < 0.5 else " ".join(tokens)


def _fuzz_declaration(rng: random.Random) -> str:
    line = f"A{rng.randint(0, 9)}/{rng.choice(DECLARATION_PIECES)}"
    if rng.random() < 0.5:
        pieces = rng.sample(DECLARATION_PIECES, rng.randint(1, 3))
        line += " key=" + ",".join(pieces)
    return line


def _records(rng: random.Random):
    line, declaration = _fuzz_line(rng), _fuzz_declaration(rng)
    problem = (
        f"[sigma1]\n{declaration}\nR/2\n[sigma2]\nS/2\n[sigma3]\nT/3\n"
        f"[sigma12]\n{line}\n[sigma23]\nS/2 <= project[0,1](T/3)\n"
    )
    mapping = (
        f"# kind: mapping\n[input]\n{declaration}\n[output]\nS/2\n"
        f"[constraints]\n{line}\n"
    )
    chain = (
        f"# kind: chain\n[schema.0]\nR/2\n[constraints.0]\nR/2 <= S/2\n"
        f"[schema.1]\n{declaration}\nS/2\n[constraints.1]\n{line}\n[schema.2]\nT/3\n"
    )
    result = (
        f"# kind: result\n[sigma1]\n{declaration}\n[residual]\n[sigma3]\nT/3\n"
        f"[constraints]\n{line}\n[outcomes]\nS eliminated view_unfolding 0.5\n"
    )
    return (
        (parse_constraint, line),
        (problem_from_text, problem),
        (mapping_from_text, mapping),
        (chain_from_text, chain),
        (result_from_text, result),
    )


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_only_repro_errors_escape(seed):
    rng = random.Random(f"parse-contract:{seed}")
    for _ in range(300):
        for parse, text in _records(rng):
            try:
                parse(text)
            except ReproError:
                pass


# ---------------------------------------------------------------------------
# Shared leaves
# ---------------------------------------------------------------------------


def _leaves(constraints):
    for constraint in constraints:
        for side in (constraint.left, constraint.right):
            for node in walk(side):
                if isinstance(node, Relation):
                    yield node


def _assert_one_object_per_relation(leaves):
    by_key = {}
    for leaf in leaves:
        by_key.setdefault((leaf.name, leaf.arity), set()).add(id(leaf))
    assert by_key
    assert all(len(ids) == 1 for ids in by_key.values()), by_key
    return {next(iter(ids)) for ids in by_key.values()}


def _chains():
    return generate_workload(
        WorkloadConfig(
            num_problems=2, min_chain_length=4, max_chain_length=5, schema_size=4, seed=11
        )
    )


class TestSharedLeaves:
    def test_problem_record(self):
        text = problem_to_text(pairwise_problems(_chains()[0])[0])
        first, second = problem_from_text(text), problem_from_text(text)
        ids = [
            _assert_one_object_per_relation(
                _leaves(list(problem.sigma12) + list(problem.sigma23))
            )
            for problem in (first, second)
        ]
        assert not ids[0] & ids[1]

    def test_chain_record_shares_across_hops(self):
        text = chain_to_text(_chains()[1].mappings)
        mappings = chain_from_text(text)
        constraints = [c for mapping in mappings for c in mapping.constraints]
        first = _assert_one_object_per_relation(_leaves(constraints))
        again = chain_from_text(text)
        second = _assert_one_object_per_relation(
            _leaves([c for mapping in again for c in mapping.constraints])
        )
        assert not first & second

    def test_mapping_record_and_parse_constraints(self):
        mapping = _chains()[0].mappings[0]
        parsed = mapping_from_text(mapping_to_text(mapping))
        _assert_one_object_per_relation(_leaves(parsed.constraints))
        lines = "\n".join(str(c) for c in mapping.constraints)
        _assert_one_object_per_relation(_leaves(parse_constraints(lines)))

    def test_separate_constraint_parses_share_nothing(self):
        first, second = parse_constraint("R/2 <= S/2"), parse_constraint("R/2 <= S/2")
        assert first == second
        assert first.left is not second.left and first.right is not second.right

    def test_one_object_per_name_and_arity(self):
        constraints = parse_constraints("R/2 <= S/2\nS/2 = (R/2 union S/2)\nproject[0](R/2) <= U/1")
        leaves = list(_leaves(constraints))
        assert len(leaves) == 7
        assert len({id(leaf) for leaf in leaves}) == 3


# ---------------------------------------------------------------------------
# Golden digest
# ---------------------------------------------------------------------------

#: sha256 over the fingerprint and the constraint texts of each record below.
GOLDEN_PARSED_RECORDS = "af63579e83d20213ab02408af66c15e3bc75aa9ba9c7db70f0853248828bbbac"


def generated_problem_records(count: int = 64, seed: int = 2006):
    """``count`` seeded problem records: adjacent hops of generated chains."""
    workload = generate_workload(
        WorkloadConfig(
            num_problems=8, min_chain_length=10, max_chain_length=14, schema_size=5, seed=seed
        )
    )
    texts = [problem_to_text(p) for chain in workload for p in pairwise_problems(chain)]
    return texts[:count]


def test_golden_digest_of_parsed_records():
    digest = hashlib.sha256()
    for text in generated_problem_records():
        problem = problem_from_text(text)
        digest.update(problem.fingerprint().hex().encode() + b"\n")
        for constraint in list(problem.sigma12) + list(problem.sigma23):
            digest.update(str(constraint).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_PARSED_RECORDS
