"""Tests for the extended textio record formats (schemas, mappings, chains, results)."""

import dataclasses

import pytest

from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine.workloads import ChainGrower
from repro.exceptions import ParseError
from repro.literature.problems import all_problems, problem_by_name
from repro.schema.signature import RelationSchema, Signature
from repro.textio.format import problem_from_text, problem_to_text
from repro.textio.records import (
    ChainDelta,
    chain_delta_to_text,
    chain_from_text,
    chain_to_text,
    mapping_from_text,
    mapping_to_text,
    parse_record,
    read_record,
    result_from_text,
    result_to_text,
    signature_from_text,
    signature_to_text,
)


@pytest.fixture(scope="module")
def chain():
    return tuple(ChainGrower(seed=42, schema_size=4).grow_many(4))


class TestSignatureRecords:
    def test_roundtrip_with_keys(self):
        signature = Signature(
            [
                RelationSchema("R", 3, (0, 2)),
                RelationSchema("S", 1),
                RelationSchema("T", 5, (1,)),
            ]
        )
        text = signature_to_text(signature, name="demo", description="three relations")
        assert signature_from_text(text) == signature
        record = parse_record(text)
        assert record.kind == "schema"
        assert record.name == "demo"
        assert record.description == "three relations"

    def test_insertion_order_preserved(self):
        signature = Signature([RelationSchema("Z", 2), RelationSchema("A", 2)])
        assert signature_from_text(signature_to_text(signature)).names() == ("Z", "A")

    def test_wrong_kind_rejected(self):
        with pytest.raises(ParseError):
            signature_from_text("# kind: mapping\n[relations]\nR/2\n")


class TestMappingRecords:
    def test_roundtrip(self, chain):
        for mapping in chain:
            assert mapping_from_text(mapping_to_text(mapping)) == mapping

    def test_missing_section_rejected(self):
        with pytest.raises(ParseError):
            mapping_from_text("# kind: mapping\n[input]\nR/2\n[output]\nS/2\n")

    def test_multiline_metadata_rejected(self, chain):
        # An embedded newline would dump text outside any section and make
        # the stored record unparseable; the serializer must refuse up front.
        with pytest.raises(ParseError):
            mapping_to_text(chain[0], name="m", description="line1\nline2")
        with pytest.raises(ParseError):
            mapping_to_text(chain[0], name="two\nlines")

    @pytest.mark.parametrize(
        "value", ["ends with a space ", " starts with a space", "\ttabbed", "nbsp\u00a0"]
    )
    def test_metadata_with_surrounding_whitespace_rejected(self, chain, value):
        # The reader strips the whitespace around a value, so it would read
        # back different from what was written; the serializer must refuse.
        with pytest.raises(ParseError, match="whitespace"):
            mapping_to_text(chain[0], name="m", description=value)
        with pytest.raises(ParseError, match="whitespace"):
            signature_to_text(chain[0].input_signature, name=value)
        written = signature_to_text(chain[0].input_signature, description="inner  spaces kept")
        assert parse_record(written).metadata["description"] == "inner  spaces kept"

    @pytest.mark.parametrize(
        "field, value",
        [("description", "line one\nline two"), ("name", "two\rlines"), ("name", "a\u2028b")],
    )
    def test_multiline_problem_metadata_rejected(self, field, value):
        # problem_to_text used to write these verbatim: the record it wrote
        # could not be read back.
        problem = problem_by_name("example1_movies").problem
        with pytest.raises(ParseError, match="must be a single line"):
            problem_to_text(dataclasses.replace(problem, **{field: value}))


class TestChainRecords:
    def test_roundtrip(self, chain):
        assert chain_from_text(chain_to_text(chain, name="history")) == chain

    def test_empty_chain_rejected(self):
        with pytest.raises(ParseError):
            chain_to_text([])

    def test_length_mismatch_rejected(self, chain):
        # The sections are authoritative; a record whose '# length:' header
        # understates them must fail loudly rather than silently truncate.
        text = chain_to_text(chain).replace(
            f"# length: {len(chain)}", "# length: 1"
        )
        with pytest.raises(ParseError):
            chain_from_text(text)

    def test_broken_chain_rejected(self, chain):
        with pytest.raises(ParseError):
            chain_to_text([chain[0], chain[2]])

    def test_empty_constraint_sections_survive(self, chain):
        # A section header with no lines must parse back as an empty set.
        from repro.constraints.constraint_set import ConstraintSet
        from repro.mapping.mapping import Mapping

        empty = Mapping(
            chain[0].input_signature, chain[0].output_signature, ConstraintSet()
        )
        parsed = chain_from_text(chain_to_text([empty]))
        assert parsed == (empty,)


class TestResultRecords:
    @pytest.mark.parametrize("order", ["fixed", "cost"])
    def test_roundtrip_across_literature(self, order):
        config = ComposerConfig(elimination_order=order)
        for literature_problem in all_problems():
            result = compose(literature_problem.problem, config)
            back = result_from_text(result_to_text(result, name=literature_problem.name))
            assert back == result, literature_problem.name

    def test_failure_reasons_survive(self):
        # outerjoin_right_blocked records why right compose was rejected.
        problem = problem_by_name("outerjoin_right_blocked").problem
        result = compose(problem)
        assert any(outcome.failure_reasons for outcome in result.outcomes)
        assert result_from_text(result_to_text(result)) == result

    def test_plan_and_phases_survive(self):
        problem = problem_by_name("glav_chain").problem
        result = compose(problem, ComposerConfig.cost_guided())
        back = result_from_text(result_to_text(result))
        assert back.plan == result.plan
        assert back.phase_seconds == result.phase_seconds
        assert back.components == result.components

    def test_malformed_outcome_rejected(self):
        text = (
            "# kind: result\n[sigma1]\nR/2\n[residual]\n[sigma3]\nS/2\n"
            "[constraints]\n[outcomes]\nR bogus view_unfolding 0.0\n"
        )
        with pytest.raises(ParseError):
            result_from_text(text)


class TestRecordKind:
    def test_declared_kinds(self, chain):
        assert parse_record(mapping_to_text(chain[0])).kind == "mapping"
        assert parse_record(chain_to_text(chain)).kind == "chain"
        assert parse_record(signature_to_text(chain[0].input_signature)).kind == "schema"

    def test_kindless_problem_format(self):
        problem = problem_by_name("example1_movies").problem
        record = parse_record(problem_to_text(problem))
        assert "kind" not in record.metadata
        assert record.kind == "problem"
        assert read_record(record).fingerprint() == problem.fingerprint()

    def test_unrecognizable_rejected(self):
        record = parse_record("[stuff]\nR/2\n")
        assert record.kind == ""
        with pytest.raises(ParseError, match="declares no '# kind:'"):
            read_record(record)


class TestReaderTable:
    def test_every_kind_reads_through_read_record(self, chain):
        problem = problem_by_name("example1_movies").problem
        result = compose(problem)
        delta_text = chain_delta_to_text(
            chain[2:], base_version=1, base_fingerprint="ab", prefix_hops=2
        )
        cases = [
            (signature_to_text(chain[0].input_signature), "schema", chain[0].input_signature),
            (mapping_to_text(chain[0]), "mapping", chain[0]),
            (chain_to_text(chain), "chain", tuple(chain)),
            (delta_text, "chain-delta", ChainDelta(1, "ab", 2, len(chain), tuple(chain[2:]))),
            (problem_to_text(problem), "problem", problem),
            (result_to_text(result), "result", result),
        ]
        for text, kind, expected in cases:
            record = parse_record(text)
            assert record.kind == kind
            assert read_record(record) == expected
            assert read_record(record, kind) == expected

    def test_declared_kind_must_match_the_expected_one(self, chain):
        record = parse_record(mapping_to_text(chain[0]))
        with pytest.raises(ParseError, match="expected a 'chain' record, found kind 'mapping'"):
            read_record(record, "chain")
        with pytest.raises(ParseError, match="expected a 'problem' record"):
            problem_from_text(mapping_to_text(chain[0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="unknown record kind 'table'"):
            read_record(parse_record("# kind: table\n[rows]\nR/2\n"))


class TestMetadataRule:
    """One rule for every kind: any key case, optional space before the
    colon, and the first occurrence of a key wins."""

    def test_first_name_wins_for_problems_too(self):
        text = problem_to_text(problem_by_name("example1_movies").problem)
        text = "# name: first\n# name: second\n" + text.replace("# name:", "# note:")
        assert problem_from_text(text).name == "first"
        assert parse_record(text).name == "first"

    def test_keys_match_in_any_case(self, chain):
        problem_text = "# Name: Movies\n# DESCRIPTION: any case\n[sigma12]\n"
        problem = problem_from_text(problem_text)
        assert (problem.name, problem.description) == ("Movies", "any case")
        mapping_text = mapping_to_text(chain[0]).replace("# kind:", "# Kind :")
        assert mapping_from_text("# Name : m\n" + mapping_text) == chain[0]
        assert parse_record("# Name : m\n" + mapping_text).name == "m"

    def test_empty_section_header_rejected_for_problems(self):
        with pytest.raises(ParseError, match=r"empty section header '\[\]'"):
            problem_from_text("[sigma1]\nR/2\n[]\n")
