"""Tests for the plain-text composition-problem format."""

import pytest

from repro.compose.composer import compose
from repro.exceptions import ParseError
from repro.literature.problems import all_problems, problem_by_name
from repro.textio.format import problem_from_text, problem_to_text, read_problem, write_problem


class TestRoundTrip:
    def test_simple_problem_roundtrip(self):
        problem = problem_by_name("example3_inclusion_chain").problem
        text = problem_to_text(problem)
        parsed = problem_from_text(text)
        assert parsed.sigma1 == problem.sigma1
        assert parsed.sigma2 == problem.sigma2
        assert parsed.sigma3 == problem.sigma3
        assert parsed.sigma12 == problem.sigma12
        assert parsed.sigma23 == problem.sigma23
        assert parsed.name == problem.name

    @pytest.mark.parametrize(
        "name", [literature_problem.name for literature_problem in all_problems()]
    )
    def test_literature_problems_roundtrip(self, name):
        problem = problem_by_name(name).problem
        parsed = problem_from_text(problem_to_text(problem))
        assert parsed.sigma12 == problem.sigma12
        assert parsed.sigma23 == problem.sigma23
        assert parsed.fingerprint() == problem.fingerprint()

    def test_roundtrip_preserves_composition_outcome(self):
        problem = problem_by_name("example1_movies").problem
        parsed = problem_from_text(problem_to_text(problem))
        assert compose(parsed).is_complete == compose(problem).is_complete

    def test_file_io(self, tmp_path):
        problem = problem_by_name("glav_chain").problem
        path = tmp_path / "problem.txt"
        write_problem(problem, path)
        loaded = read_problem(path)
        assert loaded.sigma12 == problem.sigma12

    def test_keys_serialized(self, tmp_path):
        problem = problem_by_name("vertical_partition_roundtrip").problem
        text = problem_to_text(problem)
        parsed = problem_from_text(text)
        assert parsed.sigma1.key_of("R") == problem.sigma1.key_of("R")


class TestErrors:
    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            problem_from_text("[sigma9]\nR/2\n")

    def test_content_outside_section_rejected(self):
        with pytest.raises(ParseError):
            problem_from_text("R/2\n[sigma1]\n")

    def test_bad_relation_declaration_rejected(self):
        with pytest.raises(ParseError):
            problem_from_text("[sigma1]\nR\n[sigma2]\n[sigma3]\n[sigma12]\n[sigma23]\n")

    def test_bad_arity_rejected(self):
        with pytest.raises(ParseError):
            problem_from_text("[sigma1]\nR/x\n[sigma2]\n[sigma3]\n[sigma12]\n[sigma23]\n")

    def test_unexpected_token_in_relation_line(self):
        with pytest.raises(ParseError):
            problem_from_text("[sigma1]\nR/2 foo=1\n[sigma2]\n[sigma3]\n[sigma12]\n[sigma23]\n")

    def test_metadata_parsed_from_comments(self):
        text = (
            "# name: demo\n# description: a demo problem\n"
            "[sigma1]\nR/2\n[sigma2]\nS/2\n[sigma3]\nT/2\n"
            "[sigma12]\nR/2 <= S/2\n[sigma23]\nS/2 <= T/2\n"
        )
        problem = problem_from_text(text)
        assert problem.name == "demo"
        assert problem.description == "a demo problem"
