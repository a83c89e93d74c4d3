"""Plain-text serialization: the paper's task format plus catalog records.

:mod:`repro.textio.format` is the paper's distribution format for composition
problems; :mod:`repro.textio.records` extends the same syntax to the other
objects the mapping catalog persists — schemas, mappings, chains and composed
results — and holds the one scanner (:func:`parse_record`) and the one reader
table (:func:`read_record`) that every kind is read through.
"""

from repro.textio.format import problem_from_text, problem_to_text, read_problem, write_problem
from repro.textio.records import (
    Record,
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

__all__ = [
    "problem_to_text",
    "problem_from_text",
    "write_problem",
    "read_problem",
    "Record",
    "parse_record",
    "read_record",
    "signature_to_text",
    "signature_from_text",
    "mapping_to_text",
    "mapping_from_text",
    "chain_to_text",
    "chain_from_text",
    "result_to_text",
    "result_from_text",
]
