"""Plain-text records: problems, schemas, mappings, chains and results.

:mod:`repro.textio.format` reproduces the paper's distribution format for
*composition problems*.  The mapping catalog needs to persist more than
problems — named schemas, individual mappings, whole mapping chains, and
composed results with their plan/phase bookkeeping — so this module extends
the same syntax into a small family of *records*.  A record is metadata
comments followed by named sections::

    # kind: mapping
    # name: orders_v1_to_v2
    # description: drop the discontinued column
    [input]
    Orders/4 key=0
    [output]
    Orders_v2/3 key=0
    [constraints]
    project[0,1,2](Orders/4) = Orders_v2/3

:func:`parse_record` is the one scanner: it splits a text, once, into
``# key: value`` metadata comments (keys in any case, optional whitespace
before the colon, first occurrence wins) and sections.  A kind-less text
with a ``[sigma12]`` section is a ``problem``, the paper's format.
:func:`read_record` reads every kind through one table of readers.  Relation declarations are ``name/arity`` with
the optional ``key=i,j`` suffix; constraints use the expression syntax of
:mod:`repro.algebra.printer`.  Every serializer round-trips: parsing the
emitted text reconstructs an equal object (results included — per-symbol
outcomes, failure reasons, plan and phase timings all survive).

Floats are written with ``repr`` so timings survive the round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.parser import _Reader
from repro.compose.result import CompositionResult, EliminationMethod, EliminationOutcome
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import ParseError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.schema.signature import RelationSchema, Signature

__all__ = [
    "Record",
    "parse_record",
    "read_record",
    "signature_to_text",
    "signature_from_text",
    "mapping_to_text",
    "mapping_from_text",
    "chain_to_text",
    "chain_from_text",
    "ChainDelta",
    "chain_delta_to_text",
    "chain_delta_from_text",
    "result_to_text",
    "result_from_text",
]

#: The rest of a ``# key: value`` metadata comment after its ``#``.
_METADATA_RE = re.compile(r"\s*([a-z][a-z0-9-]*)\s*:\s*(.*)", re.IGNORECASE)


@dataclass
class Record:
    """A parsed record: metadata plus named sections of non-empty lines."""

    metadata: Dict[str, str] = field(default_factory=dict)
    sections: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The declared ``# kind:``, else ``problem`` if there is a ``[sigma12]``, else ``""``."""
        kind = self.metadata.get("kind", "")
        if not kind and "sigma12" in self.sections:
            return "problem"
        return kind

    @property
    def name(self) -> str:
        return self.metadata.get("name", "")

    @property
    def description(self) -> str:
        return self.metadata.get("description", "")

    def require_kind(self) -> str:
        """:attr:`kind`, or a :class:`ParseError` for a text that declares no
        kind and is not a composition problem."""
        kind = self.kind
        if not kind:
            raise ParseError("record declares no '# kind:' and is not a composition problem")
        return kind

    def section(self, name: str) -> List[str]:
        """The named section's lines; a missing section is an error."""
        try:
            return self.sections[name]
        except KeyError:
            raise ParseError(f"record is missing the [{name}] section") from None


def parse_record(text: str) -> Record:
    """Split ``text`` into metadata comments and sections (contents verbatim)."""
    metadata: Dict[str, str] = {}
    sections: Dict[str, List[str]] = {}
    current: Optional[List[str]] = None
    match_metadata = _METADATA_RE.match
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        first = line[0]
        if first == "#":
            # Comment lines that are not ``key: value`` are plain comments.
            match = match_metadata(line, 1)
            if match:
                metadata.setdefault(match.group(1).lower(), match.group(2))
            continue
        if first == "[" and line[-1] == "]":
            header = line[1:-1].strip()
            if not header:
                raise ParseError("empty section header '[]'")
            current = sections.setdefault(header, [])
            continue
        if current is None:
            raise ParseError(f"content outside any section: {line!r}")
        current.append(line)
    return Record(metadata, sections)


def read_record(record: Record, kind: Optional[str] = None):
    """Read a parsed record into its object, through the one reader table.

    ``kind`` is the kind the caller expects (a record that declares another
    is a :class:`ParseError`); without it, :attr:`Record.kind` picks the
    reader.  A chain reads as a tuple of mappings, a delta as a
    :class:`ChainDelta`, every other kind as its own class.
    """
    if kind is None:
        kind = record.require_kind()
    else:
        declared = record.metadata.get("kind")
        if declared and declared != kind:
            raise ParseError(f"expected a {kind!r} record, found kind {declared!r}")
    try:
        reader = _READERS[kind]
    except KeyError:
        raise ParseError(f"unknown record kind {kind!r}") from None
    return reader(record)


def _metadata_value(key: str, value: str) -> str:
    # Metadata rides on single comment lines; any line break splitlines()
    # honours would dump the rest outside any section and make the record
    # unparseable, and the reader strips the whitespace around a value, so
    # reject both before anything reaches disk.
    if value and value.splitlines() != [value]:
        raise ParseError(f"metadata value for {key!r} must be a single line: {value!r}")
    if value != value.strip():
        raise ParseError(
            f"metadata value for {key!r} must not start or end with whitespace: {value!r}"
        )
    return value


def _metadata_lines(kind: str, name: str, description: str, extra: Sequence[Tuple[str, str]] = ()) -> List[str]:
    """The metadata comments; an empty ``kind`` writes no ``# kind:`` line."""
    lines = [f"# kind: {kind}"] if kind else []
    if name:
        lines.append(f"# name: {_metadata_value('name', name)}")
    if description:
        lines.append(f"# description: {_metadata_value('description', description)}")
    for key, value in extra:
        lines.append(f"# {key}: {_metadata_value(key, value)}")
    return lines


def _signature_section(header: str, signature: Signature) -> List[str]:
    lines = [f"[{header}]"]
    for schema in signature.relations():
        line = f"{schema.name}/{schema.arity}"
        if schema.key is not None:
            line += " key=" + ",".join(str(i) for i in schema.key)
        lines.append(line)
    return lines


def _constraint_section(header: str, constraints) -> List[str]:
    return [f"[{header}]"] + [str(constraint) for constraint in constraints]


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


def _parse_signature(lines: Sequence[str]) -> Signature:
    return Signature([_parse_relation_line(line) for line in lines])


def _parse_constraints(lines: Sequence[str], reader: _Reader) -> ConstraintSet:
    """Parse one constraint per line; ``reader`` holds the record's leaf table."""
    return ConstraintSet([reader.constraint_line(line) for line in lines])


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def signature_to_text(signature: Signature, name: str = "", description: str = "") -> str:
    """Serialize a signature as a ``schema`` record."""
    lines = _metadata_lines("schema", name, description)
    lines.extend(_signature_section("relations", signature))
    return "\n".join(lines) + "\n"


def signature_from_text(text: str) -> Signature:
    """Parse a ``schema`` record back into a :class:`Signature`."""
    return read_record(parse_record(text), "schema")


def _read_schema(record: Record) -> Signature:
    return _parse_signature(record.section("relations"))


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------


def mapping_to_text(mapping: Mapping, name: str = "", description: str = "") -> str:
    """Serialize a mapping as a ``mapping`` record."""
    lines = _metadata_lines("mapping", name, description)
    lines.extend(_signature_section("input", mapping.input_signature))
    lines.extend(_signature_section("output", mapping.output_signature))
    lines.extend(_constraint_section("constraints", mapping.constraints))
    return "\n".join(lines) + "\n"


def mapping_from_text(text: str) -> Mapping:
    """Parse a ``mapping`` record back into a :class:`Mapping`."""
    return read_record(parse_record(text), "mapping")


def _read_mapping(record: Record) -> Mapping:
    return Mapping(
        input_signature=_parse_signature(record.section("input")),
        output_signature=_parse_signature(record.section("output")),
        constraints=_parse_constraints(record.section("constraints"), _Reader()),
    )


# ---------------------------------------------------------------------------
# Problems (the paper's format; the writer is repro.textio.format's)
# ---------------------------------------------------------------------------

_PROBLEM_SECTIONS = ("sigma1", "sigma2", "sigma3", "sigma12", "sigma23")


def _read_problem(record: Record) -> CompositionProblem:
    """A missing section reads as empty; both constraint sets share one leaf table."""
    sections = record.sections
    for header in sections:
        if header not in _PROBLEM_SECTIONS:
            raise ParseError(f"unknown section {header!r}")
    reader = _Reader()
    return CompositionProblem(
        sigma1=_parse_signature(sections.get("sigma1", ())),
        sigma2=_parse_signature(sections.get("sigma2", ())),
        sigma3=_parse_signature(sections.get("sigma3", ())),
        sigma12=_parse_constraints(sections.get("sigma12", ()), reader),
        sigma23=_parse_constraints(sections.get("sigma23", ()), reader),
        name=record.name,
        description=record.description,
    )


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def _chain_sections(mappings: Sequence[Mapping], what: str) -> List[str]:
    """A chain's interleaved sections: ``n + 1`` ``[schema.i]`` and ``n``
    ``[constraints.i]`` (constraints ``i`` relate schema ``i`` to ``i + 1``)."""
    for index in range(len(mappings) - 1):
        if mappings[index].output_signature != mappings[index + 1].input_signature:
            raise ParseError(
                f"{what} breaks between mappings {index} and {index + 1}; "
                "adjacent mappings must share their middle signature"
            )
    lines: List[str] = []
    for index, mapping in enumerate(mappings):
        lines.extend(_signature_section(f"schema.{index}", mapping.input_signature))
        lines.extend(_constraint_section(f"constraints.{index}", mapping.constraints))
    lines.extend(_signature_section(f"schema.{len(mappings)}", mappings[-1].output_signature))
    return lines


def chain_to_text(
    mappings: Sequence[Mapping], name: str = "", description: str = ""
) -> str:
    """Serialize a chain of mappings, each sharing its middle signature with
    the next, as one ``chain`` record."""
    if not mappings:
        raise ParseError("cannot serialize an empty chain of mappings")
    sections = _chain_sections(mappings, "chain")
    lines = _metadata_lines(
        "chain", name, description, extra=(("length", str(len(mappings))),)
    )
    return "\n".join(lines + sections) + "\n"


def _read_chain(record: Record, length_key: str = "length") -> Tuple[Mapping, ...]:
    # The sections are authoritative; the length metadata (a delta's is
    # ``suffix-length``) is only a cross-check (a truncated or hand-edited
    # record must fail loudly, not silently drop mappings).
    declared_length = record.metadata.get(length_key)
    length = sum(1 for key in record.sections if key.startswith("constraints."))
    if length < 1:
        raise ParseError("chain record declares no mappings")
    if declared_length is not None and declared_length != str(length):
        raise ParseError(
            f"chain record declares length {declared_length} but has {length} "
            "constraint sections"
        )
    signatures = [
        _parse_signature(record.section(f"schema.{index}")) for index in range(length + 1)
    ]
    reader = _Reader()
    return tuple(
        Mapping(
            input_signature=signatures[index],
            output_signature=signatures[index + 1],
            constraints=_parse_constraints(record.section(f"constraints.{index}"), reader),
        )
        for index in range(length)
    )


def chain_from_text(text: str) -> Tuple[Mapping, ...]:
    """Parse a ``chain`` record back into its tuple of mappings."""
    return read_record(parse_record(text), "chain")


# ---------------------------------------------------------------------------
# Chain deltas
#
# An n-edit evolution history stores n chain versions whose bodies are almost
# identical — the full-record layout costs O(n^2) hops of text across the
# history.  A ``chain-delta`` record stores one version as a reference to an
# earlier stored version (its catalog version number and content fingerprint)
# plus only the mappings after the shared prefix, making the whole history
# O(n) hops of text.  The suffix is serialized with the same interleaved
# schema/constraints sections as a full chain record, so the two formats
# share their writer and their parser.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainDelta:
    """A parsed ``chain-delta`` record: base reference plus replacement suffix.

    The represented chain is ``base[:prefix_hops] + suffix`` where ``base``
    is the chain stored as version ``base_version`` of the same catalog
    entry (whose full-chain fingerprint must equal ``base_fingerprint``).
    """

    base_version: int
    base_fingerprint: str
    prefix_hops: int
    length: int
    suffix: Tuple[Mapping, ...]


def chain_delta_to_text(
    suffix: Sequence[Mapping],
    base_version: int,
    base_fingerprint: str,
    prefix_hops: int,
    name: str = "",
    description: str = "",
) -> str:
    """Serialize a chain version as a delta against an earlier version."""
    suffix = tuple(suffix)
    if not suffix:
        raise ParseError("a chain delta must carry at least one suffix mapping")
    if prefix_hops < 1:
        raise ParseError("a chain delta must share at least one prefix hop")
    sections = _chain_sections(suffix, "delta suffix")
    lines = _metadata_lines(
        "chain-delta",
        name,
        description,
        extra=(
            ("base-version", str(base_version)),
            ("base-fingerprint", base_fingerprint),
            ("prefix-hops", str(prefix_hops)),
            ("suffix-length", str(len(suffix))),
        ),
    )
    return "\n".join(lines + sections) + "\n"


def chain_delta_from_text(text: str) -> ChainDelta:
    """Parse a ``chain-delta`` record back into its :class:`ChainDelta`."""
    return read_record(parse_record(text), "chain-delta")


def _read_chain_delta(record: Record) -> ChainDelta:
    try:
        base_version = int(record.metadata["base-version"])
        prefix_hops = int(record.metadata["prefix-hops"])
    except KeyError as exc:
        raise ParseError(f"chain-delta record is missing the {exc.args[0]!r} metadata") from None
    except ValueError as exc:
        raise ParseError(f"chain-delta record has malformed metadata: {exc}") from None
    base_fingerprint = record.metadata.get("base-fingerprint", "")
    if not base_fingerprint:
        raise ParseError("chain-delta record is missing the 'base-fingerprint' metadata")
    if base_version < 1 or prefix_hops < 1:
        raise ParseError("chain-delta base-version and prefix-hops must be positive")
    suffix = _read_chain(record, "suffix-length")
    return ChainDelta(
        base_version=base_version,
        base_fingerprint=base_fingerprint,
        prefix_hops=prefix_hops,
        length=prefix_hops + len(suffix),
        suffix=suffix,
    )


# ---------------------------------------------------------------------------
# Composition results
# ---------------------------------------------------------------------------

_STATUS = {True: "eliminated", False: "kept"}
_STATUS_BACK = {text: flag for flag, text in _STATUS.items()}


def _outcome_lines(outcome: EliminationOutcome) -> List[str]:
    parts = [
        outcome.symbol,
        _STATUS[outcome.success],
        outcome.method.value,
        repr(outcome.duration_seconds),
    ]
    if outcome.blowup_aborted:
        parts.append("blowup")
    lines = [" ".join(parts)]
    # Failure reasons are free text; each rides on a '- ' continuation line
    # attached to the preceding outcome.
    lines.extend(f"- {reason}" for reason in outcome.failure_reasons)
    return lines


def _parse_outcomes(lines: Sequence[str]) -> Tuple[EliminationOutcome, ...]:
    outcomes: List[EliminationOutcome] = []
    reasons: List[List[str]] = []
    for line in lines:
        if line.startswith("- "):
            if not outcomes:
                raise ParseError(f"failure reason before any outcome line: {line!r}")
            reasons[-1].append(line[2:])
            continue
        parts = line.split()
        if len(parts) not in (4, 5) or (len(parts) == 5 and parts[4] != "blowup"):
            raise ParseError(f"malformed outcome line {line!r}")
        symbol, status, method, seconds = parts[:4]
        if status not in _STATUS_BACK:
            raise ParseError(f"unknown outcome status {status!r} in {line!r}")
        try:
            method_value = EliminationMethod(method)
        except ValueError:
            raise ParseError(f"unknown elimination method {method!r} in {line!r}") from None
        try:
            duration = float(seconds)
        except ValueError:
            raise ParseError(f"invalid duration in outcome line {line!r}") from None
        outcomes.append(
            EliminationOutcome(
                symbol=symbol,
                success=_STATUS_BACK[status],
                method=method_value,
                duration_seconds=duration,
                blowup_aborted=len(parts) == 5,
            )
        )
        reasons.append([])
    return tuple(
        outcome
        if not attached
        else EliminationOutcome(
            symbol=outcome.symbol,
            success=outcome.success,
            method=outcome.method,
            duration_seconds=outcome.duration_seconds,
            failure_reasons=tuple(attached),
            blowup_aborted=outcome.blowup_aborted,
        )
        for outcome, attached in zip(outcomes, reasons)
    )


def result_to_text(
    result: CompositionResult, name: str = "", description: str = ""
) -> str:
    """Serialize a :class:`CompositionResult` as a ``result`` record.

    Everything the result carries is persisted: signatures, constraints,
    per-symbol outcomes (with their failure reasons), the planner's component
    orders, and the per-phase timing buckets.
    """
    extra = [
        ("elapsed-seconds", repr(result.elapsed_seconds)),
        ("input-operators", str(result.input_operator_count)),
        ("output-operators", str(result.output_operator_count)),
        ("components", str(result.components)),
        ("reorderings", str(result.reorderings)),
    ]
    lines = _metadata_lines("result", name, description, extra=extra)
    lines.extend(_signature_section("sigma1", result.sigma1))
    lines.extend(_signature_section("residual", result.residual_sigma2))
    lines.extend(_signature_section("sigma3", result.sigma3))
    lines.extend(_constraint_section("constraints", result.constraints))
    lines.append("[outcomes]")
    for outcome in result.outcomes:
        lines.extend(_outcome_lines(outcome))
    lines.append("[plan]")
    lines.extend(",".join(component) for component in result.plan)
    lines.append("[phases]")
    lines.extend(f"{phase} {repr(seconds)}" for phase, seconds in result.phase_seconds)
    return "\n".join(lines) + "\n"


def result_from_text(text: str) -> CompositionResult:
    """Parse a ``result`` record back into a :class:`CompositionResult`."""
    return read_record(parse_record(text), "result")


def _read_result(record: Record) -> CompositionResult:
    def _float_meta(key: str) -> float:
        try:
            return float(record.metadata.get(key, "0"))
        except ValueError:
            raise ParseError(f"invalid float metadata '# {key}:'") from None

    def _int_meta(key: str) -> int:
        try:
            return int(record.metadata.get(key, "0"))
        except ValueError:
            raise ParseError(f"invalid integer metadata '# {key}:'") from None

    phases: List[Tuple[str, float]] = []
    for line in record.sections.get("phases", []):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"malformed phase line {line!r}")
        try:
            phases.append((parts[0], float(parts[1])))
        except ValueError:
            raise ParseError(f"invalid seconds in phase line {line!r}") from None

    return CompositionResult(
        sigma1=_parse_signature(record.section("sigma1")),
        sigma3=_parse_signature(record.section("sigma3")),
        residual_sigma2=_parse_signature(record.section("residual")),
        constraints=_parse_constraints(record.section("constraints"), _Reader()),
        outcomes=_parse_outcomes(record.sections.get("outcomes", [])),
        elapsed_seconds=_float_meta("elapsed-seconds"),
        input_operator_count=_int_meta("input-operators"),
        output_operator_count=_int_meta("output-operators"),
        phase_seconds=tuple(phases),
        plan=tuple(
            tuple(symbol for symbol in line.split(",") if symbol)
            for line in record.sections.get("plan", [])
        ),
        components=_int_meta("components"),
        reorderings=_int_meta("reorderings"),
    )


#: The one reader table: each record kind's reader over a parsed record.
_READERS: Dict[str, Callable[[Record], object]] = {
    "schema": _read_schema,
    "mapping": _read_mapping,
    "chain": _read_chain,
    "chain-delta": _read_chain_delta,
    "problem": _read_problem,
    "result": _read_result,
}
