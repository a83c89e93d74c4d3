"""Extended plain-text records: schemas, mappings, chains and results.

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

Metadata comments are ``# key: value`` lines (the ``name``/``description``
keys are exactly the ones :mod:`repro.textio.format` already understands);
relation declarations are ``name/arity`` with the optional ``key=i,j``
suffix; constraints use the expression syntax of
:mod:`repro.algebra.printer`.  Every serializer here round-trips: parsing the
emitted text reconstructs an equal object (results included — per-symbol
outcomes, failure reasons, plan and phase timings all survive).

Floats are written with ``repr`` so timings survive the round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.parser import _Reader
from repro.compose.result import CompositionResult, EliminationMethod, EliminationOutcome
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import ParseError
from repro.mapping.mapping import Mapping
from repro.schema.signature import Signature
from repro.textio.format import _parse_signature, _signature_to_lines

__all__ = [
    "Record",
    "parse_record",
    "detect_kind",
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

#: ``# key: value`` metadata comment; keys are lowercase kebab-case words.
_METADATA_RE = re.compile(r"^([a-z][a-z0-9-]*)\s*:\s*(.*)$")


@dataclass
class Record:
    """A parsed record: metadata plus named sections of non-empty lines."""

    metadata: Dict[str, str] = field(default_factory=dict)
    sections: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.metadata.get("kind", "")

    @property
    def name(self) -> str:
        return self.metadata.get("name", "")

    @property
    def description(self) -> str:
        return self.metadata.get("description", "")

    def section(self, name: str) -> List[str]:
        """The named section's lines; a missing section is an error."""
        try:
            return self.sections[name]
        except KeyError:
            raise ParseError(f"record is missing the [{name}] section") from None

    def expect_kind(self, expected: str) -> None:
        """Fail unless the record's declared kind is ``expected`` (or absent)."""
        if self.kind and self.kind != expected:
            raise ParseError(
                f"expected a {expected!r} record, found kind {self.kind!r}"
            )


def parse_record(text: str) -> Record:
    """Parse metadata comments and sections (section contents stay verbatim)."""
    record = Record()
    current: Optional[str] = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _METADATA_RE.match(line[1:].strip())
            # First occurrence wins, matching format.py's name/description
            # handling; non-matching comment lines are plain comments.
            if match and match.group(1) not in record.metadata:
                record.metadata[match.group(1)] = match.group(2).strip()
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ParseError("empty section header '[]'")
            record.sections.setdefault(current, [])
            continue
        if current is None:
            raise ParseError(f"content outside any section: {line!r}")
        record.sections[current].append(line)
    return record


def detect_kind(text: str) -> str:
    """The record kind declared in ``text``.

    Falls back to ``"problem"`` for kind-less texts in the original
    distribution format of :mod:`repro.textio.format` (recognized by their
    ``[sigma12]`` section), so the catalog and CLI can ingest the paper's
    task files unchanged.
    """
    record = parse_record(text)
    if record.kind:
        return record.kind
    if "sigma12" in record.sections:
        return "problem"
    raise ParseError("record declares no '# kind:' and is not a composition problem")


def _metadata_value(key: str, value: str) -> str:
    # Metadata rides on single comment lines; an embedded newline would dump
    # the remainder outside any section and make the record unparseable, so
    # reject it before anything reaches disk.
    if "\n" in value or "\r" in value:
        raise ParseError(f"metadata value for {key!r} must be a single line: {value!r}")
    return value


def _metadata_lines(kind: str, name: str, description: str, extra: Sequence[Tuple[str, str]] = ()) -> List[str]:
    lines = [f"# kind: {kind}"]
    if name:
        lines.append(f"# name: {_metadata_value('name', name)}")
    if description:
        lines.append(f"# description: {_metadata_value('description', description)}")
    for key, value in extra:
        lines.append(f"# {key}: {_metadata_value(key, value)}")
    return lines


def _signature_section(header: str, signature: Signature) -> List[str]:
    return [f"[{header}]"] + _signature_to_lines(signature)


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
    record = parse_record(text)
    record.expect_kind("schema")
    return _parse_signature(record.section("relations"))


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------


def mapping_to_text(mapping: Mapping, name: str = "", description: str = "") -> str:
    """Serialize a mapping as a ``mapping`` record."""
    lines = _metadata_lines("mapping", name, description)
    lines.extend(_signature_section("input", mapping.input_signature))
    lines.extend(_signature_section("output", mapping.output_signature))
    lines.append("[constraints]")
    lines.extend(str(constraint) for constraint in mapping.constraints)
    return "\n".join(lines) + "\n"


def mapping_from_text(text: str) -> Mapping:
    """Parse a ``mapping`` record back into a :class:`Mapping`."""
    record = parse_record(text)
    record.expect_kind("mapping")
    return Mapping(
        input_signature=_parse_signature(record.section("input")),
        output_signature=_parse_signature(record.section("output")),
        constraints=_parse_constraints(record.section("constraints"), _Reader()),
    )


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def chain_to_text(
    mappings: Sequence[Mapping], name: str = "", description: str = ""
) -> str:
    """Serialize a chain of mappings as one ``chain`` record.

    Adjacent mappings share their middle signature, so a chain of ``n``
    mappings is written as ``n + 1`` ``[schema.i]`` sections interleaved with
    ``n`` ``[constraints.i]`` sections (constraints ``i`` relate schema ``i``
    to schema ``i + 1``).
    """
    if not mappings:
        raise ParseError("cannot serialize an empty chain of mappings")
    for index in range(len(mappings) - 1):
        if mappings[index].output_signature != mappings[index + 1].input_signature:
            raise ParseError(
                f"chain breaks between mappings {index} and {index + 1}; "
                "adjacent mappings must share their middle signature"
            )
    lines = _metadata_lines(
        "chain", name, description, extra=(("length", str(len(mappings))),)
    )
    for index, mapping in enumerate(mappings):
        lines.extend(_signature_section(f"schema.{index}", mapping.input_signature))
        lines.append(f"[constraints.{index}]")
        lines.extend(str(constraint) for constraint in mapping.constraints)
    lines.extend(_signature_section(f"schema.{len(mappings)}", mappings[-1].output_signature))
    return "\n".join(lines) + "\n"


def _chain_mappings_from_record(record: Record, declared_length: Optional[str]) -> Tuple[Mapping, ...]:
    # The sections are authoritative; the length metadata is only a
    # cross-check (a truncated or hand-edited record must fail loudly, not
    # silently drop mappings).
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
    record = parse_record(text)
    record.expect_kind("chain")
    return _chain_mappings_from_record(record, record.metadata.get("length"))


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
# share their parser.
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
    for index in range(len(suffix) - 1):
        if suffix[index].output_signature != suffix[index + 1].input_signature:
            raise ParseError(
                f"delta suffix breaks between mappings {index} and {index + 1}; "
                "adjacent mappings must share their middle signature"
            )
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
    for index, mapping in enumerate(suffix):
        lines.extend(_signature_section(f"schema.{index}", mapping.input_signature))
        lines.append(f"[constraints.{index}]")
        lines.extend(str(constraint) for constraint in mapping.constraints)
    lines.extend(_signature_section(f"schema.{len(suffix)}", suffix[-1].output_signature))
    return "\n".join(lines) + "\n"


def chain_delta_from_text(text: str) -> ChainDelta:
    """Parse a ``chain-delta`` record back into its :class:`ChainDelta`."""
    record = parse_record(text)
    record.expect_kind("chain-delta")
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
    suffix = _chain_mappings_from_record(record, record.metadata.get("suffix-length"))
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
    lines.append("[constraints]")
    lines.extend(str(constraint) for constraint in result.constraints)
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
    record = parse_record(text)
    record.expect_kind("result")

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
