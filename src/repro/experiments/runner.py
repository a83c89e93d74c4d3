"""Shared infrastructure for the experiment drivers.

The paper's schema-editing experiments examine four configurations of the
algorithm/simulator pair ('no keys', 'keys', 'no unfolding', 'no right
compose'); :data:`STANDARD_CONFIGURATIONS` captures them, and
:class:`EditingStudy` runs a number of editing-scenario runs for each and
keeps the raw per-run results that Figures 2, 3 and 4 aggregate differently.

All experiment parameters default to a *scaled-down* workload so that the
benchmark suite completes in minutes on a laptop; the paper-scale parameters
(100 runs of 100 edits over schemas of size 30) are available through
``paper_scale=True`` or by passing the numbers explicitly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compose.config import ComposerConfig
from repro.engine.batch import BatchComposer
from repro.evolution.config import SimulatorConfig
from repro.evolution.event_vector import EventVector
from repro.evolution.scenarios import (
    EditingScenarioResult,
    run_editing_scenario,
    run_reconciliation_scenario,
)

__all__ = [
    "ExperimentConfiguration",
    "STANDARD_CONFIGURATIONS",
    "EditingStudy",
    "planner_configurations",
    "run_editing_study",
    "median",
    "mean",
]


def median(values: Sequence[float]) -> float:
    """Median of a sequence (0.0 for an empty one)."""
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """Mean of a sequence (0.0 for an empty one)."""
    return statistics.fmean(values) if values else 0.0


@dataclass(frozen=True)
class ExperimentConfiguration:
    """One named column of the paper's editing experiments."""

    name: str
    simulator_config: SimulatorConfig
    composer_config: ComposerConfig

    def __repr__(self) -> str:
        return f"<ExperimentConfiguration {self.name!r}>"


def _standard_configurations() -> Tuple[ExperimentConfiguration, ...]:
    return (
        ExperimentConfiguration(
            "no keys", SimulatorConfig.no_keys(), ComposerConfig.default()
        ),
        ExperimentConfiguration(
            "keys", SimulatorConfig.with_keys(), ComposerConfig.default()
        ),
        ExperimentConfiguration(
            "no unfolding", SimulatorConfig.no_keys(), ComposerConfig.no_view_unfolding()
        ),
        ExperimentConfiguration(
            "no right compose", SimulatorConfig.no_keys(), ComposerConfig.no_right_compose()
        ),
    )


#: The four configurations of Figures 2 and 3.
STANDARD_CONFIGURATIONS: Tuple[ExperimentConfiguration, ...] = _standard_configurations()


def planner_configurations() -> Tuple[ExperimentConfiguration, ...]:
    """The standard configurations plus a cost-guided planner column.

    Not part of :data:`STANDARD_CONFIGURATIONS` (the figures reproduce the
    paper's fixed-order algorithm); pass this to :func:`run_editing_study` to
    ablate the planner (:mod:`repro.compose.planner`) against the paper's
    columns on the same editing workload.
    """
    return STANDARD_CONFIGURATIONS + (
        ExperimentConfiguration(
            "cost planner", SimulatorConfig.no_keys(), ComposerConfig.cost_guided()
        ),
    )


@dataclass
class EditingStudy:
    """Raw results of repeated schema-editing runs for several configurations."""

    schema_size: int
    num_edits: int
    runs: int
    results: Dict[str, List[EditingScenarioResult]] = field(default_factory=dict)

    def configurations(self) -> Tuple[str, ...]:
        return tuple(self.results)

    # -- aggregations used by Figures 2-4 -------------------------------------------

    def fraction_by_primitive(self, configuration: str) -> Dict[str, float]:
        """Mean per-primitive elimination fraction across runs (Figure 2)."""
        attempted: Dict[str, int] = {}
        eliminated: Dict[str, int] = {}
        for result in self.results[configuration]:
            for record in result.records:
                if not record.consumed_symbols:
                    continue
                attempted[record.primitive] = attempted.get(record.primitive, 0) + len(
                    record.consumed_symbols
                )
                eliminated[record.primitive] = eliminated.get(record.primitive, 0) + len(
                    record.consumed_eliminated
                )
        return {
            primitive: eliminated.get(primitive, 0) / count
            for primitive, count in attempted.items()
        }

    def time_per_edit_by_primitive(self, configuration: str) -> Dict[str, float]:
        """Mean per-primitive composition time in milliseconds (Figure 3)."""
        durations: Dict[str, List[float]] = {}
        for result in self.results[configuration]:
            for record in result.records:
                durations.setdefault(record.primitive, []).append(record.duration_seconds)
        return {
            primitive: 1000.0 * mean(values) for primitive, values in durations.items()
        }

    def run_durations(self, configuration: str) -> List[float]:
        """Total composition time of each run, in seconds (Figure 4)."""
        return [result.total_duration() for result in self.results[configuration]]

    def median_run_duration(self, configuration: str) -> float:
        """Median per-run composition time (the statistic the paper reports)."""
        return median(self.run_durations(configuration))

    def total_fraction_eliminated(self, configuration: str) -> float:
        """Overall fraction of consumed symbols eliminated across all runs."""
        attempted = 0
        eliminated = 0
        for result in self.results[configuration]:
            for record in result.records:
                attempted += len(record.consumed_symbols)
                eliminated += len(record.consumed_eliminated)
        return eliminated / attempted if attempted else 1.0

    def mean_constraint_stats(self, configuration: str) -> Tuple[float, float]:
        """Mean (constraints, operators) of the final accumulated mappings."""
        constraint_counts = [
            len(result.constraints) for result in self.results[configuration]
        ]
        operator_counts = [
            result.constraints.operator_count() for result in self.results[configuration]
        ]
        return mean(constraint_counts), mean(operator_counts)


def _reconciliation_job(kwargs: dict):
    """Module-level reconciliation job (shared by the Figure 6 and 7 drivers)."""
    record, _ = run_reconciliation_scenario(**kwargs)
    return record


def run_editing_study(
    schema_size: int = 30,
    num_edits: int = 30,
    runs: int = 3,
    seed: int = 0,
    configurations: Optional[Sequence[ExperimentConfiguration]] = None,
    event_vector: Optional[EventVector] = None,
    paper_scale: bool = False,
    batch: Optional[BatchComposer] = None,
) -> EditingStudy:
    """Run the schema-editing study underlying Figures 2, 3 and 4.

    With ``paper_scale=True`` the paper's parameters are used (schema size 30,
    100 edits per run, 100 runs), which takes considerably longer.  All
    configuration × run combinations are independent (each run owns its seed),
    so they are dispatched as one batch through ``batch`` (a
    :class:`BatchComposer`; a default one when omitted), which runs them in
    order in this process with failure isolation.
    """
    if paper_scale:
        schema_size, num_edits, runs = 30, 100, 100
    configurations = tuple(configurations) if configurations else STANDARD_CONFIGURATIONS
    event_vector = event_vector or EventVector.default()
    batch = batch or BatchComposer()

    jobs = []
    labels = []
    for configuration in configurations:
        for run_index in range(runs):
            labels.append(f"{configuration.name}/run[{run_index}]")
            jobs.append(
                dict(
                    schema_size=schema_size,
                    num_edits=num_edits,
                    seed=seed + run_index,
                    simulator_config=configuration.simulator_config,
                    composer_config=configuration.composer_config,
                    event_vector=event_vector,
                )
            )
    report = batch.map(lambda kwargs: run_editing_scenario(**kwargs), jobs, labels=labels)
    report.raise_failures()

    study = EditingStudy(schema_size=schema_size, num_edits=num_edits, runs=runs)
    payloads = iter(item.result for item in report.items)
    for configuration in configurations:
        study.results[configuration.name] = [next(payloads) for _ in range(runs)]
    return study
