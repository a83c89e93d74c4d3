"""Batch execution of composition problems.

The value of a best-effort composition algorithm shows at scale: hundreds of
problems drawn from an evolution simulator, figure sweeps re-running the same
scenario over a parameter grid, regression suites over a problem corpus.
:class:`BatchComposer` runs such workloads in-process and in submission order
through one engine with

* failure isolation: one crashing problem is recorded and the rest of the
  batch proceeds,
* a soft per-problem timeout: problems whose execution exceeds the budget are
  reported as timed out and their result discarded (cooperative — a running
  job is never interrupted),
* the cyclic garbage collector paused for the batch, and
* a shared hop-checkpoint store (:mod:`repro.engine.checkpoint`) so chains
  sharing a prefix recompose incrementally.

There is no thread or process pool.  Composition is GIL-bound pure Python, so
threads never speed it up, and a process pool pays for pickling every job's
constraint sets and loses the shared checkpoints: on 1- and 2-core hosts it
ran the planner's component workloads at 0.09–0.13× the serial loop.

There is no expression cache either.  The memos COMPOSE relies on ("already
simplified", "known to fail normalization") are stamps on the immutable
objects themselves (:mod:`repro.algebra.simplify`,
:mod:`repro.compose.failure_memo`), so a batch does the same work as its
jobs composed one by one through :func:`~repro.engine.chain.compose_chain`.

``BatchComposer.map`` is the generic engine; ``run`` (composition problems)
and ``run_chains`` (mapping chains) are the composition-aware entry points the
experiment drivers build on.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine.chain import compose_chain
from repro.engine.checkpoint import CheckpointStore
from repro.exceptions import EngineError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping

__all__ = [
    "BatchConfig",
    "ProblemStatus",
    "BatchItemResult",
    "BatchReport",
    "BatchComposer",
]


class ProblemStatus(enum.Enum):
    """Terminal state of one problem within a batch."""

    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class BatchConfig:
    """Tunable parameters of a :class:`BatchComposer`.

    Attributes
    ----------
    timeout_seconds:
        Soft per-problem wall-clock budget; a problem that runs longer is
        reported as :attr:`ProblemStatus.TIMED_OUT` and its result discarded.
        ``None`` disables the budget.
    composer_config:
        The :class:`ComposerConfig` used by ``run`` / ``run_chains``.
    share_checkpoints:
        Keep one hop-checkpoint store (:mod:`repro.engine.checkpoint`) on the
        composer and thread it through every ``run_chains`` job, so chains
        sharing a fingerprinted prefix — within one batch or across
        successive batches on the same composer, the schema-evolution
        edit-replay pattern — recompose incrementally.  The store keeps
        the default bound of :class:`~repro.engine.checkpoint.CheckpointStore`.
    fail_fast:
        Re-raise the first problem failure instead of isolating it.
    """

    timeout_seconds: Optional[float] = None
    composer_config: ComposerConfig = field(default_factory=ComposerConfig)
    share_checkpoints: bool = True
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and not self.timeout_seconds > 0:  # NaN fails too
            raise EngineError("timeout_seconds must be positive")


@dataclass(frozen=True)
class BatchItemResult:
    """The terminal record of one problem of a batch."""

    index: int
    label: str
    status: ProblemStatus
    result: Optional[object] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is ProblemStatus.SUCCEEDED

    def __repr__(self) -> str:
        return f"<BatchItemResult #{self.index} {self.label!r}: {self.status.value}>"


@dataclass(frozen=True)
class BatchReport:
    """Aggregate outcome of one batch run.

    ``cache_stats`` is always ``None`` (batches share no expression cache);
    the field is kept for readers that still look it up.
    """

    items: Tuple[BatchItemResult, ...]
    elapsed_seconds: float
    cache_stats: Optional[dict] = None
    #: The composer's hop-checkpoint store, if it has one.
    checkpoints: Optional[CheckpointStore] = field(default=None, repr=False, compare=False)

    @property
    def checkpoint_stats(self) -> Optional[dict]:
        """The checkpoint store's statistics, taken when read.

        Taken lazily because a persistent store counts its files on disk:
        a caller that never reads them (the service) never lists the
        directory.
        """
        return self.checkpoints.stats() if self.checkpoints is not None else None

    # -- aggregate statistics ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    @property
    def succeeded(self) -> Tuple[BatchItemResult, ...]:
        return tuple(item for item in self.items if item.status is ProblemStatus.SUCCEEDED)

    @property
    def failed(self) -> Tuple[BatchItemResult, ...]:
        return tuple(item for item in self.items if item.status is ProblemStatus.FAILED)

    @property
    def timed_out(self) -> Tuple[BatchItemResult, ...]:
        return tuple(item for item in self.items if item.status is ProblemStatus.TIMED_OUT)

    @property
    def all_succeeded(self) -> bool:
        return len(self.succeeded) == len(self.items)

    def results(self) -> List[object]:
        """Payloads of the successful items, in submission order."""
        return [item.result for item in self.succeeded]

    def throughput(self) -> float:
        """Problems completed per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.items) / self.elapsed_seconds

    def total_problem_seconds(self) -> float:
        """Sum of per-problem execution times (the wall time minus batch overhead)."""
        return sum(item.elapsed_seconds for item in self.items)

    def mean_fraction_eliminated(self) -> float:
        """Mean ``fraction_eliminated`` over successful composition payloads."""
        fractions = [
            item.result.fraction_eliminated
            for item in self.succeeded
            if hasattr(item.result, "fraction_eliminated")
        ]
        return sum(fractions) / len(fractions) if fractions else 1.0

    def raise_failures(self) -> None:
        """Raise :class:`EngineError` summarizing failures, if any occurred."""
        problems = [item for item in self.items if not item.ok]
        if not problems:
            return
        first = problems[0]
        raise EngineError(
            f"{len(problems)}/{len(self.items)} batch problems did not succeed; "
            f"first: #{first.index} {first.label!r} ({first.status.value})"
            + (f"\n{first.error}" if first.error else "")
        )

    def summary(self) -> str:
        """A short human-readable summary of the batch."""
        lines = [
            f"{len(self.succeeded)}/{len(self.items)} problems succeeded "
            f"in {self.elapsed_seconds:.2f} s "
            f"({self.throughput():.1f} problems/s)",
        ]
        if self.failed:
            lines.append(f"failed: {', '.join(item.label for item in self.failed)}")
        if self.timed_out:
            lines.append(f"timed out: {', '.join(item.label for item in self.timed_out)}")
        stats = self.checkpoint_stats
        if stats is not None:
            lines.append(
                f"hop checkpoints: {stats['entries']:.0f} recorded, "
                f"{stats['hits']:.0f} prefix reuses"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<BatchReport: {len(self.succeeded)}/{len(self.items)} succeeded>"


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector for a batch run.

    Composition allocates millions of small immutable nodes and (almost) no
    reference cycles, so periodic full collections re-scan live objects for
    cycles they cannot contain.  No forced collection afterwards: refcounting
    reclaims the batch's garbage and the next natural collection handles the
    rest.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class BatchComposer:
    """Runs many composition problems through one configured engine.

    The composer is stateful across runs: with ``share_checkpoints`` enabled
    it keeps one hop-checkpoint store, so successive ``run_chains`` batches
    over evolving chains (the schema-editing pattern: every batch is the
    previous chain plus a delta) recompose incrementally.
    """

    def __init__(
        self,
        config: Optional[BatchConfig] = None,
        checkpoints: Optional[CheckpointStore] = None,
    ):
        """``checkpoints`` overrides the composer's own store — pass a
        :class:`~repro.catalog.checkpoints.PersistentCheckpointStore` (or any
        other externally owned store) to share recorded hops beyond this
        composer's lifetime.  An explicit store wins over the
        ``share_checkpoints`` setting (it is threaded through ``run_chains``
        either way)."""
        self.config = config or BatchConfig()
        if checkpoints is not None:
            self.checkpoints: Optional[CheckpointStore] = checkpoints
        else:
            self.checkpoints = (
                CheckpointStore() if self.config.share_checkpoints else None
            )

    # -- generic engine --------------------------------------------------------

    def map(
        self,
        fn: Callable[[object], object],
        items: Sequence[object],
        labels: Optional[Sequence[str]] = None,
    ) -> BatchReport:
        """Apply ``fn`` to every item, in-process and in submission order."""
        if labels is None:
            labels = [f"problem[{index}]" for index in range(len(items))]
        elif len(labels) != len(items):
            raise EngineError("labels must match items one-to-one")

        started = time.perf_counter()
        with _gc_paused():
            results = [
                self._run_one(index, label, fn, item)
                for index, (item, label) in enumerate(zip(items, labels))
            ]

        return BatchReport(
            items=tuple(results),
            elapsed_seconds=time.perf_counter() - started,
            checkpoints=self.checkpoints,
        )

    def _run_one(
        self, index: int, label: str, fn: Callable[[object], object], item: object
    ) -> BatchItemResult:
        """Run one job, timing it and isolating (or, with ``fail_fast``,
        re-raising) its failure."""
        started = time.perf_counter()
        try:
            payload = fn(item)
        except Exception as exc:  # noqa: BLE001 - failure isolation by design
            elapsed = time.perf_counter() - started
            if self.config.fail_fast:
                raise
            detail = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ).strip()
            return BatchItemResult(
                index=index,
                label=label,
                status=ProblemStatus.FAILED,
                error=detail,
                elapsed_seconds=elapsed,
            )
        elapsed = time.perf_counter() - started
        timeout = self.config.timeout_seconds
        if timeout is not None and elapsed > timeout:
            return BatchItemResult(
                index=index,
                label=label,
                status=ProblemStatus.TIMED_OUT,
                error=f"exceeded the per-problem budget of {timeout} s",
                elapsed_seconds=elapsed,
            )
        return BatchItemResult(
            index=index,
            label=label,
            status=ProblemStatus.SUCCEEDED,
            result=payload,
            elapsed_seconds=elapsed,
        )

    # -- composition-aware entry points ---------------------------------------

    def run(self, problems: Sequence[CompositionProblem]) -> BatchReport:
        """Compose every problem; payloads are :class:`CompositionResult` objects.

        Under a cost-guided ``composer_config``
        (:meth:`ComposerConfig.cost_guided`) every problem goes through the
        planner, which composes its independent components one after another.
        """
        labels = [
            problem.name or f"problem[{index}]" for index, problem in enumerate(problems)
        ]
        config = self.config.composer_config
        return self.map(lambda problem: compose(problem, config), problems, labels=labels)

    def run_chains(self, chains: Sequence[Sequence[Mapping]]) -> BatchReport:
        """Compose every chain of mappings; payloads are :class:`ChainResult` objects.

        Accepts plain sequences of mappings or objects with a ``mappings``
        attribute (e.g. the workload generator's ``ChainProblem``).  With
        ``share_checkpoints`` enabled, every job records and reuses hop
        checkpoints in the composer's store — within this batch and across
        earlier batches on the same composer — so chains that extend or edit
        previously composed chains replay only the changed suffix.
        """
        labels = [
            getattr(chain, "name", "") or f"chain[{index}]"
            for index, chain in enumerate(chains)
        ]
        jobs = [tuple(getattr(chain, "mappings", chain)) for chain in chains]
        config = self.config.composer_config
        return self.map(
            lambda mappings: compose_chain(mappings, config, checkpoints=self.checkpoints),
            jobs,
            labels=labels,
        )
