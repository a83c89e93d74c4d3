"""The batch composition engine: chained, batched, incremental and generated workloads.

This subsystem layers scale on top of the core COMPOSE procedure:

* :mod:`repro.engine.chain` — n-ary chained composition
  (``m12 ∘ m23 ∘ … ∘ m(n-1)(n)``) with residual-symbol threading;
* :mod:`repro.engine.batch` — in-process batch execution, in submission
  order, with failure isolation, soft timeouts and a shared hop-checkpoint
  store;
* :mod:`repro.engine.checkpoint` / :mod:`repro.engine.fingerprint` — content
  fingerprints over chains and the checkpoint store keyed by them;
* :mod:`repro.engine.incremental` — the incremental recomposition engine:
  :class:`IncrementalComposer` ("previous chain plus a delta") and the
  delta-aware :class:`EvolutionSession` edit-replay driver;
* :mod:`repro.engine.workloads` — seeded randomized generation of diverse
  composition problems from the schema-evolution primitives.
"""

from repro.engine.batch import (
    BatchComposer,
    BatchConfig,
    BatchItemResult,
    BatchReport,
    ProblemStatus,
)
from repro.engine.chain import ChainHop, ChainResult, compose_chain, validate_chain
from repro.engine.checkpoint import ChainCheckpoint, CheckpointStore
from repro.engine.fingerprint import chain_fingerprint, chain_tokens
from repro.engine.incremental import EvolutionSession, IncrementalComposer, SessionEvent
from repro.engine.workloads import (
    ChainGrower,
    ChainProblem,
    PartitionedProblem,
    WorkloadConfig,
    generate_chain_problem,
    generate_partitioned_problem,
    generate_partitioned_workload,
    generate_workload,
    pairwise_problems,
    partitioned_forward_instance,
)

__all__ = [
    "ChainHop",
    "ChainResult",
    "compose_chain",
    "validate_chain",
    "BatchComposer",
    "BatchConfig",
    "BatchItemResult",
    "BatchReport",
    "ProblemStatus",
    "ChainCheckpoint",
    "CheckpointStore",
    "chain_fingerprint",
    "chain_tokens",
    "EvolutionSession",
    "IncrementalComposer",
    "SessionEvent",
    "ChainGrower",
    "ChainProblem",
    "PartitionedProblem",
    "WorkloadConfig",
    "generate_chain_problem",
    "generate_partitioned_problem",
    "generate_partitioned_workload",
    "generate_workload",
    "pairwise_problems",
    "partitioned_forward_instance",
]
