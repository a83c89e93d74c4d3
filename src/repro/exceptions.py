"""Exception hierarchy for the ``repro`` mapping-composition library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  The hierarchy mirrors the major subsystems:
algebra construction, parsing, evaluation, constraint handling, composition,
and the schema-evolution simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ExpressionError(ReproError):
    """A relational-algebra expression is malformed."""


class ArityError(ExpressionError):
    """An expression or constraint violates arity rules.

    Raised, for example, when the two sides of a union have different arities,
    when a projection references an index outside its input arity, or when the
    two sides of a containment constraint disagree on arity.
    """


class ConditionError(ExpressionError):
    """A selection condition is malformed (bad index, bad operator, ...)."""


class ParseError(ReproError):
    """The textual constraint / expression syntax could not be parsed."""

    def __init__(self, message: str, position: int = -1, text: str = ""):
        super().__init__(message)
        self.position = position
        self.text = text


class EvaluationError(ReproError):
    """An expression could not be evaluated over an instance.

    Typical causes: a referenced relation is missing from the instance, a
    Skolem function has no interpretation, or materializing the active-domain
    relation ``D^r`` would exceed the configured size limit.
    """


class SchemaError(ReproError):
    """A signature or instance is inconsistent (unknown relation, bad key, ...)."""


class ConstraintError(ReproError):
    """A constraint or constraint set is malformed."""


class CompositionError(ReproError):
    """An unrecoverable error occurred inside the composition algorithm.

    Note that *failure to eliminate a symbol* is not an error — the algorithm
    is best-effort and reports partial results.  This exception is reserved
    for genuine misuse (e.g. overlapping signatures passed to ``compose``).
    """


class EngineError(ReproError):
    """The batch/chain composition engine was misused or a batch run failed.

    Raised for invalid chains (non-adjacent mappings, empty chains), invalid
    engine configurations, and by :meth:`BatchReport.raise_failures` when a
    caller asks for all-or-nothing semantics on a batch that had failures.
    """


class SimulatorError(ReproError):
    """The schema-evolution simulator was asked to do something impossible.

    For example, applying a vertical-partitioning primitive to a schema that
    has no keyed relation.
    """


class RegistryError(ReproError):
    """An operator was registered incorrectly or looked up but never registered."""


class CatalogError(ReproError):
    """The mapping catalog was misused or its on-disk state is inconsistent.

    Raised for unknown entries or versions, invalid entry names (entry names
    become file names, so they are restricted to a safe alphabet), kind
    mismatches, and records whose serialized form cannot be parsed back.
    """


class JournalError(CatalogError):
    """A replication-journal entry or segment is malformed or misused.

    Raised for truncated/corrupt entries (bad length prefix, CRC mismatch,
    undecodable payload — what a torn tail presents to a reader), malformed
    segment names, and invalid journal parameters.  Torn *tails* are healed
    silently by the append path; this error surfaces only genuine corruption
    or misuse.
    """


class CatalogLockTimeoutError(CatalogError):
    """A shard/lease file lock could not be acquired within its timeout.

    The lock is advisory and fd-held, so a *crashed* holder releases it
    instantly — this error means a live process held the lock for the whole
    timeout (a stalled writer, a stuck NFS mount, or an injected
    lock-contention fault), which callers treat as a transient overload
    rather than corruption.
    """


class LeaseUnavailableError(CatalogError):
    """A cross-process work claim stayed held by a live peer past the wait bound.

    Raised by :meth:`~repro.catalog.leases.LeaseTable.wait_acquire` when the
    claimed key's lease was continuously renewed by another process for the
    whole wait budget.  Crashed holders do not raise this: their leases stop
    being renewed and are taken over after expiry.
    """


class StaleEpochError(CatalogError):
    """A local write was attempted with a fencing epoch the root has outgrown.

    Raised on the write path when the catalog root carries a ``FENCED``
    tombstone (a promoted replica fenced this root off) or when the persisted
    epoch next to the journal is higher than the epoch this handle adopted —
    both mean another process was promoted past this writer.  A zombie
    ex-primary that wakes up after failover hits this instead of
    split-braining the store.  Journal *mirroring* is exempt: a fenced root
    may still be re-seeded as a follower of the new primary.
    """


class ServiceError(ReproError):
    """A composition request submitted to the service failed.

    Carries the failure detail of the underlying batch item (the original
    traceback text for crashed compositions, or a timeout notice).
    """


class ReplicationError(ServiceError):
    """A replication follower could not tail or apply its source's journal.

    Raised when the replication source is malformed (an unusable URL or
    root), or when an applied entry fails its post-apply fingerprint
    verification — the mirrored bytes do not reproduce the content the
    primary acknowledged.  Transient source unavailability is *not* an
    error: the follower keeps polling and reports reachability in its
    status instead.
    """


class ServiceOverloadedError(ServiceError):
    """The service rejected a request because its queue is at capacity.

    Admission control: the request was *not* enqueued; the caller may retry
    later or raise ``max_pending``.
    """


class ServiceDeadlineError(ServiceOverloadedError):
    """A blocking-admission request waited past its deadline for queue space.

    Raised only with ``ServiceConfig(admission="block")`` and a
    ``deadline_seconds``: the request blocked for its whole budget without
    the queue draining below ``max_pending``.  Subclasses
    :class:`ServiceOverloadedError` because the meaning to the caller is the
    same — not enqueued, retry later — which also keeps HTTP 429 handling
    uniform.
    """
