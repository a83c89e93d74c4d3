"""The mapping catalog: a disk-backed, versioned store of named objects.

The paper frames COMPOSE as one operator inside a model-management system
that keeps *many* named schemas and mappings alive over time.  This module
is that memory: a :class:`MappingCatalog` persists schemas, mappings, whole
mapping chains, composition problems and composed results under stable names,
serialized in the extended plain-text format of :mod:`repro.textio.records`
(the paper's own distribution syntax), with

* **content addressing** — every stored version is keyed by its deterministic
  content fingerprint (:mod:`repro.algebra.digest`), so re-registering
  identical content is a no-op that returns the existing version;
* **version history** — registering changed content under an existing name
  appends a new version instead of overwriting (a schema-evolution edit is a
  new catalog version, never a lost one);
* **delta-encoded chains** — a chain version that shares a prefix with the
  previous version is stored as a ``chain-delta`` record (base version +
  replacement suffix), so an n-edit evolution history costs O(n) hops of
  text on disk instead of O(n²); readers always see materialized full
  chains;
* **atomic, durable writes** — record files and the index shards are
  replaced atomically and the rename is made durable with a directory fsync
  (:mod:`repro.catalog.storage`), so a crash never leaves a torn file or
  silently rolls back a committed version;
* **multi-process sharing** — the index is sharded by a hash of
  ``kind/name`` into per-shard JSON files, and every read-modify-write cycle
  holds an ``flock`` on that shard's lock file, so several service
  *processes* appending versions to one catalog root never lose updates;
  readers pick up other processes' writes by re-reading shards whose files
  changed;
* **bounded growth** — :meth:`MappingCatalog.gc` applies one validated
  :class:`GcPolicy`: it evicts hop checkpoints by age/LRU, prunes old result
  and chain versions and drops old journal segments (the CLI's ``repro
  catalog gc``; the service can run it as a background sweep); and
* **durable hop checkpoints** — the catalog owns a
  :class:`~repro.catalog.checkpoints.PersistentCheckpointStore` under its
  root, so ``compose_chain`` prefix reuse survives process restarts.

On-disk layout::

    <root>/index/shard-<NN>.json            one index shard (version history per name)
    <root>/index/shard-<NN>.lock            the shard's inter-process lock file
    <root>/objects/<kind>/<name>/v<N>.txt   one record file per stored version
    <root>/checkpoints/<token>.ckpt         pickled hop checkpoints

A root that still holds a single-file ``catalog.json`` index (schema
version 1) is refused with a :class:`~repro.exceptions.CatalogError`: this
library reads only the sharded index and never mistakes such a root for an
empty catalog.
"""

from __future__ import annotations

import calendar
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.algebra.digest import DIGEST_SIZE
from repro.catalog.checkpoints import PersistentCheckpointStore
from repro.catalog.journal import CatalogJournal
from repro.catalog.storage import FileLock, atomic_write_text
from repro.compose.result import CompositionResult
from repro.retry import RetryPolicy, RetryStats
from repro.engine.fingerprint import chain_fingerprint
from repro.exceptions import CatalogError, JournalError, ParseError, StaleEpochError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.schema.signature import Signature
from repro.textio.format import problem_to_text
from repro.textio.records import (
    chain_delta_to_text,
    chain_to_text,
    mapping_to_text,
    parse_record,
    read_record,
    result_to_text,
    signature_to_text,
)

__all__ = ["CatalogEntry", "GcPolicy", "MappingCatalog", "KINDS"]

#: The kinds of objects the catalog stores, in display order.
KINDS = ("schema", "mapping", "chain", "problem", "result")

#: Entry names become path components, so they are restricted to a safe set.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

_INDEX_DIR = "index"
_LEGACY_INDEX_FILE = "catalog.json"
_INDEX_SCHEMA_VERSION = 2
_NUM_SHARDS = 16

#: Bound on waiting for a shard lock held by a live peer; a crashed peer
#: releases instantly (fd-held flock), so only a stalled process can consume
#: this.
DEFAULT_LOCK_TIMEOUT_SECONDS = 30.0

#: A chain version stored as a delta is reconstructed by walking its base
#: references back to a full record; storing a full record every so often
#: bounds that walk (and the blast radius of a damaged base file).
_MAX_DELTA_DEPTH = 64

#: One shard's entries: kind -> name -> [version records].
_ShardEntries = Dict[str, Dict[str, List[dict]]]


@dataclass(frozen=True)
class CatalogEntry:
    """One stored version of one named object."""

    kind: str
    name: str
    version: int
    fingerprint: str
    created_at: str
    path: str  # record file, relative to the catalog root
    #: The journal sequence this put appended (``None`` for deduped puts —
    #: identical content was already journaled — and for plain reads).  The
    #: service's ack-on-replica path waits on exactly this number.  Excluded
    #: from equality: the same stored version compares equal however it was
    #: obtained.
    journal_seq: Optional[int] = field(default=None, compare=False)

    def __repr__(self) -> str:
        return (
            f"<CatalogEntry {self.kind}/{self.name} v{self.version} "
            f"{self.fingerprint[:8]}>"
        )


@dataclass(frozen=True)
class GcPolicy:
    """The bounds of one :meth:`MappingCatalog.gc` pass, validated once.

    Every bound left at ``None`` disables its rule.

    * ``checkpoint_max_files`` / ``checkpoint_max_age_seconds`` evict hop
      checkpoints least-recently-used first (mtimes are freshened on every
      hit) and by age; retained checkpoints keep working — prefix reuse needs
      only the deepest matching file.
    * ``result_max_age_seconds`` / ``result_keep_versions`` prune stored
      *result* versions: the newest ``result_keep_versions`` versions of each
      name are always retained (1 when unset — the latest version is never
      pruned), and with an age bound only older versions beyond that go.
    * ``chain_max_age_seconds`` / ``chain_keep_versions`` prune stored
      *chain* versions the same way, except that a version any retained
      version still references — directly or transitively — through its
      ``delta_base`` is never evicted, so every surviving delta remains
      materializable.  Schemas, mappings and problems are never pruned — they
      are the modeled history.
    * ``journal_max_segments`` / ``journal_max_age_seconds`` drop old
      replication-journal segments per shard (the active tail always
      survives); a follower older than the retention window must re-seed.
    * ``grace_seconds`` is the multi-process age floor: checkpoints used and
      versions created within the last ``grace_seconds`` are never evicted,
      whatever the other bounds say — so a sweep in one process cannot race a
      peer that wrote (and is about to reuse) an entry moments ago.

    A count that is not an ``int`` (a ``bool``, a float, NaN), a negative
    (or NaN) count, age or grace, a keep-versions bound below 1 and a
    ``journal_max_segments`` below 1 raise
    :class:`~repro.exceptions.CatalogError`.
    """

    checkpoint_max_files: Optional[int] = None
    checkpoint_max_age_seconds: Optional[float] = None
    result_max_age_seconds: Optional[float] = None
    result_keep_versions: Optional[int] = None
    chain_max_age_seconds: Optional[float] = None
    chain_keep_versions: Optional[int] = None
    journal_max_segments: Optional[int] = None
    journal_max_age_seconds: Optional[float] = None
    grace_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "checkpoint_max_files",
            "result_keep_versions",
            "chain_keep_versions",
            "journal_max_segments",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, type(None))):
                raise CatalogError(f"{name} must be an integer, not {value!r}")
        for name in (
            "checkpoint_max_files",
            "checkpoint_max_age_seconds",
            "result_max_age_seconds",
            "chain_max_age_seconds",
            "journal_max_age_seconds",
            "grace_seconds",
        ):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN fails too
                raise CatalogError(f"{name} must be non-negative, not {value!r}")
        for name in ("result_keep_versions", "chain_keep_versions", "journal_max_segments"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise CatalogError(f"{name} must be positive, not {value!r}")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _created_at_epoch(record: dict) -> Optional[float]:
    try:
        parsed = time.strptime(record["created_at"], "%Y-%m-%dT%H:%M:%SZ")
    except (KeyError, TypeError, ValueError):
        return None
    return float(calendar.timegm(parsed))


def _result_fingerprint(result: CompositionResult) -> bytes:
    """Structural fingerprint of a composed result.

    Covers the output content — signatures, residual, constraints, per-symbol
    outcome structure and the planner's orders — but *not* the wall-clock
    timings, so recomposing the same inputs dedupes to one stored version
    even though its timings differ run to run.
    """
    h = blake2b(digest_size=DIGEST_SIZE)
    h.update(result.sigma1.fingerprint())
    h.update(result.residual_sigma2.fingerprint())
    h.update(result.sigma3.fingerprint())
    h.update(result.constraints.fingerprint())
    for outcome in result.outcomes:
        h.update(
            repr(
                (outcome.symbol, outcome.success, outcome.method.value, outcome.blowup_aborted)
            ).encode()
        )
    h.update(repr(result.plan).encode())
    return h.digest()


#: How each kind's content fingerprint is derived from its object: the
#: ``put_*`` methods key a version on it and :meth:`MappingCatalog.verify`
#: recomputes it.
_FINGERPRINTS: Dict[str, Callable[[object], bytes]] = {
    "schema": Signature.fingerprint,
    "mapping": Mapping.fingerprint,
    "chain": chain_fingerprint,
    "problem": CompositionProblem.fingerprint,
    "result": _result_fingerprint,
}


class MappingCatalog:
    """A persistent, versioned store rooted at one directory.

    Safe for concurrent readers and writers both *within* one process
    (threads share an internal lock) and *across* processes sharing the same
    root (writers hold a per-shard file lock around every read-modify-write
    of the index, and version numbers are assigned from the freshly re-read
    shard, so concurrent ``put_*`` calls from separate processes append
    distinct versions instead of overwriting each other).

    The root is the only parameter.  Every handle journals every mutation,
    waits at most :data:`DEFAULT_LOCK_TIMEOUT_SECONDS` for a shard lock,
    retries transient disk errors under the default
    :class:`~repro.retry.RetryPolicy`, and keeps at most
    :data:`~repro.engine.checkpoint.DEFAULT_MAX_CHECKPOINTS` hop checkpoints
    in memory.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        legacy = self.root / _LEGACY_INDEX_FILE
        if legacy.exists():
            raise CatalogError(
                f"{legacy} is a single-file catalog index (schema version 1); "
                f"this library reads only the sharded index under "
                f"{self.root / _INDEX_DIR} and will not open this root"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._retry = RetryPolicy()
        #: Classified retry counters of every disk operation this handle ran;
        #: surfaced through :meth:`stats` and the service's ``/metrics``.
        self.retry_stats = RetryStats()
        self._checkpoints: Optional[PersistentCheckpointStore] = None
        #: Write-ahead replication journal: every index mutation is journaled
        #: (fsynced) before it is published, so replicas can tail and mirror
        #: this root.
        self._journal: Optional[CatalogJournal] = None
        #: The fencing epoch this handle writes at (lazily adopted from the
        #: persisted ``EPOCH`` marker on first use; raised by promotion and
        #: by applying higher-epoch journal entries).
        self._epoch: Optional[int] = None
        #: Per-shard cache: shard id -> (file stat stamp, entries).  A stale
        #: stamp means another process wrote the shard; it is then re-read.
        self._shards: Dict[int, Tuple[Optional[tuple], _ShardEntries]] = {}

    # -- index sharding ------------------------------------------------------------

    @staticmethod
    def _shard_id(kind: str, name: str) -> int:
        digest = blake2b(f"{kind}/{name}".encode(), digest_size=1).digest()
        return digest[0] % _NUM_SHARDS

    def _shard_path(self, shard: int) -> Path:
        return self.root / _INDEX_DIR / f"shard-{shard:02d}.json"

    def _shard_lock_path(self, shard: int) -> Path:
        return self.root / _INDEX_DIR / f"shard-{shard:02d}.lock"

    @staticmethod
    def _stat_stamp(path: Path) -> Optional[tuple]:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def _read_shard(self, shard: int) -> Tuple[Optional[tuple], _ShardEntries]:
        path = self._shard_path(shard)
        stamp = self._stat_stamp(path)
        if stamp is None:
            return None, {}

        def read() -> str:
            faults.fire("catalog.shard.read", path=str(path))
            return path.read_text(encoding="utf-8")

        try:
            payload = json.loads(
                self._retry.run(
                    read, stats=self.retry_stats, description=f"read shard {shard}"
                )
            )
        except (OSError, json.JSONDecodeError) as exc:
            raise CatalogError(f"cannot read catalog index shard {path}: {exc}") from exc
        if payload.get("schema_version") != _INDEX_SCHEMA_VERSION:
            raise CatalogError(
                f"catalog index shard {path} has schema version "
                f"{payload.get('schema_version')!r}; this library reads version "
                f"{_INDEX_SCHEMA_VERSION}"
            )
        return stamp, payload.get("entries", {})

    def _write_shard(self, shard: int, entries: _ShardEntries) -> None:
        payload = {
            "schema_version": _INDEX_SCHEMA_VERSION,
            "shard": shard,
            "updated_at": _utc_now(),
            "entries": entries,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._retry.run(
            lambda: atomic_write_text(self._shard_path(shard), text),
            stats=self.retry_stats,
            description=f"write shard {shard}",
        )

    def _shard_entries(self, shard: int) -> _ShardEntries:
        """This shard's entries, re-read from disk whenever the file changed."""
        with self._lock:
            stamp = self._stat_stamp(self._shard_path(shard))
            cached = self._shards.get(shard)
            if cached is not None and cached[0] == stamp:
                return cached[1]
            stamp, entries = self._read_shard(shard)
            self._shards[shard] = (stamp, entries)
            return entries

    def _mutate_shard(self, shard: int, mutate: Callable[[_ShardEntries], Tuple[object, bool]]):
        """Run one read-modify-write cycle on a shard under its file lock.

        ``mutate`` receives the freshly re-read entries — never a cached copy,
        so concurrent writers in other processes are always merged in — and
        returns ``(result, changed)``; the shard file is rewritten only when
        ``changed`` is true.

        The shard lock is taken with :data:`DEFAULT_LOCK_TIMEOUT_SECONDS`
        (a live peer stalling past it raises
        :class:`~repro.exceptions.CatalogLockTimeoutError`); transient I/O
        faults during acquisition are retried under the retry policy.
        """
        with self._lock:
            lock = FileLock(
                self._shard_lock_path(shard), timeout=DEFAULT_LOCK_TIMEOUT_SECONDS
            )
            with obs.span("catalog.shard_lock", shard=shard):
                self._retry.run(
                    lock.acquire, stats=self.retry_stats, description=f"lock shard {shard}"
                )
            try:
                stamp, entries = self._read_shard(shard)
                result, changed = mutate(entries)
                if changed:
                    self._write_shard(shard, entries)
                    stamp = self._stat_stamp(self._shard_path(shard))
                self._shards[shard] = (stamp, entries)
                return result
            finally:
                lock.release()

    def _combined_index(self) -> _ShardEntries:
        """Every shard's entries merged into one kind -> name -> versions view."""
        combined: _ShardEntries = {}
        for shard in range(_NUM_SHARDS):
            for kind, by_name in self._shard_entries(shard).items():
                combined.setdefault(kind, {}).update(by_name)
        return combined

    # -- replication journal -------------------------------------------------------

    @property
    def journal(self) -> CatalogJournal:
        """The catalog's replication journal (created lazily)."""
        with self._lock:
            if self._journal is None:
                self._journal = CatalogJournal(
                    self.root / "journal", num_shards=_NUM_SHARDS
                )
            return self._journal

    def _journal_append(self, shard: int, payload: dict, seq: Optional[int] = None) -> int:
        """Journal one mutation (write-ahead: before the index publish).

        Called from inside :meth:`_mutate_shard`'s locked cycle, so sequence
        assignment is serialized across processes.  Retried under the retry
        policy: a torn first attempt leaves a torn tail that the retry's
        rescan heals before appending cleanly.  Returns the appended sequence
        number.

        A *local* write (``seq=None``) is fenced: if this root carries a
        higher-epoch ``FENCED`` tombstone or the persisted epoch has outrun
        this handle's, :class:`~repro.exceptions.StaleEpochError` is raised
        before anything lands — the write-ahead order then guarantees the
        index is never published either.  Mirrored appends (``seq`` given)
        are exempt, so a fenced root can still be re-seeded as a follower.
        """
        if seq is None:
            payload = self._fence_check_and_stamp(payload)
            context = obs.current()
            if context is not None and "trace" not in payload:
                # Stamp the request's trace identity into the entry (same
                # copy-then-add pattern as the epoch stamp): mirrored appends
                # replay the dict verbatim, so a follower's apply can join
                # the originating write's trace across the process boundary.
                payload = dict(payload)
                payload["trace"] = {
                    "trace_id": context.trace_id,
                    "span_id": context.span_id,
                }
        return self._retry.run(
            lambda: self.journal.append(shard, payload, seq=seq),
            stats=self.retry_stats,
            description=f"journal append shard {shard}",
        )

    def _fence_check_and_stamp(self, payload: dict) -> dict:
        """Refuse a stale-epoch local write; stamp the adopted epoch otherwise."""
        journal = self.journal
        epoch = self.epoch
        fenced = journal.fenced_epoch()
        if fenced is not None and fenced > epoch:
            raise StaleEpochError(
                f"catalog root {self.root} is fenced at epoch {fenced}; this "
                f"writer's epoch {epoch} is stale — a replica was promoted "
                "past it"
            )
        persisted = journal.read_epoch()
        if persisted > epoch:
            raise StaleEpochError(
                f"catalog root {self.root} is at epoch {persisted}; this "
                f"writer adopted epoch {epoch} and must not write anymore"
            )
        if epoch > 0:
            payload = dict(payload)
            payload["epoch"] = epoch
        return payload

    @property
    def epoch(self) -> int:
        """The fencing epoch this handle writes at (0 = never promoted)."""
        with self._lock:
            if self._epoch is None:
                self._epoch = self.journal.read_epoch()
            return self._epoch

    def bump_epoch(self) -> int:
        """Mint the next fencing epoch (persisted, then adopted); returns it.

        The promotion path: the new primary calls this once, after which its
        journal entries and write acks carry the new epoch and every stale
        writer sharing (or fenced on) a root is rejected.
        """
        epoch = self.journal.bump_epoch()
        with self._lock:
            if self._epoch is None or epoch > self._epoch:
                self._epoch = epoch
        return epoch

    def _note_epoch(self, epoch: int) -> None:
        """Adopt a higher epoch observed in a replicated journal entry.

        Raises the handle's epoch immediately (authoritative: the entry came
        from a promoted primary) and persists it best-effort, so a later
        promotion of *this* root mints a strictly higher epoch even across
        restarts.
        """
        if epoch <= 0:
            return
        with self._lock:
            if self._epoch is None:
                self._epoch = self.journal.read_epoch()
            if epoch > self._epoch:
                self._epoch = epoch
        if epoch > self.journal.read_epoch():
            try:
                self.journal.write_epoch(epoch)
            except (OSError, JournalError):
                pass  # persistence is best-effort; the handle's epoch rose

    # -- checkpoints ---------------------------------------------------------------

    @property
    def checkpoints(self) -> PersistentCheckpointStore:
        """The catalog's durable hop-checkpoint store (created lazily)."""
        with self._lock:
            if self._checkpoints is None:
                self._checkpoints = PersistentCheckpointStore(self.root / "checkpoints")
            return self._checkpoints

    # -- generic storage -----------------------------------------------------------

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in KINDS:
            raise CatalogError(f"unknown catalog kind {kind!r}; expected one of {KINDS}")

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name or ""):
            raise CatalogError(
                f"invalid entry name {name!r}: names must be 1-128 characters "
                "from [A-Za-z0-9._-] and start with a letter or digit"
            )

    def _entry_from_record(
        self, kind: str, name: str, record: dict, journal_seq: Optional[int] = None
    ) -> CatalogEntry:
        return CatalogEntry(
            kind=kind,
            name=name,
            version=record["version"],
            fingerprint=record["fingerprint"],
            created_at=record["created_at"],
            path=record["path"],
            journal_seq=journal_seq,
        )

    def _put(
        self,
        kind: str,
        name: str,
        fingerprint: bytes,
        make_text: Callable[[List[dict]], Tuple[str, dict]],
    ) -> CatalogEntry:
        """Append one version under the shard lock.

        ``make_text`` runs inside the locked read-modify-write cycle and sees
        the freshly merged version history, so it may serialize against the
        *actual* previous version (delta chains depend on this); it returns
        the record text plus extra bookkeeping fields for the index record.
        """
        self._check_kind(kind)
        self._check_name(name)
        digest = fingerprint.hex()
        shard = self._shard_id(kind, name)

        def mutate(entries: _ShardEntries) -> Tuple[CatalogEntry, bool]:
            versions = entries.setdefault(kind, {}).setdefault(name, [])
            if versions and versions[-1]["fingerprint"] == digest:
                # Content-addressed dedupe: identical content is the same version.
                return self._entry_from_record(kind, name, versions[-1]), False
            version = versions[-1]["version"] + 1 if versions else 1
            relative = f"objects/{kind}/{name}/v{version}.txt"
            text, extra = make_text(versions)
            self._retry.run(
                lambda: atomic_write_text(self.root / relative, text),
                stats=self.retry_stats,
                description=f"write {relative}",
            )
            record = {
                "version": version,
                "fingerprint": digest,
                "created_at": _utc_now(),
                "path": relative,
            }
            record.update(extra)
            # Write-ahead order: object file, then the fsynced journal entry,
            # then the index publish (after this mutate returns).  A crash
            # between journal and publish leaves an unacknowledged extra
            # journal entry — harmless, replay is fingerprint-idempotent —
            # and never an acknowledged version missing from the journal.
            seq = self._journal_append(
                shard,
                {
                    "op": "put",
                    "kind": kind,
                    "name": name,
                    "record": dict(record),
                    "text": text,
                },
            )
            versions.append(record)
            return self._entry_from_record(kind, name, record, journal_seq=seq), True

        return self._mutate_shard(shard, mutate)

    def _put_text(self, kind: str, name: str, text: str, obj: object) -> CatalogEntry:
        return self._put(kind, name, _FINGERPRINTS[kind](obj), lambda versions: (text, {}))

    def _versions(self, kind: str, name: str) -> List[dict]:
        self._check_kind(kind)
        entries = self._shard_entries(self._shard_id(kind, name))
        versions = entries.get(kind, {}).get(name)
        if not versions:
            raise CatalogError(f"no {kind} named {name!r} in the catalog")
        return versions

    def _record(self, kind: str, name: str, version: Optional[int]) -> dict:
        versions = self._versions(kind, name)
        if version is None:
            return versions[-1]
        for record in versions:
            if record["version"] == version:
                return record
        raise CatalogError(
            f"{kind} {name!r} has no version {version} "
            f"(available: 1..{versions[-1]['version']})"
        )

    def _read_object(self, record: dict) -> str:
        path = self.root / record["path"]
        try:
            return path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CatalogError(f"catalog file {path} is missing or unreadable: {exc}") from exc

    # -- writing -------------------------------------------------------------------

    def put_schema(self, name: str, signature: Signature, description: str = "") -> CatalogEntry:
        """Store a named schema; identical content returns the existing version."""
        text = signature_to_text(signature, name=name, description=description)
        return self._put_text("schema", name, text, signature)

    def put_mapping(self, name: str, mapping: Mapping, description: str = "") -> CatalogEntry:
        """Store a named mapping (a schema-evolution edit appends a new version)."""
        text = mapping_to_text(mapping, name=name, description=description)
        return self._put_text("mapping", name, text, mapping)

    def put_chain(
        self, name: str, mappings: Sequence[Mapping], description: str = ""
    ) -> CatalogEntry:
        """Store a whole mapping chain under one name.

        A version that shares a prefix with the previous stored version is
        written as a ``chain-delta`` record — the base version's number and
        fingerprint plus only the replacement suffix — so an n-edit history
        costs O(n) hops of text on disk.  Readers always get materialized
        full chains (:meth:`get_chain`, :meth:`text`); the delta layout is
        visible only through :meth:`raw_text`.
        """
        chain = tuple(mappings)
        fingerprint = _FINGERPRINTS["chain"](chain)

        def make_text(versions: List[dict]) -> Tuple[str, dict]:
            full = chain_to_text(chain, name=name, description=description)
            if not versions:
                return full, {}
            latest = versions[-1]
            depth = latest.get("delta_depth", 0)
            if depth >= _MAX_DELTA_DEPTH:
                return full, {}
            try:
                base = self._chain_from_record(name, versions, latest)
            except (CatalogError, ParseError):
                # An unreadable base must never poison new versions.
                return full, {}
            shared = 0
            limit = min(len(base), len(chain) - 1)  # a delta needs >= 1 suffix hop
            while shared < limit and base[shared].fingerprint() == chain[shared].fingerprint():
                shared += 1
            if shared < 1:
                return full, {}
            delta = chain_delta_to_text(
                chain[shared:],
                base_version=latest["version"],
                base_fingerprint=latest["fingerprint"],
                prefix_hops=shared,
                name=name,
                description=description,
            )
            return delta, {"delta_base": latest["version"], "delta_depth": depth + 1}

        return self._put("chain", name, fingerprint, make_text)

    def put_problem(self, name: str, problem: CompositionProblem) -> CatalogEntry:
        """Store a composition problem (the paper's task-distribution format)."""
        text = "# kind: problem\n" + problem_to_text(problem)
        return self._put_text("problem", name, text, problem)

    def put_result(
        self, name: str, result: CompositionResult, description: str = ""
    ) -> CatalogEntry:
        """Store a composed result (plan and phase timings included)."""
        text = result_to_text(result, name=name, description=description)
        return self._put_text("result", name, text, result)

    def add_text(
        self, text: str, name: Optional[str] = None, kind: Optional[str] = None
    ) -> CatalogEntry:
        """Ingest a raw record text (the CLI's ``catalog add``).

        The text is scanned once.  Its kind is ``kind`` or the record's own
        (a kind-less text in the original problem format is a problem); the
        record is read back into its object — rejecting malformed input
        before anything touches disk — and stored under ``name`` (defaulting
        to the record's ``# name:`` metadata) with the record's
        ``# description:``.
        """
        record = parse_record(text)
        kind = kind or record.require_kind()
        self._check_kind(kind)
        try:
            obj = read_record(record, kind)
        except ParseError as exc:
            raise CatalogError(f"cannot ingest {kind} record: {exc}") from exc
        name = name or record.name
        if not name:
            raise CatalogError(
                "record declares no '# name:'; pass an explicit name to store it"
            )
        put = {
            "schema": self.put_schema,
            "mapping": self.put_mapping,
            "chain": self.put_chain,
            # A problem carries its own description.
            "problem": lambda name, problem, description: self.put_problem(name, problem),
            "result": self.put_result,
        }[kind]
        return put(name, obj, description=record.description)

    # -- reading -------------------------------------------------------------------

    def raw_text(self, kind: str, name: str, version: Optional[int] = None) -> str:
        """The stored on-disk record text of one version (latest by default).

        Unlike :meth:`text` this does *not* materialize ``chain-delta``
        records into full chains.
        """
        return self._read_object(self._record(kind, name, version))

    def text(self, kind: str, name: str, version: Optional[int] = None) -> str:
        """The record text of one version (latest by default), materialized.

        Chain versions stored as deltas are reconstructed into full ``chain``
        records, so callers (the CLI's ``catalog show``, the HTTP catalog
        endpoint) always see self-contained, re-ingestable texts.
        """
        record = self._record(kind, name, version)
        raw = self._read_object(record)
        if kind == "chain":
            try:
                parsed = parse_record(raw)
            except ParseError:
                return raw
            if parsed.kind == "chain-delta":
                chain = self._chain_from_record(name, self._versions(kind, name), record)
                return chain_to_text(
                    chain, name=parsed.name or name, description=parsed.description
                )
        return raw

    def _chain_from_record(
        self, name: str, versions: List[dict], record: dict
    ) -> Tuple[Mapping, ...]:
        """Materialize one stored chain version, resolving delta references.

        Walks base references back to a full ``chain`` record (iteratively —
        histories are long), then replays the deltas forward:
        ``base[:prefix_hops] + suffix`` per step.
        """
        deltas = []
        seen = set()
        current = record
        while True:
            if current["version"] in seen:
                raise CatalogError(
                    f"chain {name!r} has a cyclic delta reference at version "
                    f"{current['version']}"
                )
            seen.add(current["version"])
            try:
                parsed = parse_record(self._read_object(current))
                stored_kind = parsed.require_kind()
            except ParseError as exc:
                raise CatalogError(
                    f"chain {name!r} v{current['version']} is unreadable: {exc}"
                ) from exc
            if stored_kind not in ("chain", "chain-delta"):
                raise CatalogError(
                    f"chain {name!r} v{current['version']} holds a {stored_kind!r} record"
                )
            stored = read_record(parsed)
            if stored_kind == "chain":
                chain = stored
                break
            delta = stored
            base = next(
                (rec for rec in versions if rec["version"] == delta.base_version), None
            )
            if base is None:
                raise CatalogError(
                    f"chain {name!r} v{current['version']} references missing base "
                    f"version {delta.base_version}"
                )
            if base["fingerprint"] != delta.base_fingerprint:
                raise CatalogError(
                    f"chain {name!r} v{current['version']} references base version "
                    f"{delta.base_version} whose fingerprint does not match"
                )
            deltas.append(delta)
            current = base
        for delta in reversed(deltas):
            if delta.prefix_hops > len(chain):
                raise CatalogError(
                    f"chain {name!r} delta expects a base of at least "
                    f"{delta.prefix_hops} hops, found {len(chain)}"
                )
            chain = chain[: delta.prefix_hops] + delta.suffix
        return chain

    def _object(self, kind: str, name: str, record: dict):
        """One stored version read back into its object, each file scanned once."""
        if kind == "chain":  # deltas materialize through their bases
            return self._chain_from_record(name, self._versions(kind, name), record)
        return read_record(parse_record(self._read_object(record)), kind)

    def get_schema(self, name: str, version: Optional[int] = None) -> Signature:
        return self._object("schema", name, self._record("schema", name, version))

    def get_mapping(self, name: str, version: Optional[int] = None) -> Mapping:
        return self._object("mapping", name, self._record("mapping", name, version))

    def get_chain(self, name: str, version: Optional[int] = None) -> Tuple[Mapping, ...]:
        return self._object("chain", name, self._record("chain", name, version))

    def get_problem(self, name: str, version: Optional[int] = None) -> CompositionProblem:
        return self._object("problem", name, self._record("problem", name, version))

    def get_result(self, name: str, version: Optional[int] = None) -> CompositionResult:
        return self._object("result", name, self._record("result", name, version))

    # -- garbage collection --------------------------------------------------------

    def gc(self, policy: GcPolicy, dry_run: bool = False) -> dict:
        """Bound the catalog's disk growth (checkpoints, history, journal).

        ``policy`` says what goes (see :class:`GcPolicy`; its bounds were
        validated when it was built).  ``dry_run`` reports what would be
        removed without touching disk.  Safe to run concurrently with other
        processes: index pruning happens under the shard locks (record files
        are unlinked after the index no longer references them), and every
        eviction is journaled so replicas mirror the pruning too.

        Returns one ``{"examined", "removed", "retained"}`` section per
        ``checkpoints``, ``results``, ``chains`` and ``journal``, plus
        ``dry_run`` and ``grace_seconds``.
        """
        grace_seconds = policy.grace_seconds
        report: dict = {"dry_run": dry_run, "grace_seconds": grace_seconds}
        if (
            policy.checkpoint_max_files is not None
            or policy.checkpoint_max_age_seconds is not None
        ):
            report["checkpoints"] = self.checkpoints.gc(
                max_files=policy.checkpoint_max_files,
                max_age_seconds=policy.checkpoint_max_age_seconds,
                grace_seconds=grace_seconds,
                dry_run=dry_run,
            )
        else:
            report["checkpoints"] = {"examined": 0, "removed": 0, "retained": 0}

        now = time.time()
        report["results"] = self._prune_versions(
            "result", policy.result_keep_versions, policy.result_max_age_seconds,
            grace_seconds, now, dry_run,
        )
        report["chains"] = self._prune_versions(
            "chain", policy.chain_keep_versions, policy.chain_max_age_seconds,
            grace_seconds, now, dry_run,
        )
        if (
            policy.journal_max_segments is not None
            or policy.journal_max_age_seconds is not None
        ):
            report["journal"] = self.journal.gc(
                max_segments=policy.journal_max_segments,
                max_age_seconds=policy.journal_max_age_seconds,
                dry_run=dry_run,
            )
        else:
            report["journal"] = {"examined": 0, "removed": 0, "retained": 0}
        return report

    def _prune_versions(
        self,
        kind: str,
        keep_versions: Optional[int],
        max_age_seconds: Optional[float],
        grace_seconds: float,
        now: float,
        dry_run: bool,
    ) -> dict:
        """Prune one kind's version history under the shard locks.

        Returns the per-kind GC report section.  Disabled (all zeros) when
        both policies are ``None``.
        """
        if keep_versions is None and max_age_seconds is None:
            return {"examined": 0, "removed": 0, "retained": 0}
        keep = keep_versions if keep_versions is not None else 1
        removed_total = 0
        examined_total = 0
        for shard in range(_NUM_SHARDS):

            def prune(entries: _ShardEntries, shard: int = shard):
                examined = 0
                doomed: List[Tuple[str, dict]] = []
                for name, versions in entries.get(kind, {}).items():
                    examined += len(versions)
                    if len(versions) <= keep:
                        continue
                    candidates = []
                    for record in versions[:-keep]:
                        created = _created_at_epoch(record)
                        if (
                            grace_seconds > 0
                            and created is not None
                            and now - created < grace_seconds
                        ):
                            # Age floor: a version written moments ago may still
                            # be mid-handoff to a peer process — never evict it.
                            continue
                        if max_age_seconds is not None:
                            if created is None or now - created <= max_age_seconds:
                                continue
                        candidates.append(record)
                    if kind == "chain" and candidates:
                        # Delta guard: walk the delta_base references of every
                        # version that survives and rescue any candidate the
                        # walk reaches — evicting a live base would make the
                        # versions built on it unmaterializable.
                        protected = _delta_protected_versions(
                            versions, {record["version"] for record in candidates}
                        )
                        candidates = [
                            record
                            for record in candidates
                            if record["version"] not in protected
                        ]
                    doomed.extend((name, record) for record in candidates)
                if dry_run or not doomed:
                    return (examined, doomed), False
                by_name = entries[kind]
                for name, record in doomed:
                    by_name[name].remove(record)
                    self._journal_append(
                        shard,
                        {
                            "op": "evict",
                            "kind": kind,
                            "name": name,
                            "version": record["version"],
                            "fingerprint": record["fingerprint"],
                            "path": record["path"],
                        },
                    )
                return (examined, doomed), True

            examined, doomed = self._mutate_shard(shard, prune)
            examined_total += examined
            removed_total += len(doomed)
            if not dry_run:
                for _, record in doomed:
                    try:
                        (self.root / record["path"]).unlink()
                    except OSError:
                        pass
        return {
            "examined": examined_total,
            "removed": removed_total,
            "retained": examined_total - removed_total,
        }

    # -- replication apply ---------------------------------------------------------

    def apply_journal_entry(self, entry: dict) -> str:
        """Apply one replicated journal entry into this catalog (idempotent).

        The follower's half of the protocol: entries read from a primary's
        journal are applied *verbatim* — the stored text, index record (with
        its ``created_at`` and delta bookkeeping) and sequence number are
        preserved, so a caught-up replica is fingerprint- and byte-identical
        to its source.  Replay is keyed on content fingerprints: an entry
        whose (version, fingerprint) is already present is skipped, and a
        version number re-assigned by the primary after a crash-before-
        publish replaces the stale record.  Applied entries are re-journaled
        with their original sequence numbers, so a promoted replica's
        journal continues seamlessly and can itself be tailed.

        Returns ``"applied"``, ``"skipped"``, ``"replaced"`` or ``"evicted"``.
        """
        op = entry.get("op")
        kind = entry.get("kind")
        name = entry.get("name")
        self._check_kind(kind)
        self._check_name(name)
        shard = self._shard_id(kind, name)
        seq = entry.get("seq")
        # A higher epoch in a replicated entry is authoritative: the source
        # was promoted past whatever this handle believed.
        try:
            self._note_epoch(int(entry.get("epoch", 0)))
        except (TypeError, ValueError):
            pass

        if op == "put":
            record = dict(entry["record"])
            text = entry["text"]

            def mutate(entries: _ShardEntries) -> Tuple[str, bool]:
                versions = entries.setdefault(kind, {}).setdefault(name, [])
                existing = next(
                    (r for r in versions if r["version"] == record["version"]), None
                )
                if (
                    existing is not None
                    and existing["fingerprint"] == record["fingerprint"]
                ):
                    self._journal_append(shard, entry, seq=seq)
                    return "skipped", False
                self._retry.run(
                    lambda: atomic_write_text(self.root / record["path"], text),
                    stats=self.retry_stats,
                    description=f"mirror {record['path']}",
                )
                self._journal_append(shard, entry, seq=seq)
                if existing is not None:
                    versions[versions.index(existing)] = record
                    return "replaced", True
                versions.append(record)
                versions.sort(key=lambda item: item["version"])
                return "applied", True

            return self._mutate_shard(shard, mutate)

        if op == "evict":
            version = entry.get("version")

            def mutate(entries: _ShardEntries) -> Tuple[str, bool]:
                versions = entries.get(kind, {}).get(name, [])
                existing = next(
                    (r for r in versions if r["version"] == version), None
                )
                self._journal_append(shard, entry, seq=seq)
                if existing is None:
                    return "skipped", False
                versions.remove(existing)
                return "evicted", True

            outcome = self._mutate_shard(shard, mutate)
            if outcome == "evicted" and entry.get("path"):
                try:
                    (self.root / entry["path"]).unlink()
                except OSError:
                    pass
            return outcome

        raise CatalogError(f"unknown journal entry op {op!r}")

    def verify(self, kind: str, name: str, version: Optional[int] = None) -> bool:
        """Recompute one stored version's content fingerprint; ``True`` if it matches.

        Reads the version back from disk (materializing chain deltas),
        re-derives the fingerprint the way the original ``put_*`` did, and
        compares it to the index record — the replica's post-apply check
        that mirrored bytes reproduce the content the primary acknowledged.
        """
        record = self._record(kind, name, version)
        try:
            obj = self._object(kind, name, record)
        except ParseError:
            return False
        return _FINGERPRINTS[kind](obj).hex() == record["fingerprint"]

    # -- queries -------------------------------------------------------------------

    def entry(self, kind: str, name: str, version: Optional[int] = None) -> CatalogEntry:
        """The :class:`CatalogEntry` of one version (latest by default)."""
        return self._entry_from_record(kind, name, self._record(kind, name, version))

    def versions(self, kind: str, name: str) -> Tuple[CatalogEntry, ...]:
        """Every stored version of one name, oldest first."""
        return tuple(
            self._entry_from_record(kind, name, record)
            for record in self._versions(kind, name)
        )

    def names(self, kind: str) -> Tuple[str, ...]:
        """The stored names of one kind, sorted."""
        self._check_kind(kind)
        collected = set()
        for shard in range(_NUM_SHARDS):
            collected.update(self._shard_entries(shard).get(kind, {}))
        return tuple(sorted(collected))

    def entries(self, kind: Optional[str] = None) -> Tuple[CatalogEntry, ...]:
        """Latest version of every stored name (optionally of one kind)."""
        kinds = (kind,) if kind is not None else KINDS
        collected = []
        for each in kinds:
            self._check_kind(each)
            for name in self.names(each):
                collected.append(self.entry(each, name))
        return tuple(collected)

    def find_fingerprint(self, fingerprint: str) -> Tuple[CatalogEntry, ...]:
        """Every entry (any kind, any version) whose content has this fingerprint."""
        matches = []
        for kind, by_name in self._combined_index().items():
            for name, versions in by_name.items():
                for record in versions:
                    if record["fingerprint"] == fingerprint:
                        matches.append(self._entry_from_record(kind, name, record))
        return tuple(matches)

    def __len__(self) -> int:
        """Total number of stored versions across all kinds and names."""
        return sum(
            len(versions)
            for by_name in self._combined_index().values()
            for versions in by_name.values()
        )

    def stats(self) -> Dict[str, object]:
        """Per-kind name/version counts plus checkpoint-store counters."""
        combined = self._combined_index()
        per_kind = {}
        total = 0
        for kind in KINDS:
            by_name = combined.get(kind, {})
            versions = sum(len(records) for records in by_name.values())
            per_kind[kind] = {"names": len(by_name), "versions": versions}
            total += versions
        stats: Dict[str, object] = {"kinds": per_kind, "total_versions": total}
        if self._checkpoints is not None:
            stats["checkpoints"] = self._checkpoints.stats()
        if self._journal is not None:
            stats["journal"] = self._journal.stats()
            stats["epoch"] = self.epoch
        stats["retries"] = self.retry_stats.snapshot()
        return stats

    def __repr__(self) -> str:
        return f"<MappingCatalog at {str(self.root)!r}: {len(self)} stored versions>"


def _delta_protected_versions(versions: List[dict], doomed: set) -> set:
    """Version numbers that GC must not evict because a survivor depends on them.

    Walks the ``delta_base`` reference chain starting from every version
    *not* in ``doomed`` and collects each version the walk reaches — the
    walk deliberately continues *through* doomed versions, so a transitive
    base (survivor → doomed delta → doomed base) is rescued too.
    """
    by_version = {record["version"]: record for record in versions}
    protected: set = set()
    for record in versions:
        if record["version"] in doomed:
            continue
        current = record
        while True:
            base_version = current.get("delta_base")
            if base_version is None or base_version in protected:
                break
            protected.add(base_version)
            current = by_version.get(base_version)
            if current is None:
                break
    return protected
