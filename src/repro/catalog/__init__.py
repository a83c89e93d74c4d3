"""The mapping catalog: persistent, versioned storage for the composition engine.

Two pieces form the durability layer under :mod:`repro.service`:

* :mod:`repro.catalog.catalog` — :class:`MappingCatalog`, a disk-backed,
  versioned store of named schemas, mappings, chains, problems and composed
  results, content-addressed by the library's deterministic fingerprints and
  serialized in the extended plain-text format of :mod:`repro.textio.records`,
  and :class:`GcPolicy`, the validated bounds of one GC pass over it;
* :mod:`repro.catalog.checkpoints` — :class:`PersistentCheckpointStore`, the
  on-disk mirror of the hop-checkpoint store, so ``compose_chain`` prefix
  reuse survives process restarts;
* :mod:`repro.catalog.leases` — :class:`LeaseTable`, cross-process work
  claims with heartbeat renewal and stale-lease takeover, so two service
  processes fed the identical request do the work once;
* :mod:`repro.catalog.journal` — :class:`CatalogJournal`, the append-only,
  checksummed per-shard change log every index mutation is written to
  (fsynced, write-ahead) so replicas on other hosts can tail and mirror a
  catalog root.

All writes are atomic and rename-durable, and multi-process writers are
serialized with per-shard file locks (:mod:`repro.catalog.storage` —
:class:`FileLock`, with optional timeouts), so several service processes can
share one catalog root.  Disk reads and writes retry transient errors under
:class:`~repro.retry.RetryPolicy`, and every durability-critical code path
carries :mod:`repro.faults` injection points exercised by the chaos suite.
"""

from repro.catalog.catalog import KINDS, CatalogEntry, GcPolicy, MappingCatalog
from repro.catalog.checkpoints import PersistentCheckpointStore
from repro.catalog.journal import CatalogJournal, decode_entry, encode_entry, scan_entries
from repro.catalog.leases import Lease, LeaseTable
from repro.catalog.storage import FileLock, atomic_write_bytes, atomic_write_text

__all__ = [
    "KINDS",
    "CatalogEntry",
    "CatalogJournal",
    "MappingCatalog",
    "FileLock",
    "GcPolicy",
    "Lease",
    "LeaseTable",
    "PersistentCheckpointStore",
    "atomic_write_bytes",
    "atomic_write_text",
    "decode_entry",
    "encode_entry",
    "scan_entries",
]
