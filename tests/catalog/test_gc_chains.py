"""Regression tests for chain-history GC and its delta-base guard.

A ``chain-delta`` record stores only a suffix; materializing it needs the
base version it references via ``delta_base`` — possibly transitively, when
deltas stack on deltas.  GC must therefore never evict a version a retained
version still reaches through that reference chain, no matter how aggressive
the age and keep-count policies are.  These tests GC aggressively and then
reconstruct every surviving version to prove it.
"""

import json

import pytest

from repro.catalog import GcPolicy, MappingCatalog
from repro.catalog.catalog import _delta_protected_versions
from repro.engine import ChainGrower
from repro.exceptions import CatalogError


#: Keep only the newest version and age every older one out.
_AGGRESSIVE = GcPolicy(chain_keep_versions=1, chain_max_age_seconds=0.0)


def _age_everything(catalog: MappingCatalog, kind: str) -> None:
    """Backdate every stored version of ``kind`` so no age bound protects it."""
    index_dir = catalog.root / "index"
    for path in sorted(index_dir.glob("shard-*.json")):
        payload = json.loads(path.read_text())
        changed = False
        for versions in payload.get("entries", {}).get(kind, {}).values():
            for record in versions:
                record["created_at"] = "2000-01-01T00:00:00Z"
                changed = True
        if changed:
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture()
def catalog(tmp_path):
    return MappingCatalog(tmp_path / "catalog")


@pytest.fixture()
def mappings():
    return tuple(ChainGrower(seed=17, schema_size=4).grow_many(5))


@pytest.fixture()
def other_mappings():
    return tuple(ChainGrower(seed=23, schema_size=4).grow_many(5))


class TestDeltaGuard:
    def test_walk_rescues_direct_base(self):
        versions = [
            {"version": 1, "fingerprint": "a", "path": "p1"},
            {"version": 2, "fingerprint": "b", "path": "p2", "delta_base": 1},
        ]
        assert _delta_protected_versions(versions, {1}) == {1}

    def test_walk_continues_through_doomed_deltas(self):
        # v3 survives; v2 and v1 are doomed.  v3 -> v2 -> v1 must rescue both.
        versions = [
            {"version": 1, "fingerprint": "a", "path": "p1"},
            {"version": 2, "fingerprint": "b", "path": "p2", "delta_base": 1},
            {"version": 3, "fingerprint": "c", "path": "p3", "delta_base": 2},
        ]
        assert _delta_protected_versions(versions, {1, 2}) == {1, 2}

    def test_unreferenced_versions_are_not_protected(self):
        versions = [
            {"version": 1, "fingerprint": "a", "path": "p1"},
            {"version": 2, "fingerprint": "b", "path": "p2"},  # full, no base
            {"version": 3, "fingerprint": "c", "path": "p3", "delta_base": 2},
        ]
        assert _delta_protected_versions(versions, {1, 2}) == {2}


class TestChainGC:
    def _grow_history(self, catalog, mappings, other_mappings, name="history"):
        """A history with a branch break in the middle.

        Versions 1..4 grow one chain (deltas on each other); version 5 shares
        no prefix with version 4, so it is stored full; versions 6..8 grow the
        new branch as deltas again.  With ``keep=1`` the survivor's reference
        chain covers only the new branch — the old branch is evictable.
        """
        for length in range(2, len(mappings) + 1):
            catalog.put_chain(name, mappings[:length])
        for length in range(2, len(other_mappings) + 1):
            catalog.put_chain(name, other_mappings[:length])
        versions = catalog._versions("chain", name)
        assert any("delta_base" in record for record in versions), (
            "test premise: the history must contain delta records"
        )
        assert any(
            "delta_base" not in record for record in versions[1:]
        ), "test premise: the branch break must be stored as a full record"
        return versions

    def test_aggressive_gc_keeps_every_survivor_materializable(
        self, catalog, mappings, other_mappings
    ):
        """GC with keep=1 and everything aged out; survivors must still load."""
        self._grow_history(catalog, mappings, other_mappings)
        _age_everything(catalog, "chain")
        before = {
            entry.version: entry.fingerprint
            for entry in catalog.versions("chain", "history")
        }

        report = catalog.gc(_AGGRESSIVE)

        survivors = catalog.versions("chain", "history")
        assert survivors, "the newest version must always survive"
        # Every surviving version still materializes to the exact content
        # it was stored with — no delta lost its base.
        for entry in survivors:
            chain = catalog.get_chain("history", entry.version)
            assert entry.fingerprint == before[entry.version]
            assert catalog.verify("chain", "history", entry.version)
            assert len(chain) >= 2
        # The newest survivor is the full original chain.
        assert catalog.get_chain("history") == other_mappings
        # And something was actually evicted — the guard protects bases,
        # it does not disable GC.
        assert report["chains"]["removed"] > 0

    def test_transitive_bases_survive(self, catalog, mappings, other_mappings):
        versions = self._grow_history(catalog, mappings, other_mappings)
        _age_everything(catalog, "chain")
        # Compute the set the guard must retain for the newest version.
        newest = versions[-1]
        needed = set()
        current = newest
        by_version = {record["version"]: record for record in versions}
        while current.get("delta_base") is not None:
            needed.add(current["delta_base"])
            current = by_version[current["delta_base"]]

        catalog.gc(_AGGRESSIVE)

        remaining = {entry.version for entry in catalog.versions("chain", "history")}
        assert needed <= remaining
        assert newest["version"] in remaining

    def test_gc_evictions_are_journaled_and_mirror(
        self, catalog, mappings, other_mappings, tmp_path
    ):
        """A replica applying the journal prunes exactly what the primary did."""
        self._grow_history(catalog, mappings, other_mappings)
        replica = MappingCatalog(tmp_path / "replica")
        shards = range(catalog.journal.num_shards)
        for shard in shards:
            for entry in catalog.journal.read_since(shard):
                replica.apply_journal_entry(entry)

        _age_everything(catalog, "chain")
        catalog.gc(_AGGRESSIVE)
        cursors = {shard: replica.journal.last_seq(shard) for shard in shards}
        for shard in shards:
            for entry in catalog.journal.read_since(shard, since=cursors[shard]):
                replica.apply_journal_entry(entry)

        ours = [e.version for e in replica.versions("chain", "history")]
        theirs = [e.version for e in catalog.versions("chain", "history")]
        assert ours == theirs
        assert replica.get_chain("history") == catalog.get_chain("history")

    def test_grace_window_blocks_eviction(self, catalog, mappings, other_mappings):
        self._grow_history(catalog, mappings, other_mappings)
        report = catalog.gc(
            GcPolicy(chain_keep_versions=1, chain_max_age_seconds=0.0, grace_seconds=3600)
        )
        # Everything was created moments ago: the grace floor retains it all.
        assert report["chains"]["removed"] == 0
        assert len(catalog.versions("chain", "history")) == len(mappings) + len(other_mappings) - 2

    def test_dry_run_removes_nothing(self, catalog, mappings, other_mappings):
        self._grow_history(catalog, mappings, other_mappings)
        _age_everything(catalog, "chain")
        count = len(catalog.versions("chain", "history"))
        report = catalog.gc(_AGGRESSIVE, dry_run=True)
        assert report["chains"]["removed"] >= 0
        assert len(catalog.versions("chain", "history")) == count

    def test_keep_versions_validated(self):
        with pytest.raises(CatalogError):
            GcPolicy(chain_keep_versions=0)
