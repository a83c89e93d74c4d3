"""Tests for the catalog's replication journal.

Two properties carry the replication protocol and are exercised here with
seeded generators (the style of ``tests/textio/test_property_textio.py``):

* **Byte stability** — the canonical JSON encoding means
  ``encode_entry(decode_entry(data)[0]) == data`` for every well-formed
  entry, so replicas can compare journals byte for byte.
* **Torn-tail recovery** — truncating the segment mid-record at *every*
  byte offset of the last entry must leave a journal that heals cleanly:
  all fully-written entries survive, the partial one disappears, and the
  next append continues the sequence.
"""

import json
import os
import random

import pytest

from repro import faults
from repro.catalog import MappingCatalog
from repro.catalog import journal as journal_module
from repro.catalog.journal import (
    CatalogJournal,
    decode_entry,
    encode_entry,
    scan_entries,
)
from repro.engine import ChainGrower
from repro.exceptions import JournalError
from repro.faults import FaultInjector

NUM_CASES = 25


def _random_payload(rng: random.Random) -> dict:
    """A random JSON-able journal payload: nested dicts/lists/scalars."""

    def value(depth: int):
        choices = ["str", "int", "float", "bool", "none"]
        if depth < 2:
            choices += ["list", "dict"]
        kind = rng.choice(choices)
        if kind == "str":
            return "".join(rng.choice("abcdefgh_:/.-0123456789") for _ in range(rng.randrange(0, 12)))
        if kind == "int":
            return rng.randrange(-(10**9), 10**9)
        if kind == "float":
            return rng.randrange(-(10**6), 10**6) / 128.0
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "none":
            return None
        if kind == "list":
            return [value(depth + 1) for _ in range(rng.randrange(0, 4))]
        return {f"k{idx}": value(depth + 1) for idx in range(rng.randrange(0, 4))}

    payload = {f"field_{idx}": value(0) for idx in range(rng.randrange(1, 6))}
    payload["op"] = rng.choice(["put", "evict"])
    payload["seq"] = rng.randrange(1, 10**6)
    return payload


class TestEncoding:
    def test_round_trip_is_byte_stable(self):
        """encode -> decode -> encode reproduces the exact bytes, 25 seeds."""
        for case in range(NUM_CASES):
            rng = random.Random(1000 + case)
            payload = _random_payload(rng)
            data = encode_entry(payload)
            decoded, consumed = decode_entry(data)
            assert consumed == len(data)
            assert decoded == payload
            assert encode_entry(decoded) == data, f"case {case} not byte-stable"

    def test_encoding_is_deterministic_under_key_order(self):
        a = encode_entry({"b": 1, "a": 2})
        b = encode_entry({"a": 2, "b": 1})
        assert a == b

    def test_decode_rejects_corruption(self):
        data = encode_entry({"op": "put", "seq": 1})
        flipped = bytearray(data)
        flipped[-1] ^= 0xFF
        with pytest.raises(JournalError):
            decode_entry(bytes(flipped))
        with pytest.raises(JournalError):
            decode_entry(data[: len(data) - 1])
        with pytest.raises(JournalError):
            decode_entry(data[:3])

    def test_scan_stops_at_first_bad_entry(self):
        whole = encode_entry({"seq": 1}) + encode_entry({"seq": 2})
        torn = whole + encode_entry({"seq": 3})[:5]
        entries, clean = scan_entries(torn)
        assert [entry["seq"] for entry in entries] == [1, 2]
        assert clean == len(whole)


class TestAppendRead:
    def test_append_assigns_monotonic_seqs(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=4)
        seqs = [journal.append(2, {"op": "put", "n": n}) for n in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert journal.last_seq(2) == 5
        entries = journal.read_since(2, since=0)
        assert [entry["n"] for entry in entries] == [0, 1, 2, 3, 4]
        assert all(entry["shard"] == 2 for entry in entries)

    def test_shards_are_independent(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=4)
        journal.append(0, {"op": "put"})
        journal.append(1, {"op": "put"})
        journal.append(1, {"op": "put"})
        assert [journal.last_seq(shard) for shard in range(4)] == [1, 2, 0, 0]

    def test_explicit_seq_is_idempotent(self, tmp_path):
        """A follower re-applying an already-journaled entry is a no-op."""
        journal = CatalogJournal(tmp_path / "journal", num_shards=1)
        journal.append(0, {"op": "put", "n": 1}, seq=7)
        assert journal.append(0, {"op": "put", "n": 1}, seq=7) == 7
        assert journal.append(0, {"op": "put", "n": 0}, seq=3) == 3  # below tail: no-op
        entries = journal.read_since(0)
        assert [entry["seq"] for entry in entries] == [7]
        assert journal.append(0, {"op": "put", "n": 2}) == 8

    def test_read_since_cursor_and_limit(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1)
        for n in range(10):
            journal.append(0, {"n": n})
        assert [e["seq"] for e in journal.read_since(0, since=7)] == [8, 9, 10]
        assert [e["seq"] for e in journal.read_since(0, since=2, limit=3)] == [3, 4, 5]
        assert journal.read_since(0, since=10) == []

    def test_segment_rotation_preserves_order(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=64)
        for n in range(20):
            journal.append(0, {"n": n, "pad": "x" * 16})
        assert len(journal.segments(0)) > 1
        entries = journal.read_since(0)
        assert [entry["seq"] for entry in entries] == list(range(1, 21))
        # A fresh handle over the same directory sees the same tail state.
        reopened = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=64)
        assert reopened.last_seq(0) == 20
        assert reopened.append(0, {"n": 20}) == 21

    def test_shard_bounds_checked(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=2)
        with pytest.raises(JournalError):
            journal.append(2, {})
        with pytest.raises(JournalError):
            journal.read_since(-1)


class TestTornTail:
    def test_truncation_at_every_byte_offset_recovers(self, tmp_path):
        """Cut the segment anywhere inside the last entry; recovery is clean.

        For every byte offset within the final record (header and body alike)
        the reopened journal must report the fully-written prefix, heal the
        tail on the next append, and continue the sequence without gaps.
        """
        base = tmp_path / "base"
        journal = CatalogJournal(base, num_shards=1)
        for n in range(3):
            journal.append(0, {"op": "put", "n": n, "pad": "y" * 8})
        (segment,) = journal.segments(0)
        whole = segment.read_bytes()
        _, keep = scan_entries(whole[: len(whole) - 1])  # start of the last entry
        last_entry_start = keep

        for cut in range(last_entry_start + 1, len(whole)):
            root = tmp_path / f"cut-{cut}"
            shard_dir = root / "shard-00"
            shard_dir.mkdir(parents=True)
            (shard_dir / segment.name).write_bytes(whole[:cut])

            torn = CatalogJournal(root, num_shards=1)
            # Readers stop at the tear without modifying the file.
            assert [e["n"] for e in torn.read_since(0)] == [0, 1]
            assert torn.last_seq(0) == 2
            assert os.path.getsize(shard_dir / segment.name) == cut
            # The next append (under the shard lock) heals and continues.
            assert torn.append(0, {"op": "put", "n": 99}) == 3
            assert torn.truncated_tails == 1
            entries = torn.read_since(0)
            assert [e["n"] for e in entries] == [0, 1, 99]
            assert [e["seq"] for e in entries] == [1, 2, 3]

    def test_wholly_torn_segment_keeps_sequence(self, tmp_path):
        """Even a segment with zero clean entries preserves the seq counter."""
        journal = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=1)
        for n in range(3):
            journal.append(0, {"n": n})  # max_segment_bytes=1: one entry per segment
        tail = journal.segments(0)[-1]
        tail.write_bytes(tail.read_bytes()[:3])  # tear the whole only entry
        reopened = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=1)
        assert reopened.last_seq(0) == 2  # the torn entry was never acknowledged
        assert reopened.append(0, {"n": 99}) == 3

    def test_injected_torn_append_heals_on_retry(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1)
        journal.append(0, {"n": 0})
        faults.install(FaultInjector.from_text("journal.append.torn:torn:limit=1"))
        try:
            with pytest.raises(OSError):
                journal.append(0, {"n": 1})
            # A torn prefix landed; the retry truncates it and appends cleanly.
            assert journal.append(0, {"n": 1}) == 2
        finally:
            faults.clear()
        assert journal.truncated_tails == 1
        assert [e["n"] for e in journal.read_since(0)] == [0, 1]

    def test_injected_fsync_failure_surfaces(self, tmp_path):
        """A failed fsync raises to the caller, so the mutation is not acked.

        The entry's bytes may still be whole on disk — that is fine: it was
        never acknowledged, and replay keyed on fingerprints absorbs the
        duplicate the retry appends.
        """
        journal = CatalogJournal(tmp_path / "journal", num_shards=1)
        faults.install(FaultInjector.from_text("journal.append.fsync:eio:limit=1"))
        try:
            with pytest.raises(OSError):
                journal.append(0, {"n": 0})
            retried = journal.append(0, {"n": 0})
        finally:
            faults.clear()
        entries = journal.read_since(0)
        assert entries[-1]["seq"] == retried
        assert all(entry["n"] == 0 for entry in entries)


class TestReadCache:
    """An idle shard is answered from one stat; the cache is read-only."""

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        scan = journal_module.scan_entries

        def counted(data):
            scans.append(len(data))
            return scan(data)

        monkeypatch.setattr(journal_module, "scan_entries", counted)
        return scans

    def test_idle_shard_reads_no_segment(self, tmp_path, monkeypatch):
        writer = CatalogJournal(tmp_path / "journal", num_shards=2)
        for n in range(3):
            writer.append(0, {"n": n})
        reader = CatalogJournal(tmp_path / "journal", num_shards=2)
        assert reader.last_seq(0) == 3
        scans = self._count_scans(monkeypatch)
        assert reader.last_seq(0) == 3
        assert reader.read_since(0, since=3) == []
        assert reader.poll([3, 0], 256) == ([3, 0], {})
        assert scans == []
        writer.append(0, {"n": 3})
        assert reader.poll([3, 0], 256) == ([4, 0], {0: reader.read_since(0, since=3)})
        assert scans

    def test_idle_read_still_fires_the_replay_fault_point(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1)
        journal.append(0, {"n": 0})
        assert journal.read_since(0, since=1) == []
        faults.install(FaultInjector.from_text("journal.replay:eio:limit=1"))
        try:
            with pytest.raises(OSError):
                journal.read_since(0, since=1)
        finally:
            faults.clear()

    def test_another_handles_appends_rotations_and_gc_are_seen(self, tmp_path):
        writer = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=200)
        reader = CatalogJournal(tmp_path / "journal", num_shards=1)
        writer.append(0, {"n": 0})
        assert reader.last_seq(0) == 1
        writer.append(0, {"n": 1})
        assert len(writer.segments(0)) == 1
        assert reader.last_seq(0) == 2
        for n in range(2, 8):
            writer.append(0, {"n": n, "pad": "x" * 40})
        assert len(writer.segments(0)) > 1
        assert reader.last_seq(0) == 8
        assert [e["seq"] for e in reader.read_since(0, since=6)] == [7, 8]
        writer.gc(max_segments=1)
        assert reader.last_seq(0) == 8
        assert reader.read_since(0, since=8) == []
        assert reader.read_since(0, since=7)[0]["seq"] == 8

    def test_torn_tail_is_read_not_healed_then_seen_healed(self, tmp_path):
        writer = CatalogJournal(tmp_path / "journal", num_shards=1)
        for n in range(2):
            writer.append(0, {"n": n})
        (segment,) = writer.segments(0)
        with open(segment, "ab") as handle:
            handle.write(encode_entry({"n": 2, "seq": 3})[:7])
        torn_size = os.path.getsize(segment)
        reader = CatalogJournal(tmp_path / "journal", num_shards=1)
        assert reader.last_seq(0) == 2
        assert reader.read_since(0, since=1)[-1]["seq"] == 2
        assert os.path.getsize(segment) == torn_size
        healer = CatalogJournal(tmp_path / "journal", num_shards=1)
        assert healer.append(0, {"n": 2}) == 3
        assert reader.last_seq(0) == 3

    def test_poll_pages_entries_across_shards(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=3)
        for shard, count in ((0, 2), (1, 3), (2, 2)):
            for n in range(count):
                journal.append(shard, {"n": n})
        last_seqs, entries = journal.poll([0, 0, 0], 4)
        assert last_seqs == [2, 3, 2]
        assert {shard: [e["seq"] for e in page] for shard, page in entries.items()} == {
            0: [1, 2],
            1: [1, 2],
        }
        last_seqs, entries = journal.poll([2, 2, 0], 4)
        assert {shard: [e["seq"] for e in page] for shard, page in entries.items()} == {
            1: [3],
            2: [1, 2],
        }
        with pytest.raises(JournalError):
            journal.poll([0, 0], 4)
        with pytest.raises(JournalError):
            journal.poll([0, 0, 0], 0)


class TestRetention:
    def test_gc_drops_old_segments_but_never_the_tail(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=1)
        for n in range(6):
            journal.append(0, {"n": n})
        assert len(journal.segments(0)) == 6
        preview = journal.gc(max_segments=2, dry_run=True)
        assert preview["removed"] == 4 and len(journal.segments(0)) == 6
        report = journal.gc(max_segments=2)
        assert report["removed"] == 4
        assert len(journal.segments(0)) == 2
        # The tail survives, so the sequence counter does too.
        assert journal.last_seq(0) == 6
        assert journal.append(0, {"n": 6}) == 7
        assert [e["seq"] for e in journal.read_since(0, since=4)] == [5, 6, 7]

    def test_gc_by_age(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1, max_segment_bytes=1)
        for n in range(3):
            journal.append(0, {"n": n})
        old = journal.segments(0)[0]
        os.utime(old, (1, 1))
        report = journal.gc(max_age_seconds=3600)
        assert report["removed"] == 1
        assert old not in journal.segments(0)

    def test_gc_validates_parameters(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=1)
        with pytest.raises(JournalError):
            journal.gc(max_segments=0)
        with pytest.raises(JournalError):
            journal.gc(max_age_seconds=-1)

    def test_stats(self, tmp_path):
        journal = CatalogJournal(tmp_path / "journal", num_shards=2)
        journal.append(0, {"n": 0})
        journal.append(1, {"n": 1})
        stats = journal.stats()
        assert stats["segments"] == 2
        assert stats["bytes"] > 0
        assert stats["last_seqs"] == {"0": 1, "1": 1}
        assert stats["truncated_tails"] == 0


class TestCatalogWiring:
    def test_put_is_journaled_before_publish(self, tmp_path):
        """Every acknowledged version has a matching journal entry."""
        catalog = MappingCatalog(tmp_path / "cat")
        mapping = next(iter(ChainGrower(seed=3, schema_size=4).grow_many(1)))
        entry = catalog.put_mapping("m", mapping)
        shard = catalog._shard_id("mapping", "m")
        (journaled,) = catalog.journal.read_since(shard)
        assert journaled["op"] == "put"
        assert journaled["kind"] == "mapping"
        assert journaled["name"] == "m"
        assert journaled["record"]["fingerprint"] == entry.fingerprint
        assert journaled["text"] == catalog.raw_text("mapping", "m")

    def test_full_mirror_is_fingerprint_identical(self, tmp_path):
        """Replaying every journal entry reconstructs an identical catalog."""
        primary = MappingCatalog(tmp_path / "primary")
        chain = tuple(ChainGrower(seed=11, schema_size=4).grow_many(4))
        for index, mapping in enumerate(chain):
            primary.put_mapping(f"map-{index % 2}", mapping)
        primary.put_chain("the-chain", chain[:2])
        primary.put_chain("the-chain", chain[:3])  # stored as a delta

        replica = MappingCatalog(tmp_path / "replica")
        for shard in range(primary.journal.num_shards):
            for entry in primary.journal.read_since(shard):
                outcome = replica.apply_journal_entry(entry)
                assert outcome in {"applied", "skipped"}

        for kind in ("mapping", "chain"):
            assert replica.names(kind) == primary.names(kind)
            for name in primary.names(kind):
                ours = [e.fingerprint for e in replica.versions(kind, name)]
                theirs = [e.fingerprint for e in primary.versions(kind, name)]
                assert ours == theirs
                assert replica.raw_text(kind, name) == primary.raw_text(kind, name)
                assert replica.verify(kind, name)
        # Replay is idempotent: a second pass changes nothing.
        for shard in range(primary.journal.num_shards):
            for entry in primary.journal.read_since(shard):
                assert replica.apply_journal_entry(entry) == "skipped"

    def test_apply_rejects_unknown_op(self, tmp_path):
        from repro.exceptions import CatalogError

        catalog = MappingCatalog(tmp_path / "cat")
        with pytest.raises(CatalogError):
            catalog.apply_journal_entry({"op": "mangle", "kind": "mapping", "name": "x"})

    def test_journal_entries_are_canonical_json(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        mapping = next(iter(ChainGrower(seed=9, schema_size=4).grow_many(1)))
        catalog.put_mapping("m", mapping)
        shard = catalog._shard_id("mapping", "m")
        (segment,) = catalog.journal.segments(shard)
        data = segment.read_bytes()
        (entry,), clean = scan_entries(data)
        assert clean == len(data)
        assert encode_entry(entry) == data  # byte-stable on disk too
        assert json.loads(json.dumps(entry)) == entry
