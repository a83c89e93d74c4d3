"""The catalog's replication journal: an append-only, per-shard change log.

A shared catalog root (PR 6-7) keeps *one host's* processes consistent; this
module is the cross-host half.  Every index mutation the catalog publishes —
a ``put`` appending a version or a GC ``evict`` — is first appended,
fsynced, to this journal, so a replica that tails the journal and applies
its entries reconstructs a fingerprint-identical catalog without ever
reading the primary's index shards.

Layout and format
-----------------

One directory per index shard, segment files named by the sequence number of
their first entry::

    <catalog root>/journal/shard-<NN>/<first-seq, 20 digits>.seg

Each entry is length-prefixed and checksummed::

    +----------------+----------------+------------------------+
    | payload length | CRC32(payload) | payload (JSON, UTF-8)  |
    |   u32, BE      |    u32, BE     |   canonical encoding   |
    +----------------+----------------+------------------------+

The payload is deterministic JSON (sorted keys, compact separators, ASCII),
so encoding the same entry twice yields the same bytes — replicas can compare
journals byte for byte, and the property tests assert the round-trip is
byte-stable.  Entries carry monotonic per-shard ``seq`` numbers starting at
1; the follower's replay cursor is simply its own journal's last sequence.

Durability and recovery
-----------------------

Appends are written with ``O_APPEND`` and fsynced before the caller may
publish the corresponding index mutation (write-ahead order: object file,
journal, index).  A writer that dies mid-append leaves a *torn tail* —
a trailing partial entry whose length/CRC do not check out.  The next
append under the shard lock detects the tear, truncates the segment back
to its last whole entry, and continues; readers simply stop at the first
bad entry (they will see the rest next poll).  Because every acknowledged
mutation was journaled before the index was published, truncating unacked
tail bytes never loses an acknowledged version.

Replay is idempotent: entries carry the content fingerprint of the version
they describe, and :meth:`~repro.catalog.MappingCatalog.apply_journal_entry`
skips entries whose (version, fingerprint) is already present.

Fencing epochs
--------------

Failover needs more than replay: a SIGKILLed primary can *come back*.  The
journal therefore persists a monotonically increasing **fencing epoch** in
``<journal>/EPOCH`` (absent = epoch 0, the never-promoted state).  Promotion
bumps it under a file lock; every local write stamps the writer's adopted
epoch into its journal entry, and the catalog refuses local writes once the
persisted epoch outruns the handle's (or once a ``FENCED`` tombstone names a
higher authority) — the zombie ex-primary gets
:class:`~repro.exceptions.StaleEpochError` instead of split-braining the
store.  Mirroring through ``apply_journal_entry`` stays allowed on a fenced
root, so it can be re-seeded as a follower of the new primary.

Fault points: ``journal.append.torn`` (a prefix of the entry lands and the
append dies), ``journal.append.fsync`` (the fsync fails or stalls),
``journal.replay`` (reading entries back), and ``journal.epoch.write``
(persisting the epoch or the fence tombstone).
"""

from __future__ import annotations

import errno
import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.catalog.storage import FileLock, atomic_write_text
from repro.exceptions import JournalError

__all__ = [
    "CatalogJournal",
    "encode_entry",
    "decode_entry",
    "scan_entries",
    "DEFAULT_MAX_SEGMENT_BYTES",
    "DEFAULT_POLL_LIMIT",
]

#: ``>II`` — payload length then CRC32 of the payload, both unsigned 32-bit BE.
_HEADER = struct.Struct(">II")

#: Rotation threshold: a segment past this size stops accepting appends.
DEFAULT_MAX_SEGMENT_BYTES = 1 << 20

#: Most entries a follower poll asks for by default (the HTTP endpoint's too).
DEFAULT_POLL_LIMIT = 256

#: A poll's answer: every shard's last seq, and the entries past the cursors
#: (shard -> entries, oldest first; shards with nothing new left out).
Poll = Tuple[List[int], Dict[int, List[dict]]]

#: Entries beyond this are treated as corruption, not data — a garbage length
#: prefix must not make a reader try to allocate gigabytes.
_MAX_ENTRY_BYTES = 64 << 20

_SEGMENT_SUFFIX = ".seg"

#: The persisted fencing epoch (absent = 0) and the fence tombstone.
_EPOCH_FILE = "EPOCH"
_FENCED_FILE = "FENCED"
_EPOCH_LOCK_FILE = "EPOCH.lock"
_EPOCH_LOCK_TIMEOUT_SECONDS = 10.0

#: Follower applied-seq metadata persisted by an ``ack_level=replica``
#: primary; its presence activates the GC retention floor.
_REPLICA_ACKS_FILE = "replica-acks.json"


def encode_entry(payload: dict) -> bytes:
    """One journal entry as bytes: header + canonical JSON payload.

    The JSON encoding is deterministic (sorted keys, compact separators,
    ASCII-only), so ``encode_entry(decode_entry(data)[0]) == data`` holds for
    every well-formed entry — the byte-stability the replication protocol
    and the property tests rely on.
    """
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")
    if len(body) > _MAX_ENTRY_BYTES:
        raise JournalError(f"journal entry of {len(body)} bytes exceeds the size bound")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_entry(data: bytes, offset: int = 0) -> Tuple[dict, int]:
    """Decode the entry at ``offset``; returns ``(payload, next_offset)``.

    Raises :class:`~repro.exceptions.JournalError` on a truncated header or
    body, a CRC mismatch, or an undecodable payload — the conditions a torn
    or corrupted tail presents.
    """
    if offset + _HEADER.size > len(data):
        raise JournalError("truncated journal entry header")
    length, checksum = _HEADER.unpack_from(data, offset)
    if length > _MAX_ENTRY_BYTES:
        raise JournalError(f"journal entry length {length} exceeds the size bound")
    start = offset + _HEADER.size
    end = start + length
    if end > len(data):
        raise JournalError("truncated journal entry body")
    body = data[start:end]
    if zlib.crc32(body) != checksum:
        raise JournalError("journal entry checksum mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"journal entry payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise JournalError("journal entry payload is not a JSON object")
    return payload, end


def scan_entries(data: bytes) -> Tuple[List[dict], int]:
    """Every whole entry in ``data``, plus the byte length they cover.

    Scanning stops at the first truncated/corrupt entry — the torn-tail
    case — and reports how many bytes of clean entries precede it, which is
    exactly where recovery truncates.
    """
    entries: List[dict] = []
    offset = 0
    while offset < len(data):
        try:
            payload, offset = decode_entry(data, offset)
        except JournalError:
            break
        entries.append(payload)
    return entries, offset


class CatalogJournal:
    """Per-shard append-only change logs under one directory.

    Appends must happen under the owning shard's file lock (the catalog calls
    from inside :meth:`~repro.catalog.MappingCatalog._mutate_shard`), which
    serializes sequence assignment across processes; reads take no lock and
    are safe against a concurrently appending writer — a reader that catches
    a half-written tail entry simply stops before it.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        num_shards: int = 16,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
    ):
        if num_shards < 1:
            raise JournalError("num_shards must be positive")
        if max_segment_bytes < 1:
            raise JournalError("max_segment_bytes must be positive")
        self.directory = Path(directory)
        self.num_shards = num_shards
        self.max_segment_bytes = max_segment_bytes
        #: Torn tails healed by truncation since this handle opened.
        self.truncated_tails = 0
        # Tail cache: shard -> (tail path, size, last seq).  Revalidated by a
        # stat on every append, so another process's appends are picked up.
        self._tails: Dict[int, Tuple[Path, int, int]] = {}
        # Read-side cache: shard -> ((tail path, size, mtime_ns), last seq),
        # kept only for a tail read whole and clean.  One stat revalidates
        # it, so an idle shard is answered without reading a segment.
        self._last_seqs: Dict[int, Tuple[Tuple[Path, int, int], int]] = {}
        # Epoch/fence caches: (stat signature, value).  Revalidated by a stat
        # per read, so another process's promotion is observed promptly.
        self._epoch_cache: Optional[Tuple[Tuple[int, int], int]] = None
        self._fenced_cache: Optional[Tuple[Tuple[int, int], int]] = None

    # -- layout --------------------------------------------------------------------

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise JournalError(
                f"shard {shard} out of range (journal has {self.num_shards} shards)"
            )

    def shard_dir(self, shard: int) -> Path:
        self._check_shard(shard)
        return self.directory / f"shard-{shard:02d}"

    @staticmethod
    def _first_seq(path: Path) -> int:
        try:
            return int(path.name[: -len(_SEGMENT_SUFFIX)])
        except ValueError as exc:
            raise JournalError(f"malformed journal segment name {path.name!r}") from exc

    def segments(self, shard: int) -> List[Path]:
        """This shard's segment files, oldest first."""
        directory = self.shard_dir(shard)
        try:
            names = [
                name for name in os.listdir(directory) if name.endswith(_SEGMENT_SUFFIX)
            ]
        except OSError:
            return []
        return [directory / name for name in sorted(names)]

    # -- appending -----------------------------------------------------------------

    def _tail_state(self, shard: int) -> Tuple[Optional[Path], int, int]:
        """``(tail path, clean size, last seq)``; heals a torn tail in passing.

        Only the append path (which holds the shard lock) calls this, so the
        truncation never races another writer; pure readers must not — they
        may be looking at a *live* primary's files over a shared filesystem.
        """
        segments = self.segments(shard)
        if not segments:
            return None, 0, 0
        path = segments[-1]
        try:
            size = os.path.getsize(path)
        except OSError:
            size = -1
        cached = self._tails.get(shard)
        if cached is not None and cached[0] == path and cached[1] == size:
            return cached
        data = path.read_bytes()
        entries, clean = scan_entries(data)
        if clean < len(data):
            # Torn tail: a writer died mid-append.  The partial entry was
            # never acknowledged (the fsync that would have allowed the index
            # publish did not complete), so truncating it loses nothing.
            with open(path, "r+b") as handle:
                handle.truncate(clean)
                handle.flush()
                os.fsync(handle.fileno())
            self.truncated_tails += 1
        if entries:
            last = int(entries[-1].get("seq", 0))
        else:
            # An all-torn (now empty) tail: the segment name records the seq
            # its first entry would have carried.
            last = self._first_seq(path) - 1
        state = (path, clean, last)
        self._tails[shard] = state
        return state

    def append(self, shard: int, payload: dict, seq: Optional[int] = None) -> int:
        """Append one entry, fsynced; returns its sequence number.

        The caller must hold the shard's index lock.  Without ``seq`` the
        next per-shard sequence is assigned; with ``seq`` (a follower
        mirroring a primary's entry) the original number is preserved, and a
        ``seq`` at or below the current tail is an idempotent no-op — the
        entry is already journaled.
        """
        self._check_shard(shard)
        # The span covers the whole durable append — tail rescan, write, and
        # fsync — which is the store's true durability latency.  No-op when
        # the request is untraced.
        with obs.span("journal.append", shard=shard):
            path, size, last = self._tail_state(shard)
            if seq is None:
                seq = last + 1
            elif seq <= last:
                return seq
            entry = dict(payload)
            entry["seq"] = seq
            entry["shard"] = shard
            data = encode_entry(entry)
            if path is None or size >= self.max_segment_bytes:
                path = self.shard_dir(shard) / f"{seq:020d}{_SEGMENT_SUFFIX}"
                size = 0
            self._append_bytes(shard, path, data)
            self._tails[shard] = (path, size + len(data), seq)
            return seq

    def _append_bytes(self, shard: int, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            torn = faults.torn_data("journal.append.torn", data)
            if torn is not None:
                # A torn append: a prefix lands, the writer dies.  The next
                # append (or open) truncates it back — exercised by the
                # chaos suite.
                os.write(fd, torn)
                raise OSError(errno.EIO, f"injected torn journal append to {path}")
            os.write(fd, data)
            faults.fire("journal.append.fsync", path=str(path))
            os.fsync(fd)
        except BaseException:
            # Whatever happened, the tail may now hold torn bytes; drop the
            # cache so the next append rescans and heals.
            self._tails.pop(shard, None)
            raise
        finally:
            os.close(fd)

    # -- reading -------------------------------------------------------------------

    def read_since(
        self, shard: int, since: int = 0, limit: Optional[int] = None
    ) -> List[dict]:
        """Entries with ``seq > since``, oldest first (up to ``limit``).

        Lock-free: safe to call on a live primary's journal (locally or from
        the HTTP journal endpoint).  A half-written tail entry ends the scan;
        the caller sees it completed on a later poll.  A cursor at or past
        :meth:`last_seq` is answered from one stat, without reading a segment.
        """
        return self._read(shard, since, limit)[1]

    def poll(self, cursors: Sequence[int], limit: int) -> Poll:
        """One follower poll: every shard's last seq and the entries past its cursor.

        ``cursors[shard]`` is the poller's applied seq of ``shard``.  The
        entries come shard by shard, oldest first, at most ``limit`` of them
        in all, so a long backlog pages over several polls; a shard with
        nothing past its cursor is left out of the dict.
        """
        if len(cursors) != self.num_shards:
            raise JournalError(
                f"expected {self.num_shards} cursors, got {len(cursors)}"
            )
        if limit < 1:
            raise JournalError("limit must be positive")
        last_seqs: List[int] = []
        entries: Dict[int, List[dict]] = {}
        for shard, since in enumerate(cursors):
            last, page = self._read(shard, since, limit)
            last_seqs.append(last)
            if page:
                entries[shard] = page
                limit -= len(page)
        return last_seqs, entries

    def _read(
        self, shard: int, since: int, limit: Optional[int]
    ) -> Tuple[int, List[dict]]:
        """``(last seq, entries past since)`` of one shard, listing it once."""
        self._check_shard(shard)
        faults.fire("journal.replay", shard=shard, since=since)
        segments = self.segments(shard)
        last = self._tail_seq(shard, segments)
        out: List[dict] = []
        if since >= last or limit == 0:
            return last, out
        for index, path in enumerate(segments):
            if index + 1 < len(segments) and self._first_seq(segments[index + 1]) <= since + 1:
                continue  # wholly covered by the cursor
            try:
                data = path.read_bytes()
            except OSError:
                continue  # raced a retention sweep
            entries, _ = scan_entries(data)
            for entry in entries:
                if int(entry.get("seq", 0)) <= since:
                    continue
                out.append(entry)
                if limit is not None and len(out) >= limit:
                    return last, out
        return last, out

    def last_seq(self, shard: int) -> int:
        """The newest sequence number journaled for ``shard`` (0 when empty).

        Lock-free and read-only (no tail healing) for the same reason as
        :meth:`read_since`.  The directory is listed on every call, so
        another process's rotations and GC are seen; the tail segment is
        read only when its stat changed since the last call.
        """
        self._check_shard(shard)
        return self._tail_seq(shard, self.segments(shard))

    def _tail_seq(self, shard: int, segments: List[Path]) -> int:
        if not segments:
            return 0
        path = segments[-1]
        try:
            st = os.stat(path)
        except OSError:
            return 0
        key = (path, st.st_size, st.st_mtime_ns)
        cached = self._last_seqs.get(shard)
        if cached is not None and cached[0] == key:
            return cached[1]
        try:
            data = path.read_bytes()
        except OSError:
            return 0
        entries, clean = scan_entries(data)
        last = int(entries[-1].get("seq", 0)) if entries else self._first_seq(path) - 1
        if clean == len(data) == st.st_size:
            # Only a tail read whole and clean is cached: appends only grow
            # a segment and healing only cuts torn bytes, so a clean tail of
            # one size always ends at the same seq.
            self._last_seqs[shard] = (key, last)
        return last

    # -- fencing epochs ------------------------------------------------------------

    def _stat_cached_int(self, name: str, cache_attr: str) -> Optional[int]:
        """Read an integer marker file next to the shards, cached by stat."""
        path = self.directory / name
        try:
            st = os.stat(path)
        except OSError:
            setattr(self, cache_attr, None)
            return None
        signature = (st.st_mtime_ns, st.st_size)
        cached = getattr(self, cache_attr)
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            value = int(path.read_text(encoding="utf-8").strip() or "0")
        except OSError:
            return None
        except ValueError as exc:
            raise JournalError(f"malformed epoch marker {path}: {exc}") from exc
        setattr(self, cache_attr, (signature, value))
        return value

    def read_epoch(self) -> int:
        """The persisted fencing epoch (0 when this root was never promoted)."""
        value = self._stat_cached_int(_EPOCH_FILE, "_epoch_cache")
        return 0 if value is None else value

    def write_epoch(self, epoch: int) -> int:
        """Persist ``epoch`` (must not regress); returns it.

        Fault point: ``journal.epoch.write``.
        """
        if epoch < 1:
            raise JournalError("epoch must be positive")
        current = self.read_epoch()
        if epoch < current:
            raise JournalError(
                f"fencing epoch is monotonic: cannot write {epoch} over {current}"
            )
        path = self.directory / _EPOCH_FILE
        faults.fire("journal.epoch.write", path=str(path), epoch=epoch)
        atomic_write_text(path, f"{epoch}\n")
        self._epoch_cache = None
        return epoch

    def bump_epoch(self) -> int:
        """Atomically increment and persist the epoch; returns the new value.

        Serialized by a file lock so two racing promotions (the election's
        losing candidate finishing a beat late) still mint distinct epochs.
        """
        with FileLock(
            self.directory / _EPOCH_LOCK_FILE, timeout=_EPOCH_LOCK_TIMEOUT_SECONDS
        ):
            return self.write_epoch(self.read_epoch() + 1)

    def fence(self, epoch: int) -> int:
        """Fence this root off at ``epoch``: local writes must fail from now on.

        A promoted replica calls this on its dead source's root, so a zombie
        ex-primary that resurrects there observes the tombstone and raises
        :class:`~repro.exceptions.StaleEpochError` instead of accepting
        writes.  Mirrored applies stay allowed — the fenced root can be
        re-seeded as a follower of the new primary.
        """
        if epoch < 1:
            raise JournalError("epoch must be positive")
        current = self.fenced_epoch()
        if current is not None and epoch < current:
            return current
        path = self.directory / _FENCED_FILE
        faults.fire("journal.epoch.write", path=str(path), epoch=epoch)
        atomic_write_text(path, f"{epoch}\n")
        self._fenced_cache = None
        return epoch

    def fenced_epoch(self) -> Optional[int]:
        """The epoch this root was fenced at, or ``None`` (not fenced)."""
        return self._stat_cached_int(_FENCED_FILE, "_fenced_cache")

    # -- retention -----------------------------------------------------------------

    def replica_ack_floor(self) -> Optional[Dict[int, int]]:
        """Per-shard minimum follower-acknowledged seq, or ``None``.

        Reads the ``replica-acks.json`` an ``ack_level=replica`` primary
        persists next to the shards.  ``None`` means no ack metadata is
        present (``ack_level=journal`` deployments) — retention falls back to
        the tail-protection rule alone.  A follower that has never reported a
        shard floors it at 0, and unreadable metadata floors *every* shard at
        0: both maximally conservative, nothing is dropped past them.
        """
        path = self.directory / _REPLICA_ACKS_FILE
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        zeros = {shard: 0 for shard in range(self.num_shards)}
        try:
            payload = json.loads(text)
        except ValueError:
            return zeros
        if not isinstance(payload, dict):
            return zeros
        followers = payload.get("followers")
        if not isinstance(followers, dict) or not followers:
            return zeros
        try:
            return {
                shard: min(
                    int(follower.get("applied", {}).get(str(shard), 0))
                    for follower in followers.values()
                )
                for shard in range(self.num_shards)
            }
        except (AttributeError, TypeError, ValueError):
            return zeros

    def gc(
        self,
        max_segments: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        dry_run: bool = False,
    ) -> dict:
        """Bound journal growth by dropping old *whole segments* per shard.

        ``max_segments`` keeps at most that many segments per shard (newest
        retained); ``max_age_seconds`` drops segments not written to for that
        long.  The active tail segment is never removed — it holds the
        sequence counter.  Dropping a segment shortens how far back a
        follower can catch up from this journal; a follower older than the
        retention window must re-seed from a fresh copy of the root.

        With ``ack_level=replica`` metadata present (``replica-acks.json``
        next to the shards), segments holding any entry **above** the minimum
        follower-acknowledged seq are additionally protected, whatever the
        count/age policy says — a slow follower's unacknowledged entries are
        never collected out from under it (``ack_protected`` in the report
        counts the reprieves).
        """
        if max_segments is not None and max_segments < 1:
            raise JournalError("max_segments must be positive")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise JournalError("max_age_seconds must be non-negative")
        now = time.time()
        ack_floor = self.replica_ack_floor()
        examined = removed = ack_protected = 0
        for shard in range(self.num_shards):
            segments = self.segments(shard)
            examined += len(segments)
            if len(segments) <= 1:
                continue
            doomed = []
            candidates = segments[:-1]  # the tail always survives
            if max_segments is not None and len(segments) > max_segments:
                doomed.extend(candidates[: len(segments) - max_segments])
            if max_age_seconds is not None:
                for path in candidates:
                    try:
                        age = now - os.path.getmtime(path)
                    except OSError:
                        continue
                    if age > max_age_seconds and path not in doomed:
                        doomed.append(path)
            if ack_floor is not None and doomed:
                # A candidate's newest entry is the seq just before the next
                # segment starts; dropping it would lose entries a replica
                # has not acknowledged applying yet.
                floor = ack_floor.get(shard, 0)
                survivors = []
                for path in doomed:
                    index = segments.index(path)
                    if self._first_seq(segments[index + 1]) - 1 > floor:
                        ack_protected += 1
                    else:
                        survivors.append(path)
                doomed = survivors
            if dry_run:
                removed += len(doomed)
                continue
            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return {
            "examined": examined,
            "removed": removed,
            "retained": examined - removed,
            "ack_protected": ack_protected,
            "dry_run": dry_run,
        }

    # -- introspection -------------------------------------------------------------

    def stats(self) -> dict:
        """Per-journal totals: segments, bytes, newest sequence per shard."""
        segments = 0
        size = 0
        last_seqs: Dict[str, int] = {}
        for shard in range(self.num_shards):
            shard_segments = self.segments(shard)
            segments += len(shard_segments)
            for path in shard_segments:
                try:
                    size += os.path.getsize(path)
                except OSError:
                    pass
            last = self.last_seq(shard)
            if last:
                last_seqs[str(shard)] = last
        return {
            "segments": segments,
            "bytes": size,
            "last_seqs": last_seqs,
            "truncated_tails": self.truncated_tails,
        }

    def __repr__(self) -> str:
        return f"<CatalogJournal at {str(self.directory)!r}>"
