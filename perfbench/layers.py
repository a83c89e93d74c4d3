"""Per-layer numbers: an in-process pass over each layer's public functions,
and self times of the spans a traced run recorded.

Neither ever runs inside a timed phase.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro import obs
from repro.catalog import MappingCatalog
from repro.catalog.journal import CatalogJournal
from repro.compose.composer import compose
from repro.engine.batch import BatchComposer, BatchConfig
from repro.service import CompositionService, ReplicationFollower, ServiceConfig
from repro.service.replica import LocalJournalSource
from repro.textio.format import problem_from_text
from repro.textio.records import result_to_text

from perfbench.stats import median, percentile

#: Phase buckets of ``CompositionResult.phase_seconds`` the benchmark reports.
PHASES = (
    "eliminate",
    "view_unfolding",
    "left_compose",
    "right_compose",
    "normalize",
    "deskolemize",
    "simplify",
)

#: Spans the program records, whose self times the traced run reports.
SPANS = (
    "router.request",
    "router.attempt",
    "http.request",
    "service.queue",
    "service.execute",
    *(f"compose.phase.{phase}" for phase in PHASES),
    "catalog.shard_lock",
    "journal.append",
    "storage.write",
    "replica.apply",
)

#: Records stored by the catalog and replica part of the layer pass.
CATALOG_WRITES = 16


def _timed_ms(fn: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    value = fn()
    return (time.perf_counter() - started) * 1e3, value


def phase_shares(totals: Dict[str, float]) -> Dict[str, float]:
    """Each reported phase's share of all phase seconds."""
    whole = sum(totals.values())
    return {
        f"compose.phase_share.{phase}": (totals.get(phase, 0.0) / whole if whole else 0.0)
        for phase in PHASES
    }


def layer_pass(texts: Sequence[bytes], workdir: Path, engine: bool = True) -> Dict[str, float]:
    """Time each layer's public functions on the workload's problem records.

    ``engine`` adds the ``BatchComposer`` numbers over the same records in
    slices of 16 (the serving workloads' engine view; ``engine_batch``
    reports its own from the timed run instead).
    """
    out: Dict[str, float] = {}
    decoded = [t.decode("utf-8") for t in texts]
    problems = [problem_from_text(t) for t in decoded]
    for problem in problems:  # warm-up: imports, lazy tables
        compose(problem)

    parse_ms = [_timed_ms(lambda t=t: problem_from_text(t))[0] for t in decoded]
    compose_ms, results = [], []
    phases: Dict[str, float] = {}
    for problem in problems:
        ms, result = _timed_ms(lambda p=problem: compose(p))
        compose_ms.append(ms)
        results.append(result)
        for phase, seconds in result.phase_seconds:
            phases[phase] = phases.get(phase, 0.0) + seconds
    render_ms = [_timed_ms(lambda r=r: result_to_text(r))[0] for r in results]
    out["compose.problem_ms"] = median(compose_ms)
    out["compose.output_operator_count"] = float(sum(r.output_operator_count for r in results))
    out.update(phase_shares(phases))
    out["textio.parse_ms"] = median(parse_ms)
    out["textio.render_ms"] = median(render_ms)

    service = CompositionService(None, ServiceConfig()).start()
    try:
        service_ms = [_timed_ms(lambda p=p: service.compose(p))[0] for p in problems]
    finally:
        service.stop()
    out["service.inproc_p50_ms"] = median(service_ms)
    out["service.inproc_overhead_ms"] = median(service_ms) - median(compose_ms)

    if engine:
        composer = BatchComposer(BatchConfig())
        hits = misses = evictions = wall = own = 0.0
        for start in range(0, len(problems), 16):
            ms, report = _timed_ms(lambda s=start: composer.run(problems[s:s + 16]))
            stats = report.cache_stats or {}
            hits += stats.get("hits", 0.0)
            misses += stats.get("misses", 0.0)
            evictions += stats.get("evictions", 0.0)
            wall += ms / 1e3
            own += sum(item.elapsed_seconds for item in report.items)
        out["engine.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out["engine.cache_evictions"] = evictions
        out["engine.batch_overhead_share"] = 1.0 - own / wall

    out.update(_storage_pass(results[:CATALOG_WRITES], workdir))
    return out


def _storage_pass(results: List, workdir: Path) -> Dict[str, float]:
    """Catalog put/read, journal append and follower apply, on the same disk.

    Each name is stored once before timing, so every timed put appends a
    version to an index shard that already exists, as a served write does.
    """
    names = [f"layer-{i}" for i in range(4)]
    primary = MappingCatalog(workdir / "layer-primary")
    for name, result in zip(names, results):
        primary.put_result(name, result)
    put_ms = [
        _timed_ms(lambda i=i, r=r: primary.put_result(names[i % len(names)], r))[0]
        for i, r in enumerate(results[len(names):])
    ]
    read_ms = [_timed_ms(lambda n=n: primary.text("result", n))[0] for n in names * 3]
    journal = CatalogJournal(workdir / "layer-journal")
    payload = {"op": "put", "kind": "result", "name": "x", "text": result_to_text(results[0])}
    append_ms = [_timed_ms(lambda: journal.append(0, payload))[0] for _ in range(2 * len(results))]
    follower = ReplicationFollower(
        MappingCatalog(workdir / "layer-follower"), LocalJournalSource(primary.root)
    )
    apply_ms, applied = _timed_ms(follower.catch_up)
    return {
        "catalog.put_ms": median(put_ms),
        "catalog.read_ms": median(read_ms),
        "journal.append_ms": median(append_ms),
        "replica.apply_ms": apply_ms / max(1, applied),
    }


# -- traced runs --------------------------------------------------------------------


def _overlap(child: dict, parent: dict) -> float:
    start = max(child["start"], parent["start"])
    end = min(child["start"] + child["duration"], parent["start"] + parent["duration"])
    return max(0.0, end - start)


def trace_metrics(sinks: Iterable[str]) -> Dict[str, float]:
    """Self times and shares of the program's spans under each ``bench.op``.

    A span's self time is its duration minus the part of it its children
    cover (a child that outlives its parent, such as a follower's apply of
    a write, only counts where it overlaps).  Shares are of the summed
    ``bench.op`` time.  ``trace.attributed_fraction`` is the part of
    ``http.request`` time covered by named child spans; the rest is the
    unattributed remainder.
    """
    traces = obs.merge_spans(obs.load_spans(sinks))
    self_ms: Dict[str, List[float]] = {name: [] for name in SPANS}
    op_total = http_total = http_child = 0.0
    storage_writes = writes = 0
    visible_ms: List[float] = []
    appends: List[float] = []
    applies: List[float] = []
    for records in traces.values():
        done = [r for r in records if "duration" in r]
        roots = [r for r in done if r["name"] == "bench.op"]
        if not roots:
            continue
        op_total += sum(r["duration"] for r in roots)
        writes += sum(1 for r in roots if r.get("attrs", {}).get("op") == "write")
        children: Dict[str, List[dict]] = {}
        for record in done:
            children.setdefault(record.get("parent_id") or "", []).append(record)
        append_end = apply_end = None
        for record in done:
            name = record["name"]
            covered = sum(_overlap(c, record) for c in children.get(record["span_id"], ()))
            own = max(0.0, record["duration"] - covered)
            if name in self_ms:
                self_ms[name].append(own * 1e3)
            if name == "http.request":
                http_total += record["duration"]
                http_child += min(covered, record["duration"])
            elif name == "storage.write":
                storage_writes += 1
            elif name == "journal.append":
                append_end = record["start"] + record["duration"]
                appends.append(append_end)
            elif name == "replica.apply":
                apply_end = record["start"] + record["duration"]
                applies.append(apply_end)
        if append_end is not None and apply_end is not None:
            visible_ms.append((apply_end - append_end) * 1e3)
    out: Dict[str, float] = {}
    for name, values in self_ms.items():
        out[f"trace.{name}.self_ms_p50"] = median(values) if values else 0.0
        out[f"trace.{name}.share"] = sum(values) / 1e3 / op_total if op_total else 0.0
    out["trace.attributed_fraction"] = http_child / http_total if http_total else 0.0
    out["trace.storage.write.per_write"] = storage_writes / writes if writes else 0.0
    out["replica.visible_ms_p50"] = percentile(visible_ms, 50) if visible_ms else 0.0
    out["replica.visible_ms_p90"] = percentile(visible_ms, 90) if visible_ms else 0.0
    out["replica.lag_entries_max"] = float(_max_lag(appends, applies))
    return out


def _max_lag(appends: List[float], applies: List[float]) -> int:
    """Most writes journaled on the primary but not yet applied on the follower."""
    events = sorted([(t, 1) for t in appends] + [(t, -1) for t in applies])
    lag = peak = 0
    for _, step in events:
        lag += step
        peak = max(peak, lag)
    return peak
