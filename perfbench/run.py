"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_reads --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate per-layer run (a traced run next to an untraced one, the servers'
own counters, ``/proc``, and an in-process pass over each layer).
``--workload all`` runs every workload, each in a fresh process.  Every
metric is printed as ``name = value unit``; the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = ("engine_batch", "serve_reads", "serve_mixed")

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = {"engine_batch": 5, "serve_reads": 2, "serve_mixed": 2}

#: Untimed operations of the first client before the timed phase: enough
#: for the follower to be applying writes in steady state.
WARMUP_OPS = {"serve_reads": 200, "serve_mixed": 16}

#: Windows per serving timed phase (engine_batch.WINDOWS for the engine):
#: each rate and latency is the median over windows.  serve_mixed's writes
#: are too few to split.
WINDOWS = {"serve_reads": 6, "serve_mixed": 1}

#: Tail percentile of the main and aux operations, fixed per workload so a
#: metric keeps its meaning across runs; each has at least ten samples
#: beyond it in every window at the run length BENCHMARK.json sets.
TAILS = {"engine_batch": (90, 99), "serve_reads": (99, 99), "serve_mixed": (90, 99)}

#: The issue-level names of the main and aux operations of each workload.
OPS = {
    "engine_batch": ("chain", "hop"),
    "serve_reads": ("compose", "get"),
    "serve_mixed": ("write", "get"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("main_p50_ms", "ms"),
    ("main_tail_ms", "ms"),
    ("aux_p50_ms", "ms"),
    ("aux_tail_ms", "ms"),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    from perfbench.layers import PHASES, SPANS

    names = [(f"compose.phase_share.{p}", "fraction") for p in PHASES]
    names += [
        ("compose.problem_ms", "ms"),
        ("compose.output_operator_count", "count"),
        ("engine.cache_hit_rate", "fraction"),
        ("engine.cache_evictions", "count"),
        ("engine.batch_overhead_share", "fraction"),
        ("textio.parse_ms", "ms"),
        ("textio.render_ms", "ms"),
        ("service.inproc_overhead_ms", "ms"),
        ("service.queue_ms_p50", "ms"),
        ("service.mean_batch_size", "count"),
        ("service.coalesced_fraction", "fraction"),
        ("http.connections_per_op", "count"),
        ("http.overhead_ms", "ms"),
        ("router.relay_ms", "ms"),
        ("router.retries", "count"),
        ("proc.router.cpu_ms_per_op", "ms"),
        ("catalog.put_ms", "ms"),
        ("catalog.read_ms", "ms"),
        ("catalog.shard_lock_ms_p50", "ms"),
        ("catalog.write_failures", "count"),
        ("proc.primary.wchar_per_write", "B"),
        ("proc.primary.syscw_per_write", "count"),
        ("journal.append_ms", "ms"),
        ("journal.fsync_ms_p50", "ms"),
        ("replica.apply_ms", "ms"),
        ("replica.polls_per_s", "1/s"),
        ("replica.entries_per_poll", "count"),
        ("replica.lag_entries_max", "count"),
        ("proc.follower.cpu_ms_per_op", "ms"),
        ("proc.follower.wchar_per_write", "B"),
        ("obs.overhead_fraction", "fraction"),
        ("trace.attributed_fraction", "fraction"),
        ("proc.client.cpu_ms_per_op", "ms"),
        ("trace.storage.write.per_write", "count"),
        ("replica.visible_ms_p50", "ms"),
        ("replica.visible_ms_p90", "ms"),
    ]
    for span in SPANS:
        names += [(f"trace.{span}.self_ms_p50", "ms"), (f"trace.{span}.share", "fraction")]
    return tuple(names)


class Outcome:
    """What one run measured and whether its outputs were correct."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        #: Issue-level aliases and counts, printed but not in the JSON line.
        self.extra: Dict[str, Tuple[float, str]] = {}
        #: Per-layer metrics whose layer this workload does not run.
        self.bypassed: set = set()


# -- end-to-end ----------------------------------------------------------------------


def _rate_and_latency(out: Outcome, workload: str, windows) -> None:
    """ops_per_s, cpu_ms_per_op and the main/aux latencies: medians over windows."""
    from perfbench.stats import tail_percentile, windowed

    main_op, aux_op = OPS[workload]
    main_tail, aux_tail = TAILS[workload]
    for op, tail in ((main_op, main_tail), (aux_op, aux_tail)):
        counts = [len(w.latencies_ms.get(op, ())) for w in windows]
        if not any(counts):
            out.problems.append(f"no completed {op} operations")
            return
        if (tail_percentile(min(counts)) or 0) < tail:
            print(f"warning: {min(counts)} {op} samples in a window are too few for p{tail}",
                  file=sys.stderr)
        out.extra[f"{op}_samples"] = (sum(counts), "count")
    out.metrics.update(windowed(windows, (("main", main_op, main_tail), ("aux", aux_op, aux_tail))))
    for prefix, op, tail in (("main", main_op, main_tail), ("aux", aux_op, aux_tail)):
        out.extra[f"{op}_p50_ms"] = (out.metrics[f"{prefix}_p50_ms"], "ms")
        out.extra[f"{op}_p{tail}_ms"] = (out.metrics[f"{prefix}_tail_ms"], "ms")


def run_engine(seed: int, seconds: float, trace: bool, work) -> Outcome:
    from perfbench import engine_batch, inputs, layers
    from perfbench.stats import Window, median

    out = Outcome()
    report = engine_batch.run(seed, seconds, 1 if trace else SETUPS["engine_batch"])
    out.attempted, out.failed = report["attempted"], report["failed"]
    if report["failed"]:
        out.problems.append(f"{report['failed']} chains failed")
    if report["mismatched"] or not report["sampled"]:
        out.problems.append(
            f"batch results differ from serial compose_chain on chains {report['mismatched']}"
            if report["mismatched"] else "no chain was sampled for the serial check"
        )
    windows = [Window.from_json(data) for data in report["windows"]]
    out.metrics["setup_s"] = median(report["setup_seconds"])
    out.metrics["peak_rss_mb"] = report["vm_hwm_kb"] / 1024
    _rate_and_latency(out, "engine_batch", windows)
    out.extra["failed_fraction"] = (out.failed / out.attempted, "fraction")
    if trace:
        layer = layers.layer_pass(inputs.record_pool(seed).texts, work.path, engine=False)
        layer.update(layers.phase_shares(report["phases"]))
        layer["engine.cache_hit_rate"] = report["cache_hit_rate"]
        layer["engine.cache_evictions"] = report["cache_evictions"]
        layer["engine.batch_overhead_share"] = report["batch_overhead_share"]
        out.metrics = {k: v for k, v in layer.items() if k != "service.inproc_p50_ms"}
        out.bypassed = {name for name, _ in _per_layer() if name not in out.metrics}
    return out


def _hist_p50_ms(before: dict, after: dict) -> float:
    """Median of a ``/metrics`` histogram's observations between two scrapes,
    interpolated inside its bucket (the buckets are coarse)."""
    count = after["count"] - before["count"]
    if count <= 0:
        return 0.0
    bounds = sorted(after["buckets"], key=float)
    previous_bound, previous_cum = 0.0, 0
    for bound in bounds:
        cum = after["buckets"][bound] - before["buckets"][bound]
        if cum >= count / 2:
            share = (count / 2 - previous_cum) / max(1, cum - previous_cum)
            return (previous_bound + (float(bound) - previous_bound) * share) * 1e3
        previous_bound, previous_cum = float(bound), cum
    return previous_bound * 1e3


def _server_layers(phase, writes: int) -> Dict[str, float]:
    """Per-layer numbers from the servers' counters and ``/proc``."""
    before, after = phase.metrics["before"], phase.metrics["after"]
    ops = phase.ops()

    def diff(process: str, *path: str) -> float:
        a, b = after[process], before[process]
        for key in path:
            a, b = a[key], b[key]
        return float(a) - float(b)

    hist = lambda name: _hist_p50_ms(  # noqa: E731
        before["primary"]["histograms"][name], after["primary"]["histograms"][name]
    )
    batches = diff("primary", "batching", "batches")
    submitted = diff("primary", "requests", "submitted")
    polls = diff("follower", "replication", "polls")
    per_write = lambda v: v / writes if writes else 0.0  # noqa: E731
    return {
        "service.queue_ms_p50": hist("queue_seconds"),
        "service.mean_batch_size": diff("primary", "batching", "batched_items") / batches if batches else 0.0,
        "service.coalesced_fraction": diff("primary", "requests", "deduplicated") / submitted if submitted else 0.0,
        "http.connections_per_op": sum(log.connections for log in phase.logs) / ops,
        "router.retries": diff("router", "request_retries"),
        "proc.router.cpu_ms_per_op": phase.proc["router"]["cpu_s"] * 1e3 / ops,
        "catalog.shard_lock_ms_p50": hist("shard_lock_seconds"),
        "catalog.write_failures": diff("primary", "degradation", "catalog_write_failures"),
        "proc.primary.wchar_per_write": per_write(phase.proc["primary"]["wchar"]),
        "proc.primary.syscw_per_write": per_write(phase.proc["primary"]["syscw"]),
        "journal.fsync_ms_p50": hist("journal_fsync_seconds"),
        "replica.polls_per_s": polls / phase.seconds,
        "replica.entries_per_poll": diff("follower", "replication", "entries_applied") / polls if polls else 0.0,
        "proc.follower.cpu_ms_per_op": phase.proc["follower"]["cpu_s"] * 1e3 / ops,
        "proc.follower.wchar_per_write": per_write(phase.proc["follower"]["wchar"]),
        "proc.client.cpu_ms_per_op": phase.client_proc["cpu_s"] * 1e3 / ops,
    }


def _relay_probe(setup, pool, seed: int, count: int = 200) -> Tuple[float, float]:
    """p50 of the same compose requests sent through the router and directly."""
    import random

    from perfbench.client import Client
    from perfbench.serve import REQUEST_TIMEOUT
    from perfbench.stats import median

    topology = setup.topology
    rng = random.Random(f"perfbench:probe:{seed}")
    routed = Client(topology.router.host, topology.router.port, REQUEST_TIMEOUT)
    direct = Client(topology.primary.host, topology.primary.port, REQUEST_TIMEOUT)
    routed_s, direct_s = [], []
    try:
        for i in range(count):
            body = pool.texts[rng.randrange(len(pool))]
            pair = [(routed, routed_s), (direct, direct_s)]
            for client, samples in pair if i % 2 else pair[::-1]:
                reply = client.post("/compose", body)
                if reply.status != 200:
                    raise RuntimeError(f"probe request answered {reply.status}")
                samples.append(reply.seconds * 1e3)
    finally:
        routed.close()
        direct.close()
    return median(routed_s), median(direct_s)


def _serve_phase(workload: str, seed: int, seconds: float, pool, work, label: str,
                 trace: bool, out: Outcome, during=None):
    """Set up, run and check one timed phase; the processes are stopped on return.

    ``during(setup)`` runs after the timed phase, before the processes stop.
    """
    from perfbench import serve

    setup = serve.launch(work, label, pool, trace=trace)
    try:
        phase = serve.run_phase(
            setup, pool, seconds, serve.streams_for(workload, seed, pool, setup),
            WARMUP_OPS[workload], WINDOWS[workload], traced=trace,
        )
        out.problems += serve.check_phase(phase, pool)
        extra = during(setup) if during else None
        if workload == "serve_mixed":
            serve.finish_writes(setup)
    finally:
        setup.topology.close()
    if workload == "serve_mixed":
        out.problems += serve.check_writes(setup, phase, pool)
    return setup, phase, extra


def run_serve(workload: str, seed: int, seconds: float, trace: bool, work) -> Outcome:
    import shutil

    from perfbench import inputs, layers, serve
    from perfbench.stats import median

    out = Outcome()
    pool = inputs.record_pool(seed)

    setup_seconds = []
    if not trace:
        for k in range(SETUPS[workload] - 1):
            setup = serve.launch(work, f"setup-{k}", pool)
            setup_seconds.append(setup.seconds)
            setup.topology.close()
            shutil.rmtree(setup.topology.workdir, ignore_errors=True)

    # A per-layer run splits its time between an untraced and a traced phase.
    phase_seconds = seconds / 2 if trace else seconds
    setup, phase, probe = _serve_phase(
        workload, seed, phase_seconds, pool, work, "timed", False, out,
        during=(lambda s: _relay_probe(s, pool, seed)) if trace else None,
    )
    setup_seconds.append(setup.seconds)

    out.attempted, out.failed = phase.attempted(), phase.failed()
    writes = phase.ops("write")
    if not trace:
        out.metrics["setup_s"] = median(setup_seconds)
        out.metrics["peak_rss_mb"] = phase.peak_rss_kb / 1024
        _rate_and_latency(out, workload, phase.windows())
        out.extra["failed_fraction"] = (out.failed / out.attempted, "fraction")
        if workload == "serve_mixed":
            out.extra["writes_per_s"] = (writes / phase.seconds, "1/s")
        return out

    layer = _server_layers(phase, writes)
    layer.update(layers.layer_pass(pool.texts, work.path))
    routed_ms, direct_ms = probe
    layer["router.relay_ms"] = routed_ms - direct_ms
    layer["http.overhead_ms"] = direct_ms - layer.pop("service.inproc_p50_ms")

    traced_setup, traced_phase, _ = _serve_phase(
        workload, seed, phase_seconds, pool, work, "traced", True, out
    )
    layer["obs.overhead_fraction"] = 1.0 - (
        traced_phase.ops() / traced_phase.seconds) / (phase.ops() / phase.seconds)
    layer.update(layers.trace_metrics(traced_setup.topology.trace_logs()))
    out.metrics = layer
    if workload == "serve_reads":
        out.bypassed = {
            "proc.primary.wchar_per_write", "proc.primary.syscw_per_write",
            "proc.follower.wchar_per_write", "trace.storage.write.per_write",
            "replica.visible_ms_p50", "replica.visible_ms_p90",
        }
    return out


# -- the command ---------------------------------------------------------------------


def _print(out: Outcome, names, trace: bool) -> None:
    for name, unit in names:
        note = "  (layer not on this workload's path)" if name in out.bypassed else ""
        print(f"{name} = {out.metrics[name]:.6g} {unit}{note}")
    if not trace:
        for name, (value, unit) in sorted(out.extra.items()):
            print(f"{name} = {value:.6g} {unit}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.topology import WorkDir, host_facts

    names = _per_layer() if trace else END_TO_END
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)}; {host_facts()}", flush=True)
    work = WorkDir(workload)
    try:
        if workload == "engine_batch":
            out = run_engine(seed, seconds, trace, work)
        else:
            out = run_serve(workload, seed, seconds, trace, work)
    finally:
        work.close()
    for name, _ in names:
        if name in out.bypassed:
            out.metrics.setdefault(name, 0.0)
        elif name not in out.metrics:
            out.problems.append(f"metric {name} was not measured")
            out.metrics[name] = 0.0
    unknown = set(out.metrics) - {name for name, _ in names}
    if unknown:
        out.problems.append(f"unlisted metrics measured: {sorted(unknown)}")
    _print(out, names, trace)
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"# {workload}", flush=True)
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            stdout, _ = child.communicate(timeout=900)
        except subprocess.TimeoutExpired:
            child.terminate()  # unwinds the run: servers stopped, roots removed
            stdout, _ = child.communicate()
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {"correct": False}
        merged["correct"] = merged["correct"] and child.returncode == 0 and result["correct"]
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like SIGINT, so every child is stopped and every
    # scratch root removed on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
