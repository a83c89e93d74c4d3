"""``serve_reads`` and ``serve_mixed``: closed-loop load through the router.

One process drives at most two connections (the host has two cores), each
sending its next request only after the previous reply, as the service's
callers do.  Every run starts fresh processes on fresh catalog roots.
"""

from __future__ import annotations

import bisect
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.catalog import MappingCatalog

from perfbench import inputs, procstat
from perfbench.client import Client, fetch_json
from perfbench.stats import Window
from perfbench.topology import HarnessError, Topology, WorkDir, wait_until

COMPOSE, GET, WRITE = "compose", "get", "write"

#: Per-request client timeout (seconds); a timed-out request counts as failed.
REQUEST_TIMEOUT = 30.0


@dataclass
class Setup:
    topology: Topology
    seconds: float
    #: Text of each stored record, as the primary serves it after set-up.
    stored: Dict[str, bytes]
    #: Pool index stored under each writer name at set-up.
    initial_writes: Dict[str, int]


def launch(workdir: WorkDir, label: str, pool: inputs.RecordPool, trace: bool = False) -> Setup:
    """Start the topology, store the set-up records, wait for the mirror.

    ``seconds`` runs from the first process launch until the follower holds
    every set-up record, i.e. until the first timed operation could start.
    """
    started = time.perf_counter()
    topology = Topology(workdir.sub(label), trace=trace)
    try:
        router = Client(topology.router.host, topology.router.port, REQUEST_TIMEOUT)
        names = inputs.READ_NAMES + inputs.WRITE_NAMES
        for index, name in enumerate(names):
            reply = router.post(f"/compose?store={name}", pool.texts[index])
            if reply.status != 200 or "x-repro-store-dropped" in reply.headers:
                raise HarnessError(f"set-up store of {name} answered {reply.status}")
        router.close()
        wait_until(lambda: mirrored(topology), 60.0, "the follower to mirror set-up")
        seconds = time.perf_counter() - started
        primary = Client(topology.primary.host, topology.primary.port, REQUEST_TIMEOUT)
        stored = {}
        for name in inputs.READ_NAMES:
            reply = primary.get(f"/catalog/result/{name}")
            if reply.status != 200:
                raise HarnessError(f"the primary answered {reply.status} for result/{name}")
            stored[name] = reply.body
        primary.close()
    except BaseException:
        topology.close()
        raise
    initial = {name: len(inputs.READ_NAMES) + i for i, name in enumerate(inputs.WRITE_NAMES)}
    return Setup(topology, seconds, stored, initial)


def _listing(process) -> Dict[str, Tuple[int, str]]:
    status, payload = fetch_json(process.host, process.port, "/catalog?kind=result")
    if status != 200 or not isinstance(payload, dict):
        return {}
    return {e["name"]: (e["version"], e["fingerprint"]) for e in payload["entries"]}


def mirrored(topology: Topology) -> bool:
    """The follower's latest result versions equal the primary's."""
    primary = _listing(topology.primary)
    return bool(primary) and _listing(topology.follower) == primary


# -- the timed phase -------------------------------------------------------------


@dataclass
class OpLog:
    """What one client thread did in the timed phase."""

    #: ``(completed_at, kind, seconds)`` of every successful operation.
    done: List[Tuple[float, str, float]] = field(default_factory=list)
    attempted: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    composes: List[Tuple[int, bytes]] = field(default_factory=list)
    get_mismatches: int = 0
    acked_writes: List[Tuple[str, int]] = field(default_factory=list)
    connections: int = 0
    error: Optional[str] = None


Op = Tuple[str, object]


def reads_ops(rng: random.Random, pool: inputs.RecordPool) -> Iterator[Op]:
    """The seeded 50/50 mix of compose POSTs and GETs of stored records."""
    while True:
        if rng.random() < 0.5:
            yield COMPOSE, rng.randrange(len(pool))
        else:
            yield GET, inputs.READ_NAMES[rng.randrange(len(inputs.READ_NAMES))]


def get_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        yield GET, inputs.READ_NAMES[rng.randrange(len(inputs.READ_NAMES))]


def write_ops(plan: inputs.WritePlan) -> Iterator[Op]:
    while True:
        yield WRITE, plan.next()


def _client_loop(
    setup: Setup,
    pool: inputs.RecordPool,
    ops: Iterator[Op],
    deadline: float,
    log: OpLog,
    traced: bool,
    stop: threading.Event,
    limit: Optional[int],
) -> None:
    """Send ops until ``deadline`` or ``stop``; ``limit`` completed ops set ``stop``."""
    router = setup.topology.router
    client = Client(router.host, router.port, REQUEST_TIMEOUT)
    try:
        while time.perf_counter() < deadline and not stop.is_set():
            if limit is not None and len(log.done) >= limit:
                stop.set()
                break
            kind, arg = next(ops)
            if kind == GET:
                path, body = f"/catalog/result/{arg}", None
            elif kind == COMPOSE:
                path, body = "/compose", pool.texts[arg]
            else:
                name, index = arg
                path, body = f"/compose?store={name}", pool.texts[index]
            log.attempted[kind] = log.attempted.get(kind, 0) + 1
            try:
                if traced:
                    with obs.span("bench.op", new_trace=True, op=kind) as handle:
                        reply = client.request(
                            "POST" if body else "GET", path, body, handle.context.headers()
                        )
                else:
                    reply = client.request("POST" if body else "GET", path, body)
            except OSError:
                log.failed[kind] = log.failed.get(kind, 0) + 1
                continue
            ok = reply.status == 200 and "x-repro-store-dropped" not in reply.headers
            if not ok:
                log.failed[kind] = log.failed.get(kind, 0) + 1
                continue
            log.done.append((time.perf_counter(), kind, reply.seconds))
            if kind == GET:
                if reply.body != setup.stored[arg]:
                    log.get_mismatches += 1
            elif kind == COMPOSE:
                log.composes.append((arg, reply.body))
            else:
                log.acked_writes.append(arg)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run, never hung
        log.error = f"{type(exc).__name__}: {exc}"
    finally:
        log.connections = client.connections_opened
        client.close()


@dataclass
class Phase:
    seconds: float
    logs: List[OpLog]
    proc: Dict[str, Dict[str, float]]
    client_proc: Dict[str, float]
    metrics: Dict[str, dict]
    peak_rss_kb: float
    #: The untimed warm-up's logs (checked like the timed ones).
    warmup: List[OpLog] = field(default_factory=list)
    #: ``(time, /proc samples of the program)`` at each window edge.
    boundaries: List[Tuple[float, Dict[str, Dict[str, float]]]] = field(default_factory=list)

    def ops(self, kind: Optional[str] = None) -> int:
        return sum(1 for log in self.logs for _, k, _ in log.done if kind in (None, k))

    def windows(self) -> List[Window]:
        """Operations and program CPU per window, by completion time."""
        edges = [t for t, _ in self.boundaries]
        windows = []
        for (t0, a), (t1, b) in zip(self.boundaries, self.boundaries[1:]):
            cpu = sum(b[name]["cpu_s"] - a[name]["cpu_s"] for name in a)
            windows.append(Window(t1 - t0, cpu))
        for log in self.logs:
            for t, kind, seconds in log.done:
                index = min(max(bisect.bisect_right(edges, t) - 1, 0), len(windows) - 1)
                windows[index].add(kind, seconds * 1e3)
        return windows

    def attempted(self) -> int:
        return sum(sum(log.attempted.values()) for log in self.logs)

    def failed(self) -> int:
        return sum(sum(log.failed.values()) for log in self.logs)


def _scrape(topology: Topology) -> Dict[str, dict]:
    out = {}
    for name, process, path in (
        ("primary", topology.primary, "/metrics"),
        ("follower", topology.follower, "/metrics"),
        ("router", topology.router, "/router/status"),
    ):
        status, payload = fetch_json(process.host, process.port, path)
        if status != 200 or not isinstance(payload, dict):
            raise HarnessError(f"{name} {path} answered {status}")
        out[name] = payload
    return out


def _drive(setup, pool, streams, seconds, traced, limit=None, on_edge=None, windows=1):
    """One closed-loop client thread per op stream; returns ``(elapsed, logs)``.

    ``on_edge()`` runs on this thread at each of the ``windows - 1`` inner
    window edges while the clients run.
    """
    logs = [OpLog() for _ in streams]
    stop = threading.Event()
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(setup, pool, ops, deadline, log, traced, stop, limit if i == 0 else None),
        )
        for i, (ops, log) in enumerate(zip(streams, logs))
    ]
    for thread in threads:
        thread.start()
    for edge in range(1, windows if on_edge else 0):
        time.sleep(max(0.0, started + seconds * edge / windows - time.perf_counter()))
        on_edge()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT + 10)
        if thread.is_alive():
            raise HarnessError("a client thread did not finish")
    elapsed = time.perf_counter() - started
    for log in logs:
        if log.error:
            raise HarnessError(f"client failed: {log.error}")
    return elapsed, logs


def run_phase(
    setup: Setup,
    pool: inputs.RecordPool,
    seconds: float,
    streams: List[Iterator[Op]],
    warmup_ops: int,
    windows: int,
    traced: bool = False,
) -> Phase:
    """Warm up, then run one closed-loop client thread per op stream for ``seconds``.

    The warm-up runs the same streams until the first one completed
    ``warmup_ops`` operations, so the timed phase starts in steady state
    with a fixed number of writes behind it.  Metrics endpoints are scraped
    and ``/proc`` is sampled just outside the timed window.
    """
    topology = setup.topology
    if traced:
        # The load generator's own sink holds the bench.op roots.
        obs.configure(service="bench", log_path=str(topology.workdir / "bench.trace.jsonl"))
    _, warmup = _drive(setup, pool, streams, 120.0, traced, limit=warmup_ops)
    before_metrics = _scrape(topology)
    boundaries = [(time.perf_counter(), topology.samples())]
    client_before = procstat.sample(os.getpid())
    edge = lambda: boundaries.append((time.perf_counter(), topology.samples()))  # noqa: E731
    elapsed, logs = _drive(setup, pool, streams, seconds, traced, on_edge=edge, windows=windows)
    edge()
    before, after = boundaries[0][1], boundaries[-1][1]
    client_after = procstat.sample(os.getpid())
    if traced:
        obs.configure(service="", log_path="")
    after_metrics = _scrape(topology)
    proc = {name: procstat.delta(before[name], after[name]) for name in before}
    return Phase(
        seconds=elapsed,
        logs=logs,
        proc=proc,
        client_proc=procstat.delta(client_before, client_after),
        metrics={"before": before_metrics, "after": after_metrics},
        peak_rss_kb=sum(p["vm_hwm_kb"] for p in proc.values()),
        warmup=warmup,
        boundaries=boundaries,
    )


# -- correctness ------------------------------------------------------------------


def check_phase(phase: Phase, pool: inputs.RecordPool) -> List[str]:
    """Compose replies equal in-process ``compose()``; GET bodies equal set-up."""
    problems = []
    logs = phase.warmup + phase.logs
    wrong = sum(
        1
        for log in logs
        for index, body in log.composes
        if inputs.result_key(body.decode("utf-8")) != pool.expected[index]
    )
    if wrong:
        problems.append(f"{wrong} compose replies differ from in-process compose()")
    mismatches = sum(log.get_mismatches for log in logs)
    if mismatches:
        problems.append(f"{mismatches} GET bodies differ from the text stored at set-up")
    return problems


def check_writes(setup: Setup, phase: Phase, pool: inputs.RecordPool) -> List[str]:
    """Every acknowledged write is on both roots, with its fingerprint.

    Run after the follower caught up and the processes stopped.  Acked
    writes of each name must appear, in order, among the versions stored
    after set-up; each version must verify on both roots and carry the
    same fingerprint on both.
    """
    topology = setup.topology
    primary = MappingCatalog(topology.primary_root)
    follower = MappingCatalog(topology.follower_root)
    problems = []
    acked: Dict[str, List[int]] = {}
    for log in phase.warmup + phase.logs:
        for name, index in log.acked_writes:
            acked.setdefault(name, []).append(index)
    for name in inputs.WRITE_NAMES:
        p_versions = primary.versions("result", name)
        f_versions = follower.versions("result", name)
        if [(e.version, e.fingerprint) for e in p_versions] != [
            (e.version, e.fingerprint) for e in f_versions
        ]:
            problems.append(f"result/{name}: follower versions differ from the primary's")
            continue
        for entry in p_versions:
            if not (
                primary.verify("result", name, entry.version)
                and follower.verify("result", name, entry.version)
            ):
                problems.append(f"result/{name} v{entry.version} fails verification")
        stored = [
            inputs.result_key(primary.text("result", name, e.version)) for e in p_versions[1:]
        ]
        position = 0
        for index in acked.get(name, []):
            expected = pool.expected[index]
            while position < len(stored) and stored[position] != expected:
                position += 1
            if position == len(stored):
                problems.append(f"an acknowledged write of result/{name} is missing")
                break
            position += 1
    return problems


# -- driving a whole run ---------------------------------------------------------------


def streams_for(workload: str, seed: int, pool: inputs.RecordPool, setup: Setup) -> List[Iterator[Op]]:
    if workload == "serve_reads":
        return [reads_ops(random.Random(f"perfbench:reads:{seed}:{i}"), pool) for i in range(2)]
    plan = inputs.write_plan(pool, seed, setup.initial_writes)
    return [write_ops(plan), get_ops(random.Random(f"perfbench:gets:{seed}"))]


def finish_writes(setup: Setup) -> None:
    """Wait until the follower mirrored every write."""
    wait_until(lambda: mirrored(setup.topology), 120.0, "the follower to catch up")

