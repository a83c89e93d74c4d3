"""The kill-the-primary failover drill: primary + follower + router processes.

The claim under test is the replication protocol's headline guarantee: a
SIGKILLed primary — mid-load, with a seeded fault schedule tearing journal
appends underneath it — loses **zero acknowledged versions**.  Every write
the primary acknowledged through the router is present, fingerprint-verified,
in the promoted follower's catalog; and router clients ride through the
failover seeing retries and 503-with-Retry-After backpressure, never a
dropped answer on reads.

Three real processes (like an operator would run them):

* ``primary``   — ``repro serve`` equivalent over catalog root A,
* ``follower``  — serving root B while tailing A's journal (local source, so
  the journal survives the primary's death and promotion can drain it),
* ``router``    — health-routing front tier over both.
"""

import json
import os
import shutil
import time
import urllib.error
import urllib.request

import pytest

from repro import faults, obs
from repro.catalog import MappingCatalog
from repro.engine.workloads import WorkloadConfig, generate_workload
from repro.textio.records import chain_to_text

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

_PRIMARY = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import CompositionService, ServiceConfig, ServiceHTTPServer

catalog = MappingCatalog(sys.argv[1])
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0)
server.start()
print(f"ready {server.address[1]}", flush=True)
while True:
    time.sleep(1)
"""

_FOLLOWER = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import (
    CompositionService, ReplicationFollower, ServiceConfig, ServiceHTTPServer,
    open_source,
)

catalog = MappingCatalog(sys.argv[1])
follower = ReplicationFollower(
    catalog, open_source(sys.argv[2]), poll_interval_seconds=0.05
).start()
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0, follower=follower)
server.start()
print(f"ready {server.address[1]}", flush=True)
while True:
    time.sleep(1)
"""

_ROUTER = """
import sys, time
from repro.service import RouterHTTPServer

router = RouterHTTPServer(
    sys.argv[1:], port=0, health_interval_seconds=0.1, health_timeout_seconds=1.0
).start()
print(f"ready {router.address[1]}", flush=True)
while True:
    time.sleep(1)
"""


def _await_ready(proc, timeout=60):
    line = proc.stdout.readline()
    assert line.startswith("ready "), f"worker did not come up: {line!r}"
    return int(line.split()[1])


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


def _post(url, body=b"", timeout=60):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestFailoverDrill:
    def test_kill_primary_promote_follower_zero_lost_versions(
        self, tmp_path, run_python, chaos_log_dir
    ):
        primary_root = tmp_path / "primary"
        follower_root = tmp_path / "follower"
        primary_log = chaos_log_dir / "failover-primary.jsonl"

        # Every process sinks its spans next to the fault logs, so the drill
        # can reassemble an acknowledged write's full cross-process trace —
        # and CI can carry the sinks along as artifacts.
        trace_sinks = {
            role: chaos_log_dir / f"failover-trace-{role}.jsonl"
            for role in ("router", "primary", "follower")
        }

        def _trace_env(role):
            return {
                obs.LOG_ENV_VAR: str(trace_sinks[role]),
                obs.SERVICE_ENV_VAR: role,
            }

        # The primary runs under a seeded schedule tearing ~10% of journal
        # appends: the catalog's retry policy heals every tear, so writes
        # still succeed — acknowledged means journaled, whatever the chaos.
        primary_env = {
            faults.ENV_VAR: (
                f"seed={CHAOS_SEED};journal.append.torn:torn:p=0.1:limit=3"
            ),
            faults.LOG_ENV_VAR: str(primary_log),
            **_trace_env("primary"),
        }
        procs = []
        try:
            primary = run_python(
                _PRIMARY, str(primary_root), env_extra=primary_env, wait=False
            )
            procs.append(primary)
            primary_port = _await_ready(primary)
            primary_base = f"http://127.0.0.1:{primary_port}"

            follower = run_python(
                _FOLLOWER,
                str(follower_root),
                str(primary_root),
                env_extra=_trace_env("follower"),
                wait=False,
            )
            procs.append(follower)
            follower_port = _await_ready(follower)
            follower_base = f"http://127.0.0.1:{follower_port}"

            router = run_python(
                _ROUTER,
                primary_base,
                follower_base,
                env_extra=_trace_env("router"),
                wait=False,
            )
            procs.append(router)
            router_port = _await_ready(router)
            router_base = f"http://127.0.0.1:{router_port}"

            problems = generate_workload(
                WorkloadConfig(
                    num_problems=8,
                    min_chain_length=3,
                    max_chain_length=4,
                    seed=CHAOS_SEED,
                )
            )

            # Phase 1: load through the router while everything is healthy.
            # The router answers with the trace id it minted at ingress —
            # the key for reassembling each write's cross-process tree.
            acknowledged = []
            acknowledged_traces = []
            for index, problem in enumerate(problems[:4]):
                name = f"drill-{index}"
                status, _, headers = _post(
                    f"{router_base}/compose?store={name}",
                    chain_to_text(problem.mappings).encode(),
                )
                assert status == 200
                if "X-Repro-Store-Dropped" not in headers:
                    acknowledged.append(name)
                    trace_id = headers.get(obs.TRACE_ID_HEADER)
                    assert trace_id, f"router acknowledged {name} without a trace id"
                    acknowledged_traces.append(trace_id)
            assert acknowledged, "no write was acknowledged before the kill"

            # Phase 2: SIGKILL the primary mid-load — no cleanup, no flush.
            primary.kill()
            primary.wait(timeout=30)

            # Reads ride through: the router retries onto the follower, the
            # client sees an answer (maybe after a retry), never an error.
            status, _, headers = _get(f"{router_base}/healthz")
            assert status == 200
            assert headers["x-repro-backend"] == follower_base

            # Writes have no backend until promotion: 503 + Retry-After is
            # the router telling clients to come back, not an opaque failure.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    f"{router_base}/compose?store=during-outage",
                    chain_to_text(problems[4].mappings).encode(),
                )
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1

            # Phase 3: the operator promotes the follower.  Its final
            # catch-up drains the dead primary's journal from disk, so every
            # acknowledged write is already (or now) mirrored.
            status, body, _ = _post(f"{follower_base}/admin/promote")
            assert status == 200
            assert json.loads(body)["promoted"] is True

            # The router's next health tick observes the new primary...
            def promoted_visible():
                _, body, _ = _get(f"{router_base}/router/status")
                table = json.loads(body)
                return any(
                    b["role"] == "primary" and b["healthy"] and b["url"] == follower_base
                    for b in table["backends"]
                )

            assert _wait_for(promoted_visible)

            # ...and writes flow again, into the promoted replica.
            for index, problem in enumerate(problems[4:], start=4):
                name = f"drill-{index}"
                status, _, headers = _post(
                    f"{router_base}/compose?store={name}",
                    chain_to_text(problem.mappings).encode(),
                )
                assert status == 200
                assert headers["x-repro-backend"] == follower_base
                if "X-Repro-Store-Dropped" not in headers:
                    acknowledged.append(name)

            _, body, _ = _get(f"{router_base}/router/status")
            table = json.loads(body)
            assert table["failovers_observed"] >= 1

            # Phase 4: zero lost versions.  Every acknowledged store exists,
            # fingerprint-verified, in the promoted catalog.
            promoted = MappingCatalog(follower_root)
            stored = set(promoted.names("mapping"))
            missing = [name for name in acknowledged if name not in stored]
            assert not missing, f"acknowledged writes lost in failover: {missing}"
            for name in acknowledged:
                assert promoted.verify("mapping", name), f"{name} failed verification"

            # The primary's journal chaos actually fired and was audited.
            if primary_log.exists():
                events = [
                    json.loads(line)
                    for line in primary_log.read_text().splitlines()
                    if line.strip()
                ]
                assert all(e["point"] == "journal.append.torn" for e in events)

            # Preserve the journal segments next to the fault logs: locally
            # that is the test tmpdir; in CI it is the artifact directory, so
            # a red run can be replayed from the exact journals it died with.
            for label, root in (("primary", primary_root), ("follower", follower_root)):
                journal = root / "journal"
                if journal.exists():
                    shutil.copytree(
                        journal,
                        chaos_log_dir / f"failover-journal-{label}",
                        dirs_exist_ok=True,
                    )

            # Phase 5: the telemetry headline.  Merging the three sinks must
            # reconstruct, for at least one acknowledged write, a single
            # orphan-free tree spanning router relay → primary ingress →
            # journal append → follower apply.  The follower records its
            # apply span right after the catalog mutation, so give the last
            # flush a moment rather than racing it.
            sink_paths = [str(path) for path in trace_sinks.values()]
            required = {
                "router.request",
                "http.request",
                "journal.append",
                "replica.apply",
            }

            def complete_acknowledged_traces():
                traces = obs.merge_spans(obs.load_spans(sink_paths))
                return [
                    trace_id
                    for trace_id in acknowledged_traces
                    if trace_id in traces
                    and required <= {r.get("name") for r in traces[trace_id]}
                ]

            assert _wait_for(complete_acknowledged_traces), (
                "no acknowledged write produced a full router→primary→"
                "journal→follower trace tree; sinks: "
                + ", ".join(sink_paths)
            )
            traces = obs.merge_spans(obs.load_spans(sink_paths))
            for trace_id in complete_acknowledged_traces():
                _, orphans = obs.build_tree(traces[trace_id])
                assert not orphans, f"trace {trace_id} has orphans: {orphans}"

            # The CLI agrees — this is exactly the check CI runs over the
            # uploaded sink artifacts.
            from repro.__main__ import main as repro_main

            argv = ["trace", *sink_paths, "--verify"]
            for name in sorted(required):
                argv += ["--require", name]
            assert repro_main(argv) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()

    def test_follower_survives_primary_flap(self, tmp_path, run_python):
        """A follower keeps polling through a primary restart and catches up."""
        primary_root = tmp_path / "primary"
        follower_root = tmp_path / "follower"
        procs = []
        try:
            primary = run_python(_PRIMARY, str(primary_root), wait=False)
            procs.append(primary)
            primary_port = _await_ready(primary)
            primary_base = f"http://127.0.0.1:{primary_port}"

            follower = run_python(
                _FOLLOWER, str(follower_root), str(primary_root), wait=False
            )
            procs.append(follower)
            follower_port = _await_ready(follower)
            follower_base = f"http://127.0.0.1:{follower_port}"

            problems = generate_workload(
                WorkloadConfig(
                    num_problems=2, min_chain_length=3, max_chain_length=3, seed=11
                )
            )
            _post(
                f"{primary_base}/compose?store=before-flap",
                chain_to_text(problems[0].mappings).encode(),
            )
            primary.kill()
            primary.communicate()

            # The follower stays healthy (it is the failover target); with a
            # local source the dead primary's journal is still readable on
            # disk, so replication lag drains to zero.  The lag is worked out
            # from the follower's last poll, so it counts only once a poll
            # that began after the kill has finished (two polls on).
            def replication():
                _, body, _ = _get(f"{follower_base}/healthz")
                return json.loads(body).get("replication", {})

            polls_at_kill = replication()["polls"]

            def caught_up():
                state = replication()
                return state["polls"] >= polls_at_kill + 2 and state["lag_entries"] == 0
            assert _wait_for(caught_up)

            _, body, _ = _get(f"{follower_base}/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["role"] == "follower"
            mirrored = MappingCatalog(follower_root)
            assert "before-flap" in mirrored.names("mapping")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()
