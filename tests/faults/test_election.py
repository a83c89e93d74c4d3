"""The unattended kill-and-recover drill: nobody calls ``/admin/promote``.

PR 8's failover drill needed an operator to promote the follower.  This
drill takes the operator away: the primary and the candidate follower each
run a :class:`~repro.service.election.LeaderElector` over a shared election
directory, the primary is SIGKILLed mid-load, and the follower must win the
``leader`` lease race and self-promote **on its own** — within the election
timeout, under seeded lease/journal chaos, losing zero acknowledged writes.

The epilogue resurrects the dead primary over its old (now fenced) root: a
zombie that still thinks it is the leader.  Its writes must come back
``409`` (:class:`~repro.exceptions.StaleEpochError`) — fencing epochs, not
luck, are what prevent split-brain.
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
from repro.engine import compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload
from repro.textio.records import chain_to_text

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

ELECTION_TIMEOUT = 1.0

_PRIMARY = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import (
    CompositionService, LeaderElector, ServiceConfig, ServiceHTTPServer,
)

catalog = MappingCatalog(sys.argv[1])
elector = LeaderElector(
    catalog, election_dir=sys.argv[2], election_timeout_seconds=float(sys.argv[3])
).start()
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0, elector=elector)
server.start()
print(f"ready {server.address[1]}", flush=True)
while True:
    time.sleep(1)
"""

_CANDIDATE = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import (
    CompositionService, LeaderElector, ReplicationFollower, ServiceConfig,
    ServiceHTTPServer, open_source,
)

catalog = MappingCatalog(sys.argv[1])
follower = ReplicationFollower(
    catalog, open_source(sys.argv[2]), poll_interval_seconds=0.05
).start()
elector = LeaderElector(
    catalog,
    follower=follower,
    election_dir=sys.argv[3],
    source_root=sys.argv[2],
    primary_url=sys.argv[4],
    election_timeout_seconds=float(sys.argv[5]),
    health_timeout_seconds=0.5,
).start()
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0, follower=follower, elector=elector)
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


def _wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestUnattendedFailoverDrill:
    def test_kill_primary_follower_self_promotes_zero_lost(
        self, tmp_path, run_python, chaos_log_dir
    ):
        primary_root = tmp_path / "primary"
        candidate_root = tmp_path / "candidate"
        election_dir = tmp_path / "election"
        primary_log = chaos_log_dir / "election-primary.jsonl"
        candidate_log = chaos_log_dir / "election-candidate.jsonl"

        # Trace sinks land next to the fault logs so CI uploads them and can
        # reassemble any acknowledged write (and the election transition
        # itself) with ``repro trace --verify``.
        def _trace_env(role):
            return {
                obs.LOG_ENV_VAR: str(chaos_log_dir / f"election-trace-{role}.jsonl"),
                obs.SERVICE_ENV_VAR: role,
            }

        # Chaos on both sides of the failover: the primary's journal appends
        # tear (~10%, bounded; the retry policy heals them, so acknowledged
        # still means journaled), and the candidate's lease writes and
        # election races run slowed — the election must win anyway.
        primary_env = {
            faults.ENV_VAR: (
                f"seed={CHAOS_SEED};journal.append.torn:torn:p=0.1:limit=3"
            ),
            faults.LOG_ENV_VAR: str(primary_log),
            **_trace_env("primary"),
        }
        candidate_env = {
            faults.ENV_VAR: (
                f"seed={CHAOS_SEED};"
                "lease.write:slow:p=0.3:ms=5;"
                "election.acquire:slow:p=0.5:ms=10;"
                "journal.epoch.write:slow:p=0.5:ms=5"
            ),
            faults.LOG_ENV_VAR: str(candidate_log),
            **_trace_env("candidate"),
        }
        procs = []
        try:
            primary = run_python(
                _PRIMARY,
                str(primary_root),
                str(election_dir),
                str(ELECTION_TIMEOUT),
                env_extra=primary_env,
                wait=False,
            )
            procs.append(primary)
            primary_base = f"http://127.0.0.1:{_await_ready(primary)}"

            candidate = run_python(
                _CANDIDATE,
                str(candidate_root),
                str(primary_root),
                str(election_dir),
                primary_base,
                str(ELECTION_TIMEOUT),
                env_extra=candidate_env,
                wait=False,
            )
            procs.append(candidate)
            candidate_base = f"http://127.0.0.1:{_await_ready(candidate)}"

            router = run_python(
                _ROUTER,
                primary_base,
                candidate_base,
                env_extra=_trace_env("router"),
                wait=False,
            )
            procs.append(router)
            router_base = f"http://127.0.0.1:{_await_ready(router)}"

            problems = generate_workload(
                WorkloadConfig(
                    num_problems=7,
                    min_chain_length=3,
                    max_chain_length=4,
                    seed=CHAOS_SEED,
                )
            )

            # Phase 1: load through the router while everything is healthy.
            # The candidate watches a live primary: it must NOT elect.
            acknowledged = []
            for index, problem in enumerate(problems[:4]):
                name = f"drill-{index}"
                status, _, headers = _post(
                    f"{router_base}/compose?store={name}",
                    chain_to_text(problem.mappings).encode(),
                )
                assert status == 200
                if "X-Repro-Store-Dropped" not in headers:
                    acknowledged.append(name)
            assert acknowledged, "no write was acknowledged before the kill"

            _, body, _ = _get(f"{candidate_base}/healthz")
            election = json.loads(body).get("election", {})
            assert election.get("role") == "candidate"
            assert election.get("elections_started") == 0

            # Phase 2: SIGKILL the primary.  Nobody calls /admin/promote —
            # the elector must notice the silence, win the lease race once
            # the dead leader's lease expires, and self-promote.
            killed_at = time.monotonic()
            primary.kill()
            primary.wait(timeout=30)

            def self_promoted():
                try:
                    _, body, _ = _get(f"{candidate_base}/healthz")
                except (urllib.error.HTTPError, urllib.error.URLError, OSError):
                    return False
                health = json.loads(body)
                return health.get("election", {}).get("role") == "leader"

            assert _wait_for(self_promoted), "the follower never self-promoted"
            # Silence detection + lease-expiry wait + race + promotion: a
            # small multiple of the election timeout, never an operator's
            # reaction time.
            assert time.monotonic() - killed_at < 10 * ELECTION_TIMEOUT

            _, body, _ = _get(f"{candidate_base}/healthz")
            health = json.loads(body)
            assert health["role"] == "primary"
            assert health["epoch"] >= 1
            assert health["election"]["elections_won"] == 1

            # The router observes the self-promotion and resumes writes.
            def promoted_visible():
                _, body, _ = _get(f"{router_base}/router/status")
                return any(
                    b["role"] == "primary" and b["healthy"] and b["epoch"] >= 1
                    for b in json.loads(body)["backends"]
                )

            assert _wait_for(promoted_visible)
            for index, problem in enumerate(problems[4:], start=4):
                name = f"drill-{index}"
                status, _, headers = _post(
                    f"{router_base}/compose?store={name}",
                    chain_to_text(problem.mappings).encode(),
                )
                assert status == 200
                assert headers["x-repro-backend"] == candidate_base
                if "X-Repro-Store-Dropped" not in headers:
                    acknowledged.append(name)

            _, body, _ = _get(f"{router_base}/router/status")
            assert json.loads(body)["failovers_observed"] >= 1

            # Phase 3: zero lost versions, fingerprint-identical to a
            # single-process reference composition.
            promoted = MappingCatalog(candidate_root)
            stored = set(promoted.names("mapping"))
            missing = [name for name in acknowledged if name not in stored]
            assert not missing, f"acknowledged writes lost in failover: {missing}"
            for index, problem in enumerate(problems):
                name = f"drill-{index}"
                if name not in acknowledged:
                    continue
                reference = compose_chain(problem.mappings).to_mapping_with_residue()
                assert (
                    promoted.get_mapping(name).fingerprint()
                    == reference.fingerprint()
                ), f"{name} diverged from the single-process reference"

            # Phase 4: resurrect the ex-primary over its fenced root.  The
            # zombie still believes it is a primary — but every write it
            # accepts must be refused with 409 by its own catalog.
            zombie = run_python(
                _PRIMARY,
                str(primary_root),
                str(tmp_path / "zombie-election"),
                str(ELECTION_TIMEOUT),
                wait=False,
            )
            procs.append(zombie)
            zombie_base = f"http://127.0.0.1:{_await_ready(zombie)}"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    f"{zombie_base}/compose?store=zombie-write",
                    chain_to_text(problems[0].mappings).encode(),
                )
            assert excinfo.value.code == 409
            resurrected = MappingCatalog(primary_root)
            assert "zombie-write" not in resurrected.names("mapping")

            # The candidate's lease/election chaos actually fired.
            if candidate_log.exists():
                events = [
                    json.loads(line)
                    for line in candidate_log.read_text().splitlines()
                    if line.strip()
                ]
                assert events, "candidate chaos schedule never fired"
                assert all(
                    e["point"]
                    in ("lease.write", "election.acquire", "journal.epoch.write")
                    for e in events
                )

            # Preserve journal segments next to the fault logs (CI artifacts).
            for label, root in (
                ("primary", primary_root),
                ("candidate", candidate_root),
            ):
                journal = root / "journal"
                if journal.exists():
                    shutil.copytree(
                        journal,
                        chaos_log_dir / f"election-journal-{label}",
                        dirs_exist_ok=True,
                    )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()
