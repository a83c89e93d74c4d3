"""Replication + unattended failover: primary → follower → kill → *election*.

The catalog became durable in PR 5 and shareable in PR 6; PR 8 made it
survivable with an operator in the loop (`POST /admin/promote`).  This
walkthrough removes the operator.  A primary service takes writes while a
:class:`~repro.service.ReplicationFollower` tails its append-only journal
and mirrors every entry into a second catalog root; both processes run a
:class:`~repro.service.LeaderElector` over a shared lease directory.  A
:class:`~repro.service.RouterHTTPServer` fronts both.  Then the primary is
torn down without ceremony — and *nobody promotes anything*: the candidate
elector notices the silence, wins the ``leader`` lease race, self-promotes
with a fresh fencing epoch, the router observes the role flip, and writes
flow again.  The promoted catalog holds every acknowledged version,
fingerprint-verified — and the old primary's root is fenced, so a zombie
restart cannot split-brain the store.

Run with::

    python examples/replicated_failover.py [work_dir]

Without an argument a temporary directory is used (and cleaned up); pass a
path to inspect the two catalog roots, the election directory, and the
primary's journal segments afterwards.
"""

import json
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower
from repro.exceptions import StaleEpochError
from repro.service import (
    CompositionService,
    LeaderElector,
    ReplicationFollower,
    RouterHTTPServer,
    ServiceConfig,
    ServiceHTTPServer,
    open_source,
)
from repro.textio.records import chain_to_text


def post(url: str, body: bytes = b"") -> tuple[int, str, dict]:
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read().decode(), dict(response.headers)


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode())


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def main() -> None:
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as root:
            run(Path(root))


def run(work_dir: Path) -> None:
    primary_root = work_dir / "primary"
    follower_root = work_dir / "replica"
    election_dir = work_dir / "election"

    # -- 1. the primary: a serving stack that holds the leader lease -----------
    primary_catalog = MappingCatalog(primary_root)
    primary_elector = LeaderElector(
        primary_catalog, election_dir=election_dir, election_timeout_seconds=1.0
    ).start()
    primary_service = CompositionService(
        primary_catalog, ServiceConfig()
    )
    primary_service.start()
    primary_server = ServiceHTTPServer(
        primary_service, port=0, elector=primary_elector
    )
    primary_server.start()
    primary_base = "http://{}:{}".format(*primary_server.address)
    print(f"primary   serving {primary_root} at {primary_base}")

    # -- 2. the candidate: a follower plus an elector watching the primary -----
    # open_source() accepts the primary's catalog root (reads segments off a
    # shared disk) or its HTTP base URL.  The root path is what makes step 5
    # work: the journal outlives the primary process, so the self-promotion's
    # final catch-up can drain it after the kill.
    follower_catalog = MappingCatalog(follower_root)
    follower = ReplicationFollower(
        follower_catalog, open_source(str(primary_root)), poll_interval_seconds=0.05
    ).start()
    candidate_elector = LeaderElector(
        follower_catalog,
        follower=follower,
        election_dir=election_dir,
        source_root=primary_root,
        primary_url=primary_base,
        election_timeout_seconds=1.0,
        health_timeout_seconds=0.5,
    ).start()
    follower_service = CompositionService(
        follower_catalog, ServiceConfig()
    )
    follower_service.start()
    follower_server = ServiceHTTPServer(
        follower_service, port=0, follower=follower, elector=candidate_elector
    )
    follower_server.start()
    follower_base = "http://{}:{}".format(*follower_server.address)
    print(f"candidate mirroring into {follower_root} at {follower_base}")

    # -- 3. the router: health-routed front tier over both ----------------------
    router = RouterHTTPServer(
        [primary_base, follower_base], port=0, health_interval_seconds=0.1
    ).start()
    router_base = "http://{}:{}".format(*router.address)
    print(f"router    fronting both at {router_base}")
    print(f"election  shared lease directory {election_dir}\n")

    try:
        # -- 4. write load through the router ----------------------------------
        grower = ChainGrower(seed=2006, schema_size=8)
        hops = tuple(grower.grow_many(10))
        chains = [hops[i : i + 4] for i in range(6)]
        acknowledged = []
        for index in range(3):
            name = f"edit-{index}"
            status, _, headers = post(
                f"{router_base}/compose?store={name}",
                chain_to_text(chains[index]).encode(),
            )
            assert status == 200
            acknowledged.append(name)
            print(f"write {name!r} -> {headers['x-repro-backend']} (the primary)")

        # The lag is worked out from the follower's last poll: wait for a
        # poll that began after the writes (two polls on) to report none.
        polls = follower.polls
        wait_for(lambda: follower.polls >= polls + 2
                 and follower.status()["lag_entries"] == 0)
        print(f"replication lag drained: {follower.status()['entries_applied']} "
              "entries mirrored")
        election = get_json(f"{follower_base}/healthz")["election"]
        print(f"candidate elector: role={election['role']!r}, "
              f"elections so far: {election['elections_started']}\n")

        # -- 5. the primary dies: no cleanup, no flush, and NO operator ---------
        print("tearing the primary down without ceremony...")
        primary_server.stop()
        primary_service.stop()
        primary_elector.stop()

        # Writes have no backend until the election resolves: 503 + Retry-After.
        try:
            post(f"{router_base}/compose?store=during-outage",
                 chain_to_text(chains[3]).encode())
        except urllib.error.HTTPError as exc:
            print(f"write during outage -> {exc.code}, "
                  f"Retry-After: {exc.headers['Retry-After']}s")

        # -- 6. the candidate self-promotes: nobody calls /admin/promote --------
        assert wait_for(
            lambda: get_json(f"{follower_base}/healthz")
            .get("election", {})
            .get("role")
            == "leader"
        ), "the candidate never won the election"
        health = get_json(f"{follower_base}/healthz")
        print(f"candidate won the leader lease and self-promoted: "
              f"role={health['role']!r}, fencing epoch {health['epoch']}")

        wait_for(lambda: any(
            b["role"] == "primary" and b["healthy"] and b["url"] == follower_base
            for b in get_json(f"{router_base}/router/status")["backends"]
        ))

        # -- 7. writes flow again, into the self-promoted replica ---------------
        for index in range(3, 6):
            name = f"edit-{index}"
            status, _, headers = post(
                f"{router_base}/compose?store={name}",
                chain_to_text(chains[index]).encode(),
            )
            assert status == 200
            acknowledged.append(name)
            print(f"write {name!r} -> {headers['x-repro-backend']} "
                  f"(epoch {headers['x-repro-epoch']})")

        table = get_json(f"{router_base}/router/status")
        print(f"\nrouter observed {table['failovers_observed']} failover(s)")

        # -- 8. the books balance: every acknowledged write survived ------------
        promoted = MappingCatalog(follower_root)
        stored = set(promoted.names("mapping"))
        assert all(name in stored for name in acknowledged)
        assert all(promoted.verify("mapping", name) for name in acknowledged)
        print(f"all {len(acknowledged)} acknowledged writes present and "
              "fingerprint-verified in the promoted catalog")

        # -- 9. the zombie: the old root is fenced ------------------------------
        zombie = MappingCatalog(primary_root)
        try:
            zombie.put_mapping("split-brain", chains[0][0])
            raise AssertionError("the fenced ex-primary accepted a write")
        except StaleEpochError as exc:
            print(f"resurrected ex-primary refused: {exc}")
    finally:
        router.close()
        follower_server.stop()
        candidate_elector.stop()
        if not follower.promoted:
            follower.stop()
        follower_service.stop()


if __name__ == "__main__":
    main()
