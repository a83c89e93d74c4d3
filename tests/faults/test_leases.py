"""Tests for the lease-based cross-process claim table.

The guarantee under test: while a lease is live, at most one owner holds the
key — and a *dead* owner (SIGKILL, no cleanup) loses its claims after the
TTL instead of wedging the key forever.
"""

import json
import time

import pytest

from repro.catalog.leases import DEFAULT_LEASE_TTL_SECONDS, LeaseTable
from repro.exceptions import LeaseUnavailableError


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.mark.parametrize("ttl", [0, -1.0, float("nan")])
def test_ttl_must_be_positive(tmp_path, ttl):
    with pytest.raises(ValueError):
        LeaseTable(tmp_path, ttl_seconds=ttl)


class TestClaimLifecycle:
    def test_acquire_renew_release(self, tmp_path):
        table = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        lease = table.acquire("job-1")
        assert lease is not None and lease.owner == "alice"
        assert table.peek("job-1").owner == "alice"
        assert table.renew("job-1") is True
        table.release("job-1")
        assert table.peek("job-1") is None
        stats = table.stats()
        assert stats["acquired"] == 1
        assert stats["renewals"] == 1
        assert stats["released"] == 1
        assert stats["held"] == 0

    def test_live_claim_by_peer_is_respected(self, tmp_path):
        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=30.0)
        assert alice.acquire("job-1") is not None
        assert bob.acquire("job-1") is None
        assert bob.stats()["contested"] == 1
        # A different key is free.
        assert bob.acquire("job-2") is not None

    def test_own_claim_reacquires(self, tmp_path):
        table = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        first = table.acquire("job-1")
        second = table.acquire("job-1")
        assert second is not None
        assert second.expires_at >= first.expires_at

    def test_default_owner_is_process_unique(self, tmp_path):
        a = LeaseTable(tmp_path)
        b = LeaseTable(tmp_path)
        assert a.owner != b.owner  # nonce guards against pid reuse


class TestExpiryAndTakeover:
    def test_expired_lease_is_taken_over(self, tmp_path):
        clock = FakeClock()
        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=10.0, clock=clock)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=10.0, clock=clock)
        assert alice.acquire("job-1") is not None
        assert bob.acquire("job-1") is None
        clock.advance(10.1)  # alice never renewed: her lease expires
        stolen = bob.acquire("job-1")
        assert stolen is not None and stolen.owner == "bob"
        assert bob.stats()["takeovers"] == 1

    def test_renew_detects_a_lost_lease(self, tmp_path):
        clock = FakeClock()
        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=10.0, clock=clock)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=10.0, clock=clock)
        alice.acquire("job-1")
        clock.advance(10.1)
        bob.acquire("job-1")  # takeover
        assert alice.renew("job-1") is False
        assert alice.stats()["lost"] == 1
        assert alice.stats()["held"] == 0

    def test_release_after_takeover_leaves_new_owner_intact(self, tmp_path):
        clock = FakeClock()
        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=10.0, clock=clock)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=10.0, clock=clock)
        alice.acquire("job-1")
        clock.advance(10.1)
        bob.acquire("job-1")
        alice.release("job-1")  # must not unlink bob's claim
        assert alice.peek("job-1").owner == "bob"

    def test_heartbeat_keeps_leases_alive(self, tmp_path):
        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=0.4)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=0.4)
        alice.acquire("job-1")
        alice.start_heartbeat(interval_seconds=0.05)
        try:
            deadline = time.monotonic() + 1.0  # 2.5x the TTL
            while time.monotonic() < deadline:
                assert bob.acquire("job-1") is None, "heartbeat failed to renew"
                time.sleep(0.05)
        finally:
            alice.stop_heartbeat()
        assert alice.stats()["renewals"] >= 2


class TestRobustness:
    def test_corrupt_lease_file_is_an_absent_claim(self, tmp_path):
        table = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        table.acquire("job-1")
        path = table._lease_path("job-1")
        path.write_text("{torn json", encoding="utf-8")
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=30.0)
        assert bob.peek("job-1") is None
        assert bob.acquire("job-1") is not None  # claimable immediately

    def test_wait_acquire_times_out_on_a_live_peer(self, tmp_path):
        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=30.0)
        alice.acquire("job-1")
        started = time.monotonic()
        with pytest.raises(LeaseUnavailableError):
            bob.wait_acquire("job-1", timeout=0.2)
        assert time.monotonic() - started >= 0.2

    def test_wait_acquire_wins_when_holder_releases(self, tmp_path):
        import threading

        alice = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        bob = LeaseTable(tmp_path, owner="bob", ttl_seconds=30.0)
        alice.acquire("job-1")
        releaser = threading.Timer(0.1, alice.release, args=("job-1",))
        releaser.start()
        try:
            lease = bob.wait_acquire("job-1", timeout=10.0)
        finally:
            releaser.join()
        assert lease.owner == "bob"

    def test_default_ttl_is_sane(self):
        assert DEFAULT_LEASE_TTL_SECONDS > 0


#: Acquires one lease with a short TTL, reports it, then spins forever
#: renewing nothing — the parent SIGKILLs it mid-hold.
_HOLDER = """
import sys, time
from repro.catalog.leases import LeaseTable

directory, ttl = sys.argv[1], float(sys.argv[2])
table = LeaseTable(directory, owner="doomed", ttl_seconds=ttl)
assert table.acquire("job-1") is not None
print("held", flush=True)
time.sleep(3600)
"""


class TestCrashTakeover:
    def test_sigkilled_holder_loses_the_lease_after_ttl(self, tmp_path, run_python):
        ttl = 1.0
        holder = run_python(_HOLDER, str(tmp_path), str(ttl), wait=False)
        assert holder.stdout.readline().strip() == "held"
        holder.kill()
        holder.communicate()

        survivor = LeaseTable(tmp_path, owner="survivor", ttl_seconds=ttl)
        # While the dead owner's lease is still live, it is respected...
        assert survivor.acquire("job-1") is None
        # ...and once it expires (no heartbeat renews it), it is stolen.
        lease = survivor.wait_acquire("job-1", timeout=30.0)
        assert lease.owner == "survivor"
        assert survivor.stats()["takeovers"] == 1

    def test_lease_files_are_json_on_disk(self, tmp_path):
        table = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        table.acquire("job-1")
        payload = json.loads(table._lease_path("job-1").read_text())
        assert payload["owner"] == "alice"
        assert payload["key"] == "job-1"
        assert payload["expires_at"] > payload["acquired_at"]


class TestHeartbeatFailureCounters:
    def _wait_for(self, predicate, timeout=10.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_failing_heartbeat_is_counted_not_fatal(self, tmp_path):
        table = LeaseTable(tmp_path, owner="alice", ttl_seconds=30.0)
        table.acquire("job-1")

        def broken_renew_all():
            raise OSError("injected heartbeat failure")

        table.renew_all = broken_renew_all
        table.start_heartbeat(interval_seconds=0.01)
        try:
            assert self._wait_for(lambda: table.stats()["heartbeat_failures"] >= 2)
            stats = table.stats()
            assert stats["heartbeat_consecutive_failures"] >= 1
            assert table._heartbeat.is_alive()  # the thread survived
            # Recovery: a working renewal round resets the consecutive count
            # (the lifetime tally keeps growing monotonically).
            del table.renew_all
            assert self._wait_for(
                lambda: table.stats()["heartbeat_consecutive_failures"] == 0
            )
            assert table.stats()["heartbeat_failures"] >= 2
        finally:
            table.stop_heartbeat()
            table.release_all()

    def test_stats_expose_heartbeat_counters_from_the_start(self, tmp_path):
        stats = LeaseTable(tmp_path, owner="alice").stats()
        assert stats["heartbeat_failures"] == 0
        assert stats["heartbeat_consecutive_failures"] == 0
