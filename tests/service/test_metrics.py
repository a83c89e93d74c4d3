"""Metrics-layer tests: snapshot completeness and Prometheus exposition.

The snapshot test is deliberately reflective: every public scalar counter on
``ServiceMetrics`` is bumped to a unique sentinel, and the flattened snapshot
must contain every sentinel — so adding a counter without exposing it in
``snapshot()`` fails here instead of silently vanishing from ``/metrics``.
"""

import math

import pytest

from repro.service.metrics import DEFAULT_BUCKETS, LatencyHistogram, ServiceMetrics


def _flatten(value, out=None):
    """All scalar leaves of a nested dict, whatever their key paths."""
    if out is None:
        out = []
    if isinstance(value, dict):
        for child in value.values():
            _flatten(child, out)
    elif isinstance(value, (int, float)):
        out.append(value)
    return out


class TestLatencyHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        hist = LatencyHistogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):  # one per bucket + one to +Inf
            hist.observe(value)
        assert hist.cumulative() == [(0.01, 1), (0.1, 2), (1.0, 3)]
        assert hist.count == 4
        assert hist.total == pytest.approx(5.555)

    def test_negative_observations_clamp_to_zero(self):
        hist = LatencyHistogram()
        hist.observe(-1.0)
        assert hist.count == 1
        assert hist.total == 0.0
        assert hist.cumulative()[0][1] == 1  # landed in the smallest bucket

    def test_snapshot_shape(self):
        hist = LatencyHistogram(bounds=(0.5,))
        hist.observe(0.25)
        snap = hist.snapshot()
        assert snap == {
            "count": 1,
            "sum": 0.25,
            "mean": 0.25,
            "buckets": {"0.5": 1},
        }


class TestSnapshotCompleteness:
    def test_every_counter_appears_in_the_snapshot(self):
        metrics = ServiceMetrics()
        sentinels = {}
        counters = [
            name
            for name, value in vars(metrics).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ]
        assert counters, "reflection found no counters — the probe is broken"
        for index, name in enumerate(counters):
            sentinel = 100003 + 7 * index  # unique, ratio-collision-proof
            sentinels[name] = sentinel
            setattr(metrics, name, sentinel)
        leaves = set(_flatten(metrics.snapshot()))
        missing = [
            name for name, sentinel in sentinels.items() if sentinel not in leaves
        ]
        assert not missing, f"counters absent from snapshot(): {missing}"

    def test_snapshot_has_tracing_and_histogram_sections(self):
        metrics = ServiceMetrics()
        metrics.record_slow_request()
        metrics.observe("journal_fsync_seconds", 0.002)
        snap = metrics.snapshot()
        assert snap["tracing"]["slow_requests"] == 1
        assert set(snap["histograms"]) == {
            "election_seconds",
            "execution_seconds",
            "journal_fsync_seconds",
            "queue_seconds",
            "replication_lag_seconds",
            "shard_lock_seconds",
        }
        assert snap["histograms"]["journal_fsync_seconds"]["count"] == 1

    def test_record_batch_feeds_batching_section(self):
        metrics = ServiceMetrics()
        metrics.record_batch(4)
        metrics.record_batch(2)
        snap = metrics.snapshot()
        assert snap["batching"] == {
            "batches": 2,
            "batched_items": 6,
            "mean_batch_size": 3.0,
        }
        assert "expression_cache" not in snap

    def test_unknown_histogram_names_are_dropped_not_raised(self):
        metrics = ServiceMetrics()
        metrics.observe("no_such_histogram", 1.0)  # must not raise
        assert all(h.count == 0 for h in metrics.histograms.values())

    def test_record_completed_feeds_the_latency_histograms(self):
        metrics = ServiceMetrics()
        metrics.record_completed("succeeded", queue_seconds=0.002, execution_seconds=0.2)
        assert metrics.histograms["queue_seconds"].count == 1
        assert metrics.histograms["execution_seconds"].count == 1


def _parse_prometheus(text):
    """A minimal exposition-format parser: types + samples.

    Returns ``(types, samples)`` where samples maps
    ``name -> {labels_tuple: value}`` (``()`` for unlabeled samples).
    """
    types = {}
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        metric_part, value_part = line.rsplit(" ", 1)
        if "{" in metric_part:
            name, _, label_part = metric_part.partition("{")
            assert label_part.endswith("}")
            labels = []
            for pair in label_part[:-1].split(","):
                key, _, raw = pair.partition("=")
                assert raw.startswith('"') and raw.endswith('"'), line
                labels.append((key, raw[1:-1]))
            key = tuple(labels)
        else:
            name, key = metric_part, ()
        value = float(value_part)
        assert math.isfinite(value), line
        samples.setdefault(name, {})[key] = value
    return types, samples


class TestPrometheusExposition:
    def test_round_trips_through_a_minimal_parser(self):
        metrics = ServiceMetrics()
        metrics.record_submitted()
        metrics.record_completed("succeeded", queue_seconds=0.003, execution_seconds=0.04)
        metrics.observe("journal_fsync_seconds", 0.007)
        metrics.record_batch(4)
        metrics.record_batch_failure("OSError", 2)
        text = metrics.render_prometheus(pending=2, in_flight=1)
        types, samples = _parse_prometheus(text)

        assert types["repro_requests_completed"] == "gauge"
        assert samples["repro_requests_completed"][()] == 1.0
        assert samples["repro_requests_pending"][()] == 2.0
        # Dict tallies render as labeled samples.
        assert samples["repro_degradation_batch_failure_types"][(("key", "OSError"),)] == 1.0

        # The acceptance bar: histogram buckets for queue, execution, fsync.
        for stem in (
            "repro_queue_seconds",
            "repro_execution_seconds",
            "repro_journal_fsync_seconds",
        ):
            assert types[stem] == "histogram"
            buckets = samples[f"{stem}_bucket"]
            bounds = [dict(k)["le"] for k in buckets]
            assert "+Inf" in bounds
            assert len(bounds) == len(DEFAULT_BUCKETS) + 1
            # Cumulative counts are monotone in bound order.
            ordered = sorted(
                (float("inf") if b == "+Inf" else float(b) for b in bounds)
            )
            counts = [
                buckets[(("le", "+Inf" if math.isinf(b) else f"{b:g}"),)]
                for b in ordered
            ]
            assert counts == sorted(counts)
            # _count agrees with the +Inf bucket.
            assert samples[f"{stem}_count"][()] == buckets[(("le", "+Inf"),)]
            assert samples[f"{stem}_sum"][()] >= 0.0

        assert samples["repro_journal_fsync_seconds_count"][()] == 1.0

    def test_label_values_are_escaped(self):
        metrics = ServiceMetrics()
        metrics.record_batch_failure('Error"with\\quotes', items=1)
        text = metrics.render_prometheus()
        assert '\\"with\\\\quotes' in text
        _parse_prometheus(text)  # still parses
