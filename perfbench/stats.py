"""Percentiles, the tail rule, and per-window medians the benchmark reports."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
_TAILS = (99.0, 90.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    p99 needs 1000 samples, p90 needs 100; ``None`` below 20 samples.
    """
    for q in _TAILS:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Window:
    """One slice of a timed phase: its length, CPU, and completed operations."""

    __slots__ = ("seconds", "cpu_s", "completed", "latencies_ms")

    def __init__(self, seconds: float, cpu_s: float = 0.0):
        self.seconds = seconds
        self.cpu_s = cpu_s
        self.completed = 0
        self.latencies_ms: Dict[str, List[float]] = {}

    def add(self, kind: str, ms: float, counts: bool = True) -> None:
        self.latencies_ms.setdefault(kind, []).append(ms)
        if counts:
            self.completed += 1

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    @classmethod
    def from_json(cls, data: dict) -> "Window":
        window = cls(data["seconds"], data["cpu_s"])
        window.completed = data["completed"]
        window.latencies_ms = data["latencies_ms"]
        return window


def windowed(windows: Sequence[Window], kinds: Sequence[Tuple[str, str, float]]) -> Dict[str, float]:
    """Each metric per window, then the median over windows.

    A median over windows keeps a short disturbance in one window (another
    tenant's burst, a collector pause) from moving a whole run's figure.
    ``kinds`` lists ``(prefix, kind, tail percentile)``.
    """
    live = [w for w in windows if w.completed]
    out = {
        "ops_per_s": median([w.completed / w.seconds for w in live]),
        "cpu_ms_per_op": median([w.cpu_s * 1e3 / w.completed for w in live]),
    }
    for prefix, kind, tail in kinds:
        per_window = [w.latencies_ms[kind] for w in live if w.latencies_ms.get(kind)]
        out[f"{prefix}_p50_ms"] = median([percentile(v, 50) for v in per_window])
        out[f"{prefix}_tail_ms"] = median([percentile(v, tail) for v in per_window])
    return out
