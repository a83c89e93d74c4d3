"""Read a process's CPU, write and peak-memory counters from ``/proc``.

The benchmark samples each process of the program just before and just
after a timed phase; the difference is what that phase cost the process.
"""

from __future__ import annotations

import os
from typing import Dict

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def sample(pid: int) -> Dict[str, float]:
    """``cpu_s`` (utime + stime), ``wchar``, ``syscw`` and ``vm_hwm_kb`` of ``pid``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        stat = handle.read()
    # The command name may hold spaces and parentheses: the fields that
    # follow start after its last ')' (field 3, the state, is index 0).
    fields = stat[stat.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    io: Dict[str, int] = {}
    with open(f"/proc/{pid}/io", "r", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            io[key.strip()] = int(value)
    hwm_kb = 0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
                break
    return {
        "cpu_s": (utime + stime) / _CLK_TCK,
        "wchar": float(io.get("wchar", 0)),
        "syscw": float(io.get("syscw", 0)),
        "vm_hwm_kb": float(hwm_kb),
    }


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """What happened between two samples; ``vm_hwm_kb`` is the later peak."""
    out = {key: after[key] - before[key] for key in ("cpu_s", "wchar", "syscw")}
    out["vm_hwm_kb"] = after["vm_hwm_kb"]
    return out
