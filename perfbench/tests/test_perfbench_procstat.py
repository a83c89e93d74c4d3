"""The /proc sampler, on a child process whose work is known."""

import os
import subprocess
import sys

from perfbench import procstat

#: Burns CPU for a while, then makes 64 write calls of 16 KiB each.
_CHILD = r"""
import os, sys, time
deadline = time.process_time() + 0.3
while time.process_time() < deadline:
    pass
fd = os.open(os.devnull, os.O_WRONLY)
for _ in range(64):
    os.write(fd, b"x" * 16384)
big = bytearray(64 * 1024 * 1024)
print("done", flush=True)
sys.stdin.read()
"""


def test_sampler_reads_a_known_child():
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        before = procstat.sample(child.pid)
        assert child.stdout.readline().strip() == "done"
        after = procstat.sample(child.pid)
    finally:
        child.stdin.close()
        child.wait(timeout=10)
        child.stdout.close()
    spent = procstat.delta(before, after)
    assert spent["cpu_s"] >= 0.2
    assert spent["wchar"] >= 64 * 16384
    assert spent["syscw"] >= 64
    assert after["vm_hwm_kb"] >= 64 * 1024
    assert spent["vm_hwm_kb"] == after["vm_hwm_kb"]


def test_sampler_reads_its_own_process():
    now = procstat.sample(os.getpid())
    assert set(now) == {"cpu_s", "wchar", "syscw", "vm_hwm_kb"}
    assert now["cpu_s"] > 0 and now["vm_hwm_kb"] > 0
