"""Launch the real CLI processes, wait for them, and always tear them down.

A :class:`Topology` is one router, one primary and one HTTP follower, each
started as ``python -m repro ... serve|route`` with default flags apart from
addresses (``--port 0``), roots, ``--follow`` and ``--backend`` — and
``--trace-log`` for a traced run.  Each process prints its address on
stdout; the topology parses it from the process's output file instead of
guessing ports.  Readiness is an observed event (``/router/status``), never
a sleep.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from perfbench import procstat
from perfbench.client import fetch_json

_ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")
_PR_SET_PDEATHSIG = 1

#: Environment variables of the program that would change its behaviour.
_PROGRAM_ENV = ("REPRO_TRACE_LOG", "REPRO_TRACE_SERVICE", "REPRO_FAULTS", "REPRO_FAULTS_LOG")


class HarnessError(RuntimeError):
    """The program could not be started or did not become ready in time."""


def die_with_parent() -> None:
    """``preexec_fn`` for every child: the kernel kills it if the harness dies,
    even by SIGKILL, so no server outlives a run."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def host_facts() -> str:
    """nproc and the filesystem (with mount options) the catalog roots live on."""
    root = str(checkout_root())
    best = ("?", "?", "")
    with open("/proc/mounts", "r", encoding="utf-8") as handle:
        for line in handle:
            _, mount, fstype, options = line.split()[:4]
            if (root + "/").startswith(mount.rstrip("/") + "/") and len(mount) >= len(best[2]):
                best = (fstype, options, mount)
    return f"nproc={os.cpu_count()} filesystem={best[0]} ({best[1]}) mounted at {best[2]}; fsync on"


def checkout_root() -> Path:
    """The directory holding ``perfbench/`` and the program's ``src/``."""
    return Path(__file__).resolve().parent.parent


def program_env() -> Dict[str, str]:
    """The environment for program processes: the checkout's ``src`` first."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    src = str(checkout_root() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkDir:
    """A fresh scratch directory inside the checkout, removed on close.

    Its name carries the owner's pid, so a run that was SIGKILLed (and
    could not clean up) has its leftovers removed by the next run.
    """

    def __init__(self, label: str):
        base = checkout_root() / ".perfbench_work"
        base.mkdir(exist_ok=True)
        for stale in base.iterdir():
            owner = stale.name.split("-")[1] if stale.name.count("-") >= 2 else ""
            if owner.isdigit() and not _alive(int(owner)):
                shutil.rmtree(stale, ignore_errors=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-{os.getpid()}-", dir=base))

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run still uses it
        except OSError:
            pass


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Process:
    """One launched CLI process whose stdout and stderr go to files."""

    def __init__(self, name: str, argv: List[str], workdir: Path):
        self.name = name
        self.out_path = workdir / f"{name}.out"
        self.err_path = workdir / f"{name}.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.popen = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=program_env(),
                cwd=str(checkout_root()),
                preexec_fn=die_with_parent,
            )
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        return self.popen.pid

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def wait_address(self, deadline: float) -> None:
        """Block until the process printed its address (or died, or timed out)."""
        while True:
            text = self.out_path.read_text(encoding="utf-8", errors="replace")
            match = _ADDRESS.search(text)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.popen.poll() is not None:
                raise HarnessError(f"{self.name} exited early:\n{self.stderr_tail()}")
            if time.monotonic() > deadline:
                raise HarnessError(f"{self.name} printed no address in time")
            time.sleep(0.005)

    def stderr_tail(self) -> str:
        try:
            return self.err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        except OSError:
            return ""

    def sample(self) -> Dict[str, float]:
        return procstat.sample(self.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaped."""
        if self.popen.poll() is None:
            try:
                self.popen.send_signal(signal.SIGINT)
                self.popen.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(timeout=10)


class Topology:
    """Router -> primary -> HTTP follower, on fresh roots under ``workdir``."""

    def __init__(self, workdir: Path, trace: bool = False, timeout: float = 60.0):
        self.workdir = workdir
        self.processes: List[Process] = []
        self.primary_root = workdir / "primary-root"
        self.follower_root = workdir / "follower-root"
        deadline = time.monotonic() + timeout
        try:
            self.primary = self._launch(
                "primary", ["--root", str(self.primary_root), "serve", "--port", "0"], trace
            )
            self.primary.wait_address(deadline)
            self.follower = self._launch(
                "follower",
                ["--root", str(self.follower_root), "serve", "--port", "0",
                 "--follow", self.primary.url],
                trace,
            )
            self.follower.wait_address(deadline)
            self.router = self._launch(
                "router",
                ["route", "--port", "0", "--backend", self.primary.url,
                 "--backend", self.follower.url],
                trace,
            )
            self.router.wait_address(deadline)
            self._wait_routable(deadline)
        except BaseException:
            self.close()
            raise

    def _launch(self, name: str, argv: List[str], trace: bool) -> Process:
        if trace:
            argv = argv + ["--trace-log", str(self.workdir / f"{name}.trace.jsonl")]
        process = Process(name, argv, self.workdir)
        self.processes.append(process)
        return process

    def trace_logs(self) -> List[str]:
        """The processes' span sinks, plus the load generator's."""
        names = [p.name for p in self.processes] + ["bench"]
        return [str(self.workdir / f"{name}.trace.jsonl") for name in names]

    def _wait_routable(self, deadline: float) -> None:
        """Until the router sees a healthy primary and a healthy follower."""
        while True:
            try:
                status, payload = fetch_json(self.router.host, self.router.port, "/router/status")
            except OSError:
                status, payload = 0, None
            if status == 200 and isinstance(payload, dict):
                roles = {
                    b["url"]: b["role"] for b in payload.get("backends", []) if b.get("healthy")
                }
                if roles.get(self.primary.url) == "primary" and roles.get(self.follower.url) == "follower":
                    return
            for process in self.processes:
                if process.popen.poll() is not None:
                    raise HarnessError(f"{process.name} exited:\n{process.stderr_tail()}")
            if time.monotonic() > deadline:
                raise HarnessError(f"the router never saw both backends healthy: {payload}")
            time.sleep(0.01)

    def samples(self) -> Dict[str, Dict[str, float]]:
        return {p.name: p.sample() for p in self.processes}

    def close(self) -> None:
        # The router first, so it stops polling the backends it fronts.
        for process in reversed(self.processes):
            try:
                process.stop()
            except OSError:
                pass


def wait_until(predicate, timeout: float, what: str, interval: float = 0.02):
    """Poll ``predicate`` until it returns a truthy value; raise after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise HarnessError(f"timed out waiting for {what}")
        time.sleep(interval)
