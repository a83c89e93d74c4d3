"""``engine_batch``: distinct 10-14-hop chains through one ``BatchComposer``.

The composing process is a fresh ``python -m perfbench.engine_batch``
worker.  It prints ``ready`` once the engine is imported and the composer
built (the end of set-up), then generates its chains, composes two untimed
warm-up slices, and composes slices of 16 (the service's micro-batch size)
until the timed slices add up to the run time; chains are generated
between slices.  CPU is the process's own (``time.process_time``) per
slice.  Its last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List

from perfbench import procstat
from perfbench.stats import Window
from perfbench.topology import HarnessError, checkout_root, die_with_parent, program_env

SLICE = 16
#: Windows of the timed phase; each metric is the median over windows.
WINDOWS = 6
#: Chains generated at a time, between timed slices.
CHUNK = 128
#: Chains re-composed serially with ``compose_chain`` to check the batch.
SAMPLE = 8


def constraint_lines(constraints) -> List[str]:
    return [str(c) for c in constraints]


def _ready():
    """Set-up: import the engine and build the composer with library defaults."""
    from repro.engine.batch import BatchComposer, BatchConfig

    composer = BatchComposer(BatchConfig())
    print("ready", flush=True)
    return composer


def worker(seed: int, seconds: float) -> dict:
    composer = _ready()

    from repro.engine.chain import compose_chain

    from perfbench import inputs

    warmup = inputs.chains(seed, 2 * SLICE, stream=0)
    for i in range(0, len(warmup), SLICE):
        composer.run_chains(warmup[i:i + SLICE])

    windows = [Window(0.0) for _ in range(WINDOWS)]
    phases: Dict[str, float] = {}
    cache = {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
    own_seconds = wall_seconds = 0.0
    failed = 0
    sample = set(random.Random(f"perfbench:sample:{seed}").sample(range(4 * SAMPLE), SAMPLE))
    sampled: Dict[int, tuple] = {}
    seen = {chain.seed for chain in warmup}
    done = 0
    stream = 0
    while wall_seconds < seconds:
        # Chains are generated between timed slices, not held for the whole
        # run: a thousand of them take about 200 MB.
        stream += 1
        chunk = [c for c in inputs.chains(seed, CHUNK, stream=stream) if c.seed not in seen]
        seen.update(c.seed for c in chunk)
        for start in range(0, len(chunk), SLICE):
            if wall_seconds >= seconds:
                break
            batch = chunk[start:start + SLICE]
            cpu0, t0 = time.process_time(), time.perf_counter()
            report = composer.run_chains(batch)
            elapsed = time.perf_counter() - t0
            window = windows[min(int(wall_seconds / seconds * WINDOWS), WINDOWS - 1)]
            window.seconds += elapsed
            window.cpu_s += time.process_time() - cpu0
            wall_seconds += elapsed
            for offset, item in enumerate(report.items):
                if not item.ok:
                    failed += 1
                    continue
                own_seconds += item.elapsed_seconds
                window.add("chain", item.elapsed_seconds * 1e3)
                for hop in item.result.hops:
                    window.add("hop", hop.elapsed_seconds * 1e3, counts=False)
                    for phase, value in hop.phase_seconds:
                        phases[phase] = phases.get(phase, 0.0) + value
                if done + offset in sample:
                    sampled[done + offset] = (
                        batch[offset].mappings, constraint_lines(item.result.constraints)
                    )
            for key in cache:
                cache[key] += (report.cache_stats or {}).get(key, 0.0)
            done += len(batch)

    mismatched = [
        index
        for index, (mappings, lines) in sampled.items()
        if constraint_lines(compose_chain(mappings).constraints) != lines
    ]

    lookups = cache["hits"] + cache["misses"]
    return {
        "attempted": done,
        "failed": failed,
        "windows": [window.to_json() for window in windows],
        "vm_hwm_kb": procstat.sample(os.getpid())["vm_hwm_kb"],
        "phases": phases,
        "cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "cache_evictions": cache["evictions"],
        "batch_overhead_share": 1.0 - own_seconds / wall_seconds,
        "sampled": len(sampled),
        "mismatched": mismatched,
    }


class Launch:
    """One worker process, timed from launch until it prints ``ready``.

    A watchdog kills the worker if it overruns, so a read never hangs.
    """

    def __init__(self, seed: int, seconds: float, setup_only: bool, timeout: float):
        argv = [sys.executable, "-m", "perfbench.engine_batch", "--seed", str(seed),
                "--seconds", str(seconds)]
        if setup_only:
            argv.append("--setup-only")
        env = program_env()
        env["PYTHONPATH"] = str(checkout_root()) + os.pathsep + env["PYTHONPATH"]
        started = time.perf_counter()
        self.popen = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
            cwd=str(checkout_root()), text=True, preexec_fn=die_with_parent,
        )
        self._watchdog = threading.Timer(timeout, self.popen.kill)
        self._watchdog.start()
        try:
            line = self.popen.stdout.readline()
            if line.strip() != "ready":
                raise HarnessError(f"engine worker did not start: {line!r}")
            self.setup_seconds = time.perf_counter() - started
        except BaseException:
            self.close()
            raise

    def result(self) -> dict:
        """The worker's JSON report (read until it exits)."""
        out = self.popen.stdout.read()
        if self.popen.wait() != 0:
            raise HarnessError(f"engine worker exited {self.popen.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        self._watchdog.cancel()
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait()
        self.popen.stdout.close()


def _launch_and_read(seed: int, seconds: float, setup_only: bool, timeout: float):
    launch = Launch(seed, seconds, setup_only, timeout)
    try:
        return launch.setup_seconds, launch.result()
    finally:
        launch.close()


def run(seed: int, seconds: float, setups: int) -> dict:
    """``setups`` launches (the last one measures); returns the worker report."""
    setup_seconds = [
        _launch_and_read(seed, seconds, True, timeout=60)[0] for _ in range(setups - 1)
    ]
    ready, report = _launch_and_read(seed, seconds, False, timeout=seconds * 2 + 120)
    report["setup_seconds"] = setup_seconds + [ready]
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        _ready()
        print(json.dumps({}))
        return 0
    print(json.dumps(worker(args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
