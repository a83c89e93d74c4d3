"""The benchmark's seeded inputs: the same seed always gives the same inputs.

The program only ever receives the generated records; the seed stays here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compose.composer import compose
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.textio.format import problem_from_text, problem_to_text
from repro.textio.records import parse_record, result_to_text

#: Chain shape of every workload: the ``engine_chain_batch`` shape.
CHAIN_SHAPE = dict(min_chain_length=10, max_chain_length=14, schema_size=5)

#: Problem records in the serving workloads' pool.  Large enough that the
#: slowest records, which set the tail, differ little from seed to seed.
POOL_SIZE = 640
#: Result records stored at set-up and read back by GETs.
READ_NAMES = tuple(f"read-{i:02d}" for i in range(12))
#: Names the mixed workload's writer stores new versions under.
WRITE_NAMES = tuple(f"write-{i:02d}" for i in range(4))


def chains(seed: int, count: int, stream: int = 0):
    """``count`` generated chains of the workload shape (``stream`` varies them)."""
    return generate_workload(
        WorkloadConfig(num_problems=count, seed=_mix(seed, stream), **CHAIN_SHAPE)
    )


def _mix(seed: int, stream: int) -> int:
    return random.Random(f"perfbench:{seed}:{stream}").randrange(2**31)


def result_key(text: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The parts of a result record a correct response must reproduce.

    Constraints and residual signature; timing lines are ignored.
    """
    sections = parse_record(text).sections
    return tuple(sections.get("constraints", ())), tuple(sections.get("residual", ()))


@dataclass
class RecordPool:
    """Problem record texts with their in-process ``compose()`` answers."""

    texts: List[bytes]
    expected: List[Tuple[Tuple[str, ...], Tuple[str, ...]]]

    def __len__(self) -> int:
        return len(self.texts)


def record_pool(seed: int, size: int = POOL_SIZE) -> RecordPool:
    """Pairwise problems of seeded generated chains, as wire records."""
    texts: List[bytes] = []
    stream = 0
    while len(texts) < size:
        for chain in chains(seed, 8, stream=1000 + stream):
            for problem in pairwise_problems(chain):
                texts.append(problem_to_text(problem).encode("utf-8"))
        stream += 1
    texts = texts[:size]
    expected = [
        result_key(result_to_text(compose(problem_from_text(t.decode("utf-8")))))
        for t in texts
    ]
    return RecordPool(texts, expected)


def write_plan(pool: RecordPool, seed: int, initial: Dict[str, int]) -> "WritePlan":
    return WritePlan(pool, random.Random(f"perfbench:writes:{seed}"), dict(initial))


class WritePlan:
    """Seeded stored writes, each different from its name's latest version.

    ``initial`` maps each writer name to the pool index stored at set-up, so
    content dedupe never turns a timed write into a no-op.
    """

    def __init__(self, pool: RecordPool, rng: random.Random, initial: Dict[str, int]):
        self.pool = pool
        self.rng = rng
        self.latest = initial
        self.names = sorted(initial)

    def next(self) -> Tuple[str, int]:
        name = self.names[self.rng.randrange(len(self.names))]
        current = self.pool.expected[self.latest[name]]
        while True:
            index = self.rng.randrange(len(self.pool))
            if self.pool.expected[index] != current:
                self.latest[name] = index
                return name, index
