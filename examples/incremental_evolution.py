"""Incremental recomposition: an edit-replay session over an evolving chain.

The paper's motivating scenario is schema evolution: a designer applies edit
after edit, and after every edit the end-to-end mapping from the original
schema to the current one is recomposed.  Recomposing from scratch costs
O(n²) total hops over an n-edit sequence; the incremental engine records a
checkpoint per hop (keyed by content fingerprints) and replays only the hops
at or after the first change, so the same session is near-linear — with
byte-identical outputs.

This example drives an :class:`~repro.engine.incremental.EvolutionSession`
through a sequence of simulator-generated edits, then edits a mapping in the
middle of the chain, and compares the replay counts and wall-clock against
from-scratch recomposition.

Run with::

    python examples/incremental_evolution.py [num_edits] [schema_size]
"""

import sys
import time

from repro.engine import ChainGrower, EvolutionSession, compose_chain


def main() -> None:
    num_edits = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    schema_size = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    grower = ChainGrower(seed=2006, schema_size=schema_size)
    mappings = grower.grow_many(num_edits + 1)

    # -- incremental: one session, one recomposition per edit -------------------
    started = time.perf_counter()
    session = EvolutionSession(mappings[:1])
    for mapping in mappings[1:]:
        session.append(mapping)
    incremental_seconds = time.perf_counter() - started

    print(f"edit-replay session over {num_edits} edits "
          f"(schema of {schema_size} relations):")
    for event in session.events[1:]:
        print(f"  {event.kind:>6s} -> chain of {event.chain_length:2d}, "
              f"replayed {event.replayed_hops}/{event.total_hops} hops "
              f"in {event.elapsed_seconds * 1000:6.1f} ms")
    print(session.summary())

    # -- the same edits, recomposed from scratch each time -----------------------
    started = time.perf_counter()
    scratch_results = [
        compose_chain(tuple(mappings[: k + 1])) for k in range(1, num_edits + 1)
    ]
    from_scratch_seconds = time.perf_counter() - started

    final = session.result
    assert final.constraints.to_text() == scratch_results[-1].constraints.to_text()
    print(f"\nincremental: {incremental_seconds * 1000:7.1f} ms   "
          f"from scratch: {from_scratch_seconds * 1000:7.1f} ms   "
          f"speedup: {from_scratch_seconds / incremental_seconds:.1f}x "
          f"(outputs byte-identical)")

    # -- edit one mapping in the middle: only the suffix is replayed --------------
    index = num_edits // 2
    old = session.mappings[index]
    from repro.constraints.constraint_set import ConstraintSet
    from repro.mapping.mapping import Mapping

    reordered = list(old.constraints)
    reordered = reordered[1:] + reordered[:1]
    session.edit(index, Mapping(
        old.input_signature, old.output_signature, ConstraintSet(reordered)
    ))
    event = session.events[-1]
    print(f"\nediting mapping #{index} replayed only the suffix: "
          f"{event.replayed_hops}/{event.total_hops} hops "
          f"({event.reused_hops} reused)")

    print("\nengine statistics:")
    for name, stats in session.composer.stats().items():
        interesting = {k: v for k, v in stats.items() if k in
                       ("hits", "misses", "entries", "hit_rate")}
        print(f"  {name}: " + ", ".join(f"{k}={v:g}" if not isinstance(v, float)
                                        else f"{k}={v:.2f}"
                                        for k, v in interesting.items()))


if __name__ == "__main__":
    main()
