"""Chained composition: folding a 5-hop schema-evolution history into one mapping.

A schema evolves through five versions — each hop applies one evolution
primitive (drop an attribute, add a defaulted column, partition horizontally,
take a subset, project a column away) and renames the surviving relations.
``compose_chain`` folds the five mappings through COMPOSE, threading residual
symbols forward, and yields a single mapping from version 1 to version 6.

The second half of the example runs a *batch* of randomized chain problems
through the :class:`BatchComposer` — the engine that powers the stress
benchmarks — and prints its aggregate report, including the hop-checkpoint
statistics.

Run with::

    python examples/chained_composition.py
"""

from repro import (
    BatchComposer,
    ConstraintSet,
    Mapping,
    Signature,
    WorkloadConfig,
    compose_chain,
    generate_workload,
    parse_constraints,
)


def build_five_hop_history():
    """Five evolution steps over an ``Employees``/``Projects`` schema.

    Every hop consumes its whole input schema: evolved relations get new
    constraints, untouched ones are renamed with an equality — exactly the
    shape the engine's workload generator produces at scale.
    """
    versions = [
        Signature.from_arities({"Emp": 4, "Proj": 3}),
        Signature.from_arities({"Emp2": 3, "Proj2": 3}),
        Signature.from_arities({"Emp3": 4, "Proj3": 3}),
        Signature.from_arities({"EmpA": 4, "EmpB": 4, "Proj4": 3}),
        Signature.from_arities({"EmpA2": 4, "Proj5": 3}),
        Signature.from_arities({"EmpA3": 4, "Proj6": 2}),
    ]
    hop_constraints = [
        # Hop 1 — DA: drop Emp's 4th column; Proj is renamed.
        "project[0,1,2](Emp/4) = Emp2/3\nProj/3 = Proj2/3",
        # Hop 2 — Df: add a defaulted department column to Emp2.
        "(Emp2/3 x const(('sales'))) = Emp3/4\nProj2/3 = Proj3/3",
        # Hop 3 — Hf: partition Emp3 by the default column's value.
        "select[#3 = 'sales'](Emp3/4) = EmpA/4\n"
        "select[#3 = 'eng'](Emp3/4) = EmpB/4\nProj3/3 = Proj4/3",
        # Hop 4 — Sub/DR: keep a subset of EmpA, drop EmpB.
        "EmpA/4 <= EmpA2/4\nProj4/3 = Proj5/3",
        # Hop 5 — DA on Proj: drop the budget column; EmpA2 is renamed.
        "EmpA2/4 = EmpA3/4\nproject[0,1](Proj5/3) = Proj6/2",
    ]
    mappings = []
    for source, target, text in zip(versions, versions[1:], hop_constraints):
        mappings.append(
            Mapping(source, target, ConstraintSet(parse_constraints(text)))
        )
    return mappings


def main() -> None:
    mappings = build_five_hop_history()
    print(f"evolution history: {len(mappings)} hops")
    for index, mapping in enumerate(mappings):
        print(f"  hop {index}: {mapping}")

    result = compose_chain(mappings)
    print("\nchained composition:")
    print("  " + result.summary().replace("\n", "\n  "))
    print("\nfinal constraints (version 1 -> version 6):")
    for line in result.constraints.to_text().splitlines():
        print("  " + line)
    if result.is_complete:
        print("\ncomposed mapping:", result.to_mapping())

    # -- batch mode: many randomized chain problems through one engine -------
    workload = generate_workload(
        WorkloadConfig(num_problems=20, min_chain_length=5, max_chain_length=8, seed=42)
    )
    report = BatchComposer().run_chains(workload)
    print("\nbatch of", len(workload), "randomized 5-8 hop problems:")
    print("  " + report.summary().replace("\n", "\n  "))
    print(f"  mean fraction eliminated: {report.mean_fraction_eliminated():.0%}")


if __name__ == "__main__":
    main()
