"""The repository benchmark: end-to-end and per-layer numbers for COMPOSE.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the real program and prints, as
its last stdout line, one JSON object with the metrics ``BENCHMARK.json``
names.  ``--workload all`` runs every workload, each in a fresh process.
The workloads, the layers they stress, and the predictions that link a
layer metric to an end-to-end metric are recorded in
``perfbench/workloads.json``.
"""
