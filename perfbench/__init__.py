"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads, the metrics and how they are
measured.
"""
