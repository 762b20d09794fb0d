"""The PIER benchmark: seeded workloads, a reference oracle and a traced
per-layer run.  Entry point: ``python3 pierbench/run.py --workload NAME``."""
