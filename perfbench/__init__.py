"""The repository benchmark: seeded workloads over the real CLI surfaces.

Run ``python3 perfbench/run.py --workload study|verdicts|fleet --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md``.
"""
