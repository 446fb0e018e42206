"""Repository benchmark: four serving workloads timed from outside the call.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and the per-layer map are described in
``perfbench/README.md``.
"""
