"""End-to-end and per-layer benchmark of the Warped-DMR reproduction.

Run ``python3 perfbench/run.py --help``; ``README.md`` explains the
workloads and metrics.
"""
