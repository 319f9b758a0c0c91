"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""
