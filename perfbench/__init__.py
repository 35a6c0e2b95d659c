"""Benchmark of the transcript pipeline; run ``python3 perfbench/run.py``."""
