"""Benchmark of the idiobench pipeline; see run.py."""
