"""Benchmark of the momentkit package; see run.py and README.md."""
