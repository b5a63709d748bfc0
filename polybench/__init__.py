"""Benchmark of the polyorbit CLI; run it with ``python3 polybench/run.py``."""
