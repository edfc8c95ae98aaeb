"""Benchmark of the nlspsa-ik CLI; see run.py."""
