"""Test-session settings.

Hypothesis draws the same examples on every run: the one profile sets
``derandomize=True`` (which also turns off its example database), so a
failure seen anywhere reproduces with a plain ``pytest``.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
