"""Hypothesis draws the same examples on every run.

``derandomize`` seeds each property test from a hash of its function and
no example database is read, so a Tier-1 run checks a fixed set of inputs
and a failure reproduces as it was seen. ``max_examples`` stays per test.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
