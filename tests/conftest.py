"""Shared test settings.

Every Hypothesis property test runs under the "sktlab" profile: its
examples are derandomised, so each run draws the same ones, no deadline
applies, and no example database is kept. A test's own @settings sets only
its max_examples.
"""

from hypothesis import settings

settings.register_profile("sktlab", derandomize=True, deadline=None, database=None)
settings.load_profile("sktlab")
