"""Shared test settings and fixtures.

Every Hypothesis property test runs under the "sktlab" profile: its
examples are derandomised, so each run draws the same ones, no deadline
applies, and no example database is kept. A test's own @settings sets only
its max_examples.
"""

import re
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("sktlab", derandomize=True, deadline=None, database=None)
settings.load_profile("sktlab")

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="session")
def readme_config() -> str:
    """README's complete example config: its ini block that starts with [model]."""
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    return next(b for b in blocks if b.startswith("[model]"))
