"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One moderate profile for the whole suite: enough examples to matter,
# fast enough to keep `pytest tests/` snappy.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The same with many more examples, for CI's own job.  pytest imports
# this file before it applies --hypothesis-profile, so the flag wins.
settings.register_profile("long", settings.get_profile("repro"), max_examples=1000)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def paper_instance():
    from fragalign.core import paper_example

    return paper_example()
