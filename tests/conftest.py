"""Shared pytest configuration.

Property tests use one hypothesis profile: derandomized, so every run draws
the same examples; no deadline, because wall time per example varies with
host load; and few examples, so the suite stays quick.

Each bound search at its default settings runs once per session; the tests
that read its result share it through the fixtures below.
"""

import pytest

from contextsim.bounds import (
    contextual_bound_kcbs,
    pentagon_scan,
    temporal_bound_kcbs,
    tsirelson_search_bell,
)

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "contextsim", derandomize=True, deadline=None, max_examples=20, database=None
    )
    settings.load_profile("contextsim")


@pytest.fixture(scope="session")
def bell_search():
    return tsirelson_search_bell()


@pytest.fixture(scope="session")
def temporal_search():
    return temporal_bound_kcbs()


@pytest.fixture(scope="session")
def contextual_search():
    return contextual_bound_kcbs()


@pytest.fixture(scope="session")
def pentagon_result():
    return pentagon_scan()
