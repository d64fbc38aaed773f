"""Shared pytest configuration.

Property tests use one hypothesis profile: derandomized, so every run draws
the same examples; no deadline, because wall time per example varies with
host load; and few examples, so the suite stays quick.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "contextsim", derandomize=True, deadline=None, max_examples=20, database=None
    )
    settings.load_profile("contextsim")
