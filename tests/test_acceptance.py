"""Acceptance gate: criterion n runs ``selftest`` check n and prints one line.

The criteria, their seeds, states and thresholds live in ``contextsim.selftest``,
whose text ``tests/golden_selftest.txt`` pins; this file defines none of its own.
"""

import math
from unittest import mock

import pytest

from contextsim import selftest
from contextsim.selftest import check_scattering_direct_equivalence, selftest_text


def report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def criterion(n):
    """The test of criterion n: selftest check n, looked up at call time, must pass."""
    def test():
        result = selftest.ALL_CHECKS[n - 1]()
        assert result.passed, result.detail
        report(n, result.detail)
    return test


test_criterion_1_state_independent_pm_value = criterion(1)
test_criterion_2_scattering_direct_equivalence = criterion(2)
test_criterion_3_sequential_oracle_theorem = criterion(3)
test_criterion_4_transformed_bell_violation = criterion(4)
test_criterion_5_bound_recovery = criterion(5)
test_criterion_6_temporal_kcbs_closed_form = criterion(6)
test_criterion_7_pentagon_scan = criterion(7)
test_criterion_8_visibility_fit = criterion(8)


def test_criterion_9_selftest_determinism():
    text_a, ok_a = selftest_text()
    text_b, ok_b = selftest_text()
    assert ok_a and ok_b
    assert text_a.encode() == text_b.encode()
    lines = text_a.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 9
    assert "selftest: ALL PASS (9 checks)" in lines
    report(9, f"two selftest runs byte-identical ({len(text_a)} bytes), all checks pass")


@pytest.mark.parametrize("nan_call", [0, 99, 199])
def test_selftest_fails_a_nan_residual(nan_call):
    # a fold of residuals by max() drops a NaN, so a route that returned NaN used to pass
    calls, direct = [], selftest.correlator_direct

    def nan_once(state, spec):
        calls.append(None)
        return math.nan if len(calls) - 1 == nan_call else direct(state, spec)

    with mock.patch.object(selftest, "correlator_direct", nan_once):
        result = check_scattering_direct_equivalence()
    assert not result.passed
    assert result.detail == "200 random specs, max gap=nan, not <1e-10"
