"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import math
from unittest import mock

import numpy as np
import pytest

from contextsim import selftest
from contextsim.bounds import CONTEXTUAL_OPTIMUM, TSIRELSON_OPTIMUM
from contextsim.inequalities import (
    METHODS,
    Observable,
    eval_kcbs_temporal,
    eval_pm,
    eval_transformed_bell,
)
from contextsim.noise import fit_visibility, load_measured_table
from contextsim.scattering import (
    correlator_direct,
    correlator_scattering,
    random_correlation_spec,
    random_dichotomic,
)
from contextsim.selftest import check_scattering_direct_equivalence, selftest_text
from contextsim.sequential import correlator_sequential
from contextsim.states import bell_phi_plus, density_of, haar_random_state, mixed_state

PM_THEORY = (1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


def report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_state_independent_pm_value():
    states = [haar_random_state(2, np.random.default_rng(seed)) for seed in range(100)]
    states.append(mixed_state(np.eye(4) / 4))
    worst_sum = worst_term = 0.0
    for state in states:
        for method in METHODS:
            rep = eval_pm(state, method)
            worst_sum = max(worst_sum, abs(rep.sum - 6.0))
            for (_, value), theory in zip(rep.terms, PM_THEORY):
                worst_term = max(worst_term, abs(value - theory))
    assert worst_sum <= 1e-9
    assert worst_term <= 1e-9
    report(1, f"101 states x 3 methods: |sum-6|<={worst_sum:.2e}, term dev<={worst_term:.2e}")


def test_criterion_2_scattering_direct_equivalence():
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 3))
        spec = random_correlation_spec(n, int(rng.integers(1, 4)), rng)
        state = haar_random_state(n, rng)
        worst = max(worst, abs(correlator_scattering(state, spec) - correlator_direct(state, spec)))
    assert worst < 1e-10
    report(2, f"200 random specs (N<=2, n<=3): max |scattering-direct| = {worst:.2e}")


def test_criterion_3_sequential_oracle_theorem():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        state = haar_random_state(1, rng)
        x = random_dichotomic(rng)
        y = random_dichotomic(rng)
        seq = correlator_sequential(
            state,
            (
                Observable(matrix=x, label="X"),
                Observable(matrix=y, label="Y"),
            ),
        )
        formula = 0.5 * np.trace(density_of(state) @ (x @ y + y @ x)).real
        worst = max(worst, abs(seq - formula))
    assert worst < 1e-10
    report(3, f"100 random pairs: max |sequential - half-anticommutator| = {worst:.2e}")


def test_criterion_4_transformed_bell_violation():
    expected_term = math.cos(4 * math.pi / 5)
    for method in METHODS:
        rep = eval_transformed_bell(bell_phi_plus(), method)
        for _, value in rep.terms:
            assert abs(value - expected_term) <= 1e-9
        assert abs(rep.sum - 5 * expected_term) <= 1e-8
        for _, value in rep.constraints:
            assert abs(value - 1.0) <= 1e-9
        assert rep.classical_bound == -3.0 and rep.bound_direction == ">="
        assert rep.violated
    report(4, f"terms {expected_term:.6f}, sum {5 * expected_term:.6f}, side conditions 1, violated")


def test_criterion_5_bound_recovery(bell_search, temporal_search, contextual_search):
    bell, temporal, contextual = bell_search, temporal_search, contextual_search
    assert abs(bell.optimum - TSIRELSON_OPTIMUM) <= 1e-5
    assert abs(temporal.optimum - bell.optimum) <= 1e-4
    assert abs(contextual.optimum - CONTEXTUAL_OPTIMUM) <= 1e-4
    gap = contextual.optimum - temporal.optimum
    assert gap > 0.05
    report(
        5,
        f"bell {bell.optimum:.7f}, temporal {temporal.optimum:.7f}, "
        f"contextual {contextual.optimum:.7f}, gap {gap:.4f}",
    )


def test_criterion_6_temporal_kcbs_closed_form():
    state = haar_random_state(1, np.random.default_rng(7))
    worst = 0.0
    for theta in np.linspace(0.0, 2 * np.pi, 50):
        rep = eval_kcbs_temporal(state, float(theta), method="sequential")
        worst = max(worst, abs(rep.sum - (1 + 4 * np.cos(theta))))
        assert rep.sum >= -3.0 - 1e-9
    assert worst <= 1e-9
    report(6, f"50-angle grid: max |sum-(1+4cos)| = {worst:.2e}, floor -3 respected")


def test_criterion_7_pentagon_scan(pentagon_result):
    res = pentagon_result
    arg = res.argument
    assert abs(arg["pairwise"]["minimum"] - (-2.0)) <= 1e-6
    assert abs(arg["pairwise"]["argmin_theta"] - math.pi) <= 1e-6
    assert abs(arg["invasive"]["minimum"] - (-2.0)) <= 1e-6
    at = arg["at_cos_theta_-0.75"]
    assert abs(at["pairwise"] - (-0.5)) <= 1e-6
    assert abs(at["invasive"] - (-1.839844)) <= 1e-6
    assert arg["unreproduced_reference_minimum"] == -2.25
    assert "note" in arg
    report(
        7,
        f"minima {arg['pairwise']['minimum']:.6f}/{arg['invasive']['minimum']:.6f}, "
        f"at cos=-3/4 {at['pairwise']:.6f}/{at['invasive']:.6f}, -9/4 flagged as unreproduced",
    )


def test_criterion_8_visibility_fit():
    v0 = 0.87
    synthetic = [(1.0, n, v0 ** n) for n in (1, 2, 3)] + [(-1.0, 3, -(v0 ** 3))]
    recovered = fit_visibility(synthetic)
    assert abs(recovered - v0) <= 1e-5
    rows = load_measured_table("pm")
    v = fit_visibility([(theory, 3, measured) for _, theory, measured, _ in rows])
    model = 6 * v ** 3
    assert abs(model - 4.667) <= 0.15
    report(8, f"round-trip v err {abs(recovered - v0):.1e}; table fit v={v:.5f}, 6v^3={model:.4f}")


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
    # max(worst, nan) keeps worst, so a route that returned NaN used to pass
    calls, direct = [], selftest.correlator_direct

    def nan_once(state, spec):
        calls.append(None)
        return math.nan if len(calls) - 1 == nan_call else direct(state, spec)

    with mock.patch.object(selftest, "correlator_direct", nan_once):
        result = check_scattering_direct_equivalence()
    assert not result.passed
    assert result.detail == "200 random specs, max gap=nan, not <1e-10"
