"""Deterministic acceptance checks behind the ``selftest`` CLI command.

Each check prints one PASS/FAIL line, numbered by its place in ``ALL_CHECKS``;
seeds are fixed so two runs produce byte-identical output, and a round-off
residual that passes prints as its bound, so hosts whose kernels round apart do too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .inequalities import (BELL_TERM, KCBS_FORM, METHODS, PM_SIGNS, eval_kcbs_temporal, eval_pm,
                           eval_transformed_bell)
from .noise import fit_visibility, load_measured_table, visibility_summary
from .report import emit_bounds, emit_report
from .scattering import (
    correlator_direct,
    correlator_scattering,
    random_correlation_spec,
    random_dichotomic,
)
from .sequential import joint_distribution
from .states import bell_phi_plus, density_of, haar_random_state, mixed_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _residuals(*rows) -> tuple[bool, str]:
    """Round-off residuals, each row (label, values, bound, op) with op "<" or "<=", its largest value
    compared as ``value op bound`` (a NaN among the values is the largest, and fails): whether all pass,
    and their text, a passing one written as its bound alone, the same on every host, and a failing
    one with its value."""
    rows = [(label, float(np.max(values)), bound, op) for label, values, bound, op in rows]
    passed = [value < bound if op == "<" else value <= bound for _, value, bound, op in rows]
    text = ", ".join(f"{label}{op}{bound:g}" if ok else f"{label}={value:.3e}, not {op}{bound:g}"
                     for ok, (label, value, bound, op) in zip(passed, rows))
    return all(passed), text


def check_pm_state_independent() -> CheckResult:
    sum_gaps, term_gaps = [], []
    states = [haar_random_state(2, np.random.default_rng(seed)) for seed in range(100)]
    states.append(mixed_state(np.eye(4) / 4))
    for state in states:
        for method in METHODS:
            rep = eval_pm(state, method)
            sum_gaps.append(abs(rep.sum - 6.0))
            term_gaps += [abs(value - theory) for (_, value), theory in zip(rep.terms, PM_SIGNS)]
    ok, text = _residuals(("max|sum-6|", sum_gaps, 1e-9, "<="), ("max term dev", term_gaps, 1e-9, "<="))
    return CheckResult("pm-state-independent", ok, f"101 states x 3 methods, {text}")


def check_scattering_direct_equivalence() -> CheckResult:
    gaps = []
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 3))
        slots = int(rng.integers(1, 4))
        spec = random_correlation_spec(n, slots, rng)
        state = haar_random_state(n, rng)
        gaps.append(abs(correlator_scattering(state, spec) - correlator_direct(state, spec)))
    ok, text = _residuals(("max gap", gaps, 1e-10, "<"))
    return CheckResult("scattering-direct-equivalence", ok, f"200 random specs, {text}")


def check_sequential_two_time() -> CheckResult:
    gaps = []
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        state = haar_random_state(1, rng)
        x, y = random_dichotomic(rng), random_dichotomic(rng)
        two_time = float(0.5 * np.trace(density_of(state) @ (x @ y + y @ x)).real)
        gaps.append(abs(joint_distribution(state, (x, y)).correlator() - two_time))
    ok, text = _residuals(("max gap", gaps, 1e-10, "<"))
    return CheckResult("sequential-two-time-formula", ok, f"100 random pairs, {text}")


def check_bell_violation() -> CheckResult:
    expected_term = BELL_TERM
    expected_sum = 5 * expected_term
    term_gaps, sum_gaps, constraint_gaps = [], [], []
    violated = True
    for method in METHODS:
        rep = eval_transformed_bell(bell_phi_plus(), method)
        sum_gaps.append(abs(rep.sum - expected_sum))
        term_gaps += [abs(v - expected_term) for _, v in rep.terms]
        constraint_gaps += [abs(v - 1.0) for _, v in rep.constraints]
        violated = violated and rep.violated and rep.classical_bound == -3.0
    ok, text = _residuals(("terms dev", term_gaps, 1e-9, "<="), ("sum dev", sum_gaps, 1e-8, "<="),
                          ("constraint dev", constraint_gaps, 1e-9, "<="))
    return CheckResult("transformed-bell-violation", ok and violated, f"{text}, violated={violated}")


def check_bound_recovery() -> CheckResult:
    bell = bounds_mod.tsirelson_search_bell()
    temporal = bounds_mod.temporal_bound_kcbs()
    contextual = bounds_mod.contextual_bound_kcbs()
    gap = contextual.optimum - temporal.optimum
    ok = (
        abs(bell.optimum - bounds_mod.TSIRELSON_OPTIMUM) <= 1e-5
        and abs(temporal.optimum - bell.optimum) <= 1e-4
        and abs(contextual.optimum - bounds_mod.CONTEXTUAL_OPTIMUM) <= 1e-4
        and gap > 0.05
    )
    return CheckResult(
        "bound-recovery",
        ok,
        f"bell={bell.optimum:.9f}, temporal={temporal.optimum:.9f}, "
        f"contextual={contextual.optimum:.9f}, gap={gap:.6f}",
    )


def check_kcbs_closed_form() -> CheckResult:
    state = haar_random_state(1, np.random.default_rng(7))
    a, b = KCBS_FORM
    gaps = []
    floor_ok = True
    for theta in np.linspace(0.0, 2 * np.pi, 50):
        rep = eval_kcbs_temporal(state, float(theta), method="sequential")
        gaps.append(abs(rep.sum - (a + b * np.cos(theta))))
        floor_ok = floor_ok and rep.sum >= rep.classical_bound - 1e-9
    ok, text = _residuals(("max|sum-(1+4cos)|", gaps, 1e-9, "<="))
    return CheckResult("kcbs-closed-form", ok and floor_ok, f"50 angles, {text}, never below -3: {floor_ok}")


def check_pentagon_scan() -> CheckResult:
    scan = bounds_mod.pentagon_scan()
    arg = scan.argument
    pair_min = arg["pairwise"]["minimum"]
    inv_min = arg["invasive"]["minimum"]
    at = arg["at_cos_theta_-0.75"]
    flagged = arg["unreproduced_reference_minimum"] == -2.25 and "note" in arg
    ok = (
        abs(pair_min - (-2.0)) <= 1e-6
        and abs(arg["pairwise"]["argmin_theta"] - math.pi) <= 1e-6
        and abs(inv_min - (-2.0)) <= 1e-6
        and abs(at["pairwise"] - (-0.5)) <= 1e-6
        and abs(at["invasive"] - (-1.839844)) <= 1e-6
        and flagged
    )
    return CheckResult(
        "pentagon-scan",
        ok,
        f"pairwise min={pair_min:.6f}, invasive min={inv_min:.6f}, "
        f"at cos=-3/4: {at['pairwise']:.6f}/{at['invasive']:.6f}, flagged={flagged}",
    )


def check_visibility_fit() -> CheckResult:
    synthetic = [(1.0, 3, 0.9 ** 3), (-1.0, 3, -(0.9 ** 3)), (1.0, 1, 0.9), (1.0, 2, 0.9 ** 2)]
    v_round = fit_visibility(synthetic)
    summary = visibility_summary("pm")
    rows = load_measured_table("pm")
    ok = (
        abs(v_round - 0.9) <= 1e-5
        and abs(summary["model_sum"] - 4.667) <= 0.15
        and len(rows) == 6
    )
    return CheckResult(
        "visibility-fit",
        ok,
        f"round-trip v={v_round:.6f}, table v={summary['visibility']:.6f}, "
        f"model sum={summary['model_sum']:.6f} vs 4.667",
    )


def _representative_reports() -> str:
    chunks = []
    chunks.append(emit_report(eval_pm(mixed_state(np.eye(4) / 4), "direct"), "json"))
    chunks.append(emit_report(eval_transformed_bell(bell_phi_plus(), "scattering"), "csv"))
    chunks.append(
        emit_report(
            eval_kcbs_temporal(haar_random_state(1, np.random.default_rng(3)), bounds_mod.ACOS_MINUS_3_4, "sequential"),
            "table",
        )
    )
    chunks.append(emit_bounds([bounds_mod.pentagon_scan()], "json"))
    return "".join(chunks)


def check_determinism() -> CheckResult:
    first = _representative_reports()
    second = _representative_reports()
    ok = first == second
    return CheckResult("determinism", ok, f"two in-process emissions byte-identical: {ok} ({len(first)} bytes)")


ALL_CHECKS = (
    check_pm_state_independent,
    check_scattering_direct_equivalence,
    check_sequential_two_time,
    check_bell_violation,
    check_bound_recovery,
    check_kcbs_closed_form,
    check_pentagon_scan,
    check_visibility_fit,
    check_determinism,
)


def selftest_text() -> tuple[str, bool]:
    results = [check() for check in ALL_CHECKS]
    ok = all(r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {i} {r.name}: {r.detail}" for i, r in enumerate(results, 1)]
    lines.append(f"selftest: {'ALL PASS' if ok else 'FAILURES PRESENT'} ({len(results)} checks)")
    return "\n".join(lines) + "\n", ok
