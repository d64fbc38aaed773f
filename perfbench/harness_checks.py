"""Tests of the benchmark itself. The file name keeps them out of the
repository's default test run; run them with

    python3 -m pytest perfbench/harness_checks.py
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS threads before numpy loads

bootstrap.load_contextsim()

import argparse
import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import golden
import hostspeed
import run
import tracing
import workloads
from contextsim import cli

SMALL_TRACE = {"evaluate": 60, "correlators": 40, "bounds": 1}


def _ops(name, seed, workdir, n):
    ops = itertools.chain.from_iterable(workloads.WORKLOADS[name].blocks(seed, workdir))
    return [op.describe() for op in itertools.islice(ops, n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_operation_list(name, tmp_path):
    n = 3 if name == "bounds" else 120
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    first = _ops(name, 7, tmp_path / "a", n)
    assert first == _ops(name, 7, tmp_path / "b", n)
    assert first != _ops(name, 8, tmp_path / "c", n)


def _bindings() -> dict:
    """Every module attribute and class attribute reachable from contextsim,
    plus the argparse and numpy functions the tracer wraps."""
    snapshot = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "contextsim" and not mod_name.startswith("contextsim."):
            continue
        for key, value in vars(module).items():
            snapshot[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("contextsim"):
                for attr, member in vars(value).items():
                    snapshot[(mod_name, key, attr)] = member
    snapshot["parse_known_args"] = argparse.ArgumentParser.parse_known_args
    for solver in tracing.EIGENSOLVERS:
        snapshot[solver] = getattr(np.linalg, solver)
    return snapshot


def _traced(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    monkeypatch.setattr(workload, "trace_ops", SMALL_TRACE[name])
    return run.traced_run(workload, 5, tmp_path)


def test_traced_run_restores_every_binding(tmp_path, monkeypatch):
    before = _bindings()
    tracer, values, *_ = _traced("evaluate", tmp_path, monkeypatch)
    after = _bindings()
    assert values["trace.spans"] > 0 and not tracer.missing
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)


def _counts(values: dict) -> dict:
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k in tracing.COUNTERS or k in ("trace.spans", "trace.ops")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name, tmp_path, monkeypatch):
    first = _counts(_traced(name, tmp_path, monkeypatch)[1])
    second = _counts(_traced(name, tmp_path, monkeypatch)[1])
    assert first == second
    if name == "bounds":
        assert all(v == 0 for k, v in first.items() if k.startswith("circuits."))
        assert first["bounds.sweeps"] > 0 and first["optimize.golden_section.fevals"] > 0
    if name == "correlators":
        bypassed = ("cli.", "report.", "inequalities.", "noise.")
        assert all(v == 0 for k, v in first.items() if k.startswith(bypassed))
        assert first["circuits.embed.calls"] > 0 and first["sequential.branches"] > 0
    if name == "evaluate":
        assert first["inequalities.terms"] > 0 and first["report.emit.bytes"] > 0


def test_every_operation_passes_its_check(tmp_path):
    for name, n in (("evaluate", 108), ("correlators", 40)):
        ops = itertools.chain.from_iterable(workloads.WORKLOADS[name].blocks(11, tmp_path))
        results = [workloads.WORKLOADS[name].execute(op) for op in itertools.islice(ops, n)]
        assert [r.error for r in results if not r.ok] == []


def test_evaluate_check_rejects_a_wrong_sum(tmp_path):
    req = next(workloads.Evaluate().blocks(3, tmp_path))[0]
    wrong = workloads.EvalRequest(req.argv, req.state_text, req.route, req.fmt, req.terms,
                                  req.expected + 1e-3)
    assert not workloads.Evaluate().execute(wrong).ok


def test_host_speed_scale_uses_the_samples_around_a_section():
    speed = hostspeed.HostSpeed()
    speed.at, speed.seconds = [0.0, 1.0, 2.0, 3.0], [1e-3, 2e-3, 2e-3, 4e-3]
    assert speed.scale(1.4, 1.6) == hostspeed.NOMINAL_S / 2e-3
    assert speed.scale(2.95, 3.5) == hostspeed.NOMINAL_S / 3e-3


def test_golden_reports_match():
    assert golden.check(cli) == []


def test_golden_json_tolerates_last_bit_changes_only():
    argv = ["pm", "--format", "json"]
    assert golden.same_report('{"sum": 0.30000000000000004}\n', '{"sum": 0.3}\n', argv)
    assert not golden.same_report('{"sum": 0.3}\n', '{"sum": 0.3001}\n', argv)
    assert not golden.same_report('{"sum": 0.3}\n', '{"total": 0.3}\n', argv)
    assert not golden.same_report('{"sum": 0.3}\n', '{"sum":  0.3}\n', argv)
    assert not golden.same_report("sum: 0.300000\n", "sum: 0.300001\n", ["pm"])


def test_result_line_lists_every_end_to_end_metric(monkeypatch):
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "correlators", "--seed", "2", "--seconds", "0.5", "--trace", "0"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 2 and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
