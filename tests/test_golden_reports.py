"""The golden outputs. The benchmark's golden-report check
(``perfbench/golden.py``) re-emits 45 CLI reports and compares them with the
copies in ``perfbench/golden.json``: tables and CSV byte for byte, JSON
numbers to 1e-12. This test runs that check in the default test run. It loads
the module from its file and writes nothing under ``perfbench/``. The
``selftest`` text is compared byte for byte with ``golden_selftest.txt``, and
``bounds`` (every target at its defaults, in ``bounds.TARGETS`` order) in
each format with ``golden_bounds.txt``, ``.json`` and ``.csv``: written with
numpy 2.4.6, as the reports were. The selftest text and the bounds JSON must
also hold, byte for byte, where OpenBLAS or numpy picks other CPU kernels."""

import importlib.util
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

from contextsim import cli

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"
GOLDEN_SELFTEST = Path(__file__).resolve().parent / "golden_selftest.txt"
GOLDEN_BOUNDS = Path(__file__).resolve().parent / "golden_bounds"
SRC = Path(__file__).resolve().parents[1] / "src"


def _golden_module(monkeypatch):
    # golden.py imports the benchmark's process set-up (which pins BLAS
    # threads in os.environ) only for its --write entry point; a stand-in
    # keeps that out of the test process, and no bytecode cache is written
    monkeypatch.setitem(sys.modules, "bootstrap", types.ModuleType("bootstrap"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_reports_match_the_golden_copies(monkeypatch):
    golden = _golden_module(monkeypatch)
    assert len(golden.commands()) == 45
    assert golden.check(cli) == []


def test_selftest_text_matches_the_golden_copy(capsys):
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN_SELFTEST.read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("table", ".txt"), ("json", ".json"), ("csv", ".csv")])
def test_bounds_output_matches_the_golden_copy(fmt, suffix, capsys):
    assert cli.main(["bounds", "--format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN_BOUNDS.with_suffix(suffix).read_bytes()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="the settings name x86-64 kernels")
@pytest.mark.parametrize("setting", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"},
], ids=["openblas-haswell", "numpy-baseline-simd"])
def test_golden_outputs_hold_under_other_cpu_kernels(setting):
    # the setting reaches only the child; numpy writes an ImportWarning to
    # stderr when a disabled feature is not in its build, so only stdout is compared
    env = {**os.environ, **setting, "PYTHONPATH": str(SRC)}
    for args, golden in [(["selftest"], GOLDEN_SELFTEST),
                         (["bounds", "--format", "json"], GOLDEN_BOUNDS.with_suffix(".json"))]:
        run = subprocess.run([sys.executable, "-m", "contextsim.cli", *args], env=env, capture_output=True)
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == golden.read_bytes()
