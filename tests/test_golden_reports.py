"""The golden outputs. The benchmark's golden-report check
(``perfbench/golden.py``) re-emits 45 CLI reports and compares them with the
copies in ``perfbench/golden.json``: tables and CSV byte for byte, JSON
numbers to 1e-12. This test runs that check in the default test run. It loads
the module from its file and writes nothing under ``perfbench/``. The
``selftest`` text is compared byte for byte with ``golden_selftest.txt``."""

import importlib.util
import sys
import types
from pathlib import Path

from contextsim import cli

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"
GOLDEN_SELFTEST = Path(__file__).resolve().parent / "golden_selftest.txt"


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
