"""The benchmark's tracer (``perfbench/tracing.py``) wraps the package
functions named in its ``TARGETS`` list, and its own checks fail when one of
them is missing. This test reads that list from the file without importing or
running it, and checks that each name still resolves in the package, so a
rename shows up in the default test run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


def test_every_traced_name_resolves():
    targets = _targets()
    missing = []
    for module, attr, _ in targets:
        # the tracer looks each name up in its owner's __dict__, as here
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(f"contextsim.{module}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or name not in vars(owner):
            missing.append(f"contextsim.{module}.{attr}")
    assert targets
    assert missing == []
