"""The benchmark's tracer (``perfbench/tracing.py``) wraps the package
functions named in its ``TARGETS`` list, and its own checks fail when one of
them is missing or when the correlator workload records no gate embedding or
no Lüders branch. These tests read that list from the file and check that
each name still resolves in the package, and run the tracer itself around one
correlator per route, so a rename or a bypassed layer shows up in the default
test run. They load the module from its file and write nothing under
``perfbench/``."""

import argparse
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from contextsim import scattering, sequential
from contextsim.noise import depolarize
from contextsim.states import random_pure_state

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


def _tracing_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> dict:
    """Every module and class attribute of the package, plus the numpy
    eigensolvers and the argparse method that the tracer wraps."""
    snapshot = {("parse_known_args",): argparse.ArgumentParser.parse_known_args}
    for solver in tracing.EIGENSOLVERS:
        snapshot[(solver,)] = getattr(np.linalg, solver)
    for name, module in list(sys.modules.items()):
        if name == "contextsim" or name.startswith("contextsim."):
            for key, value in vars(module).items():
                snapshot[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("contextsim"):
                    for attr, member in vars(value).items():
                        snapshot[(name, key, attr)] = member
    return snapshot


def test_tracer_counts_the_correlator_layers(monkeypatch):
    tracing = _tracing_module(monkeypatch)
    rng = np.random.default_rng(5)
    spec = scattering.random_correlation_spec(2, 3, rng)
    state = depolarize(random_pure_state(2, 5), 0.2)
    chain = tuple(scattering.heisenberg_observable(s) for s in spec.slots)
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    replaced = tracer.install()
    try:
        scattering.correlator_scattering(state, spec)
        sequential.correlator_sequential(state, chain)
    finally:
        tracer.uninstall(replaced)
    values = tracer.summary(lambda start, end: 1.0)
    assert tracer.missing == []
    assert values["circuits.embed.calls"] > 0 and values["sequential.branches"] > 0
    # the slots' blocks were checked when the spec was built; the one gate
    # check left is the readout's embed
    assert values["circuits.gate_validate.calls"] == 1
    # both routes read the checked input state as it is
    assert values["states.validate.pure.calls"] == values["states.validate.mixed.calls"] == 0
    assert values["states.eigvalsh.calls"] == 0
    after = _bindings(tracing)
    assert before.keys() == after.keys()
    assert [k for k in before if after[k] is not before[k]] == []
