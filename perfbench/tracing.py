"""Spans and counters recorded from outside the package, by wrapping its
module-level functions and a few class methods for the length of a run.

``from .x import f`` copies a binding, so a wrapper replaces every binding of
the original object in every contextsim module (``contextsim.scattering.apply``
as well as ``contextsim.circuits.apply``). ``Tracer.install`` returns the list
of replaced bindings and ``Tracer.uninstall`` puts each original back.

A span records its name, start, end, parent span and operation index. A
name's time is the total duration of its outermost spans, so a function
reached again inside itself is not counted twice. A span's self time is its
duration minus the durations of its direct children; a layer's self time sums
the self times of the spans named after it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "report", "noise", "inequalities", "scattering", "circuits",
          "sequential", "states", "bounds", "optimize")

# (module, attribute or Class.method, span name). Names shared by several
# targets form one group: their time is the union of the targets' spans.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_build_parser", "cli.parse"),
    ("cli", "_config_from_args", "cli.parse"),
    ("report", "emit_report", "report.emit"),
    ("report", "emit_bounds", "report.emit"),
    ("report", "with_noise", "report.with_noise"),
    ("noise", "depolarize", "noise.depolarize"),
    ("inequalities", "eval_pm", "inequalities.evaluate"),
    ("inequalities", "eval_kcbs_temporal", "inequalities.evaluate"),
    ("inequalities", "eval_pentagon_lg", "inequalities.evaluate"),
    ("inequalities", "eval_transformed_bell", "inequalities.evaluate"),
    ("inequalities", "_pm_term", "inequalities.build"),
    ("inequalities", "_kcbs_cycle", "inequalities.build"),
    ("inequalities", "_bell_term", "inequalities.build"),
    ("inequalities", "sigma_theta", "inequalities.build"),
    ("inequalities", "pm_observable", "inequalities.build"),
    ("inequalities", "pentagram_observable", "inequalities.build"),
    ("inequalities", "Observable.__post_init__", "inequalities.build"),
    ("scattering", "slot", "inequalities.build"),
    ("scattering", "TimeSlot.__post_init__", "inequalities.build"),
    ("scattering", "TemporalCorrelationSpec.__post_init__", "inequalities.build"),
    ("scattering", "correlator_scattering", "scattering.correlator_scattering"),
    ("scattering", "correlator_direct", "scattering.correlator_direct"),
    ("scattering", "build_scattering_circuit", "scattering.build_scattering_circuit"),
    ("scattering", "heisenberg_observable", "scattering.heisenberg_observable"),
    ("scattering", "probe_sigma_z", "scattering.probe_sigma_z"),
    ("circuits", "apply", "circuits.apply"),
    ("circuits", "full_gate_matrix", "circuits.full_gate_matrix"),
    ("circuits", "embed", "circuits.embed"),
    ("circuits", "GateOp.__post_init__", "circuits.gate_validate"),
    ("sequential", "correlator_sequential", "sequential.correlator_sequential"),
    ("sequential", "joint_distribution", "sequential.joint_distribution"),
    ("sequential", "luders_measure", "sequential.luders_measure"),
    ("states", "QuantumState.__post_init__", "states.validate"),
    ("states", "state_from_literal", "states.from_literal"),
    ("bounds", "tsirelson_search_bell", "bounds.tsirelson_search_bell"),
    ("bounds", "temporal_bound_kcbs", "bounds.temporal_bound_kcbs"),
    ("bounds", "contextual_bound_kcbs", "bounds.contextual_bound_kcbs"),
    ("bounds", "pentagon_scan", "bounds.pentagon_scan"),
    ("bounds", "bell_constrained_objective", "bounds.bell_constrained_objective"),
    ("bounds", "_coarse_bell_minimum", "bounds.coarse_grid"),
    ("bounds", "_coarse_grid_tuples", "bounds.coarse_grid"),
    ("bounds", "_descend", "bounds.descend"),
    ("bounds", "_contextual_seesaw", "bounds.seesaw"),
    ("bounds", "pentagon_pairwise_value", "bounds.pentagon_pairwise_value"),
    ("bounds", "pentagon_invasive_value", "bounds.pentagon_invasive_value"),
    ("optimize", "golden_section_minimize", "optimize.golden_section"),
)

# Spans split in two by whether the state they act on is pure.
_SPLIT_BY_PURITY = {"circuits.apply": lambda args: args[1], "states.validate": lambda args: args[0]}

# numpy eigensolvers: counted per calling contextsim module, without a span.
EIGENSOLVERS = ("eigh", "eigvalsh")

_SEARCHES_WITH_SWEEPS = ("tsirelson_search_bell", "temporal_bound_kcbs", "contextual_bound_kcbs")

COUNTERS = ("inequalities.terms", "sequential.branches", "report.emit.bytes", "bounds.sweeps",
            "optimize.golden_section.fevals",
            *(f"{m}.{s}.calls" for m in ("states", "bounds") for s in EIGENSOLVERS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []  # open spans per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.current_op = -1
        self._stack = [-1]
        self.missing: list[str] = []

    # ---------------------------------------------------------- recording

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name_id[i]] -= 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None, split=None, prepare=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self.name_of(name)
        if split is not None:
            ids = (self.name_of(name + ".pure"), self.name_of(name + ".mixed"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            i = self.open(nid if split is None else ids[_is_mixed(split(args))])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result)
            return result

        return wrapper

    # ---------------------------------------------------------- patching

    def install(self) -> list[tuple[object, str, object]]:
        """Replace every traced binding; returns (owner, attribute, original)."""
        modules = {m: importlib.import_module(f"contextsim.{m}") for m in LAYERS}
        package = [v for k, v in sys.modules.items() if k == "contextsim" or k.startswith("contextsim.")]
        hooks = self._hooks()
        replaced = []
        for module, attr, name in TARGETS:
            for split_name in (name, name + ".pure", name + ".mixed") if name in _SPLIT_BY_PURITY else (name,):
                self.name_of(split_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(modules[module], owner_name) if owner_name else modules[module]
            original = owner.__dict__.get(method)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self.span(name, original, split=_SPLIT_BY_PURITY.get(name), **hooks.get(attr, {}))
            owners = [owner] if owner_name else [m for m in package if m.__dict__.get(method) is original]
            for o in owners:
                setattr(o, method, wrapper)
                replaced.append((o, method, original))
        parse = argparse.ArgumentParser.parse_known_args
        argparse.ArgumentParser.parse_known_args = self.span("cli.parse", parse)
        replaced.append((argparse.ArgumentParser, "parse_known_args", parse))
        for solver in EIGENSOLVERS:
            original = getattr(np.linalg, solver)
            setattr(np.linalg, solver, self._counted_solver(solver, original))
            replaced.append((np.linalg, solver, original))
        return replaced

    @staticmethod
    def uninstall(replaced) -> None:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    def _counted_solver(self, solver, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("contextsim."):
                self.count(f"{caller[len('contextsim.'):]}.{solver}.calls")
            return original(*args, **kwargs)

        return wrapper

    def _hooks(self) -> dict:
        def terms(report):
            self.count("inequalities.terms", len(report.terms) + len(report.constraints or ()))

        def branches(result):
            self.count("sequential.branches", len(result))

        def emitted(text):
            self.count("report.emit.bytes", len(text.encode("utf-8")))

        def sweeps(result):
            self.count("bounds.sweeps", int(result.iterations))

        def count_fevals(args, kwargs):
            f = args[0]

            def counted(x):
                self.count("optimize.golden_section.fevals")
                return f(x)

            return (counted, *args[1:]), kwargs

        hooks = {f: {"after": terms} for f in ("eval_pm", "eval_kcbs_temporal", "eval_pentagon_lg",
                                                "eval_transformed_bell")}
        hooks.update({f: {"after": emitted} for f in ("emit_report", "emit_bounds")})
        hooks.update({f: {"after": sweeps} for f in _SEARCHES_WITH_SWEEPS})
        hooks["luders_measure"] = {"after": branches}
        hooks["golden_section_minimize"] = {"prepare": count_fevals}
        return hooks

    # ---------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "outer": np.array(self.outer, dtype=bool),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self, scale) -> dict[str, float]:
        """Per span name: ``<name>.calls`` and ``<name>.ms``; per layer:
        ``layer.<layer>.self_ms``; plus every counter. ``scale(start, end)``
        converts each span's duration to the nominal host speed."""
        a = self.arrays()
        n_names = len(self.names)
        factors = np.array([scale(s, e) for s, e in zip(a["start"], a["end"])])
        duration = (a["end"] - a["start"]) * factors
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        self_time = duration - children
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=np.where(a["outer"], duration, 0.0), minlength=n_names)
        own = np.bincount(a["name"], weights=self_time, minlength=n_names)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.ms"] = float(total[nid]) * 1e3
        for layer in LAYERS:
            ids = [nid for nid, name in enumerate(self.names) if name.split(".")[0] == layer]
            out[f"layer.{layer}.self_ms"] = float(own[ids].sum()) * 1e3 if ids else 0.0
        out.update(self.counts)
        out["trace.spans"] = int(duration.size)
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start and end in seconds, parent
        span index (-1 for none) and operation index."""
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(a["start"].size):
                fh.write(json.dumps({"i": i, "name": self.names[a["name"][i]], "start": a["start"][i],
                                     "end": a["end"][i], "parent": int(a["parent"][i]),
                                     "op": int(a["op"][i])}) + "\n")


def _is_mixed(state) -> int:
    return int(getattr(state, "amplitudes", None) is None)
