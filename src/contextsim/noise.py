"""Minimal error models linking ideal predictions to bench measurements.

Two knobs: state depolarization before the run, and a per-readout-block
visibility factor v applied once per controlled block a term needs. State
noise alone cannot shrink the six-context combination (its contexts multiply
to +-identity), which is why the visibility knob exists; it is a working
hypothesis, not a calibrated physical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .linalg import checked_count
from .optimize import golden_section_minimize
from .states import QuantumState, density_of

FIT_TOL = 1e-6


@dataclass(frozen=True)
class NoiseModel:
    state_depolarizing_p: float = 0.0
    block_visibility_v: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.state_depolarizing_p <= 1.0:
            raise ValueError("depolarizing probability out of [0, 1]")
        if not 0.0 <= self.block_visibility_v <= 1.0:
            raise ValueError("visibility out of [0, 1]")


def depolarize(state: QuantumState, p: float) -> QuantumState:
    """(1-p) rho + p I/2^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} out of [0, 1]")
    dim = 2 ** state.qubits
    rho = (1 - p) * density_of(state) + p * np.eye(dim, dtype=complex) / dim
    return QuantumState(qubits=state.qubits, rho=rho)


def apply_visibility(ideal: float, n_blocks: int, v: float) -> float:
    """Contrast loss v^n_blocks applied multiplicatively to one correlator."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} out of [0, 1]")
    return float(v ** checked_count(n_blocks, "block count") * ideal)


def fit_visibility(pairs) -> float:
    """Least-squares visibility from (ideal, n_blocks, measured) triples.

    Minimizes sum (v^n * ideal - measured)^2 by golden section on [0, 1].
    """
    pairs = [(float(i), checked_count(n, "block count"), float(m)) for i, n, m in pairs]
    if not pairs:
        raise ValueError("need at least one measurement")
    if any(i == 0.0 for i, _, _ in pairs):
        raise ValueError("ideal values must be nonzero")
    if not all(math.isfinite(i) and math.isfinite(m) for i, _, m in pairs):
        raise ValueError("ideal and measured values must be finite")

    def objective(v: float) -> float:
        return sum((v ** n * i - m) ** 2 for i, n, m in pairs)

    return golden_section_minimize(objective, 0.0, 1.0, tol=FIT_TOL)


def load_measured_table(name: str) -> list[tuple[str, float, float, float]]:
    """Rows (label, theory, experimental, uncertainty) from a shipped table.

    Known names: "pm" (six three-block contexts) and "bell" (five one-block
    cross correlators).
    """
    files = {"pm": "pm_terms.txt", "bell": "bell_terms.txt"}
    if name not in files:
        raise ValueError(f"unknown table {name!r}; expected one of {sorted(files)}")
    text = resources.files("contextsim.data").joinpath(files[name]).read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, theory, measured, sigma = line.split()
        rows.append((label, float(theory), float(measured), float(sigma)))
    return rows


def visibility_summary(table: str) -> dict:
    """Fit v on a shipped table and evaluate the resulting model combination.

    For the six-context table the model value is 6 v^3 (three blocks per
    term); for the cross-correlator table it is 5 * cos(4*pi/5) * v.
    """
    rows = load_measured_table(table)
    blocks = 3 if table == "pm" else 1
    v = fit_visibility([(theory, blocks, measured) for _, theory, measured, _ in rows])
    if table == "pm":
        model = 6.0 * v ** 3
        measured_sum = sum(m if t > 0 else -m for _, t, m, _ in rows)
    else:
        model = 5.0 * float(np.cos(4 * np.pi / 5)) * v
        measured_sum = sum(m for _, _, m, _ in rows)
    return {
        "table": table,
        "visibility": v,
        "model_sum": model,
        "measured_sum": float(measured_sum),
        "blocks_per_term": blocks,
    }
