"""Minimal error models linking ideal predictions to bench measurements.

Two knobs: state depolarization before the run, and a per-readout-block
visibility factor v applied once per controlled block a term needs. State
noise alone cannot shrink the six-context combination (its contexts multiply
to +-identity), which is why the visibility knob exists. Its factor v^k is
the probe dephasing rho -> ((1+v)/2) rho + ((1-v)/2) Z_0 rho Z_0 of the probe
qubit 0 after each of a term's k controlled blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .inequalities import eval_pm, eval_transformed_bell
from .linalg import FIT_TOL, checked_count, checked_reals
from .optimize import golden_section_minimize
from .states import QuantumState, bell_phi_plus, density_of

MAX_BLOCKS = 2**53  # every count up to here converts to a float exactly
MAX_MAGNITUDE = 1e150  # the square of a residual between two such values stays finite


def _check_unit_interval(value, what: str) -> None:
    """Raise ValueError unless ``value`` is a real number in [0, 1]; the
    caller computes with the value as given."""
    if not 0.0 <= checked_reals(value, what, ()) <= 1.0:
        raise ValueError(f"{what} {value} out of [0, 1]")


@dataclass(frozen=True)
class NoiseModel:
    state_depolarizing_p: float = 0.0
    block_visibility_v: float = 1.0

    def __post_init__(self):
        _check_unit_interval(self.state_depolarizing_p, "depolarizing probability")
        _check_unit_interval(self.block_visibility_v, "visibility")


def depolarize(state: QuantumState, p: float) -> QuantumState:
    """(1-p) rho + p I/2^n, stored unchecked: for p in [0, 1], (1-p) times a
    checked rho plus p I/d keeps Hermiticity, the trace within ATOL of 1 and
    the eigenvalue floor. It is symmetrized as ``QuantumState`` stores a
    checked density matrix, so its bits are the checked path's."""
    _check_unit_interval(p, "depolarizing probability")
    dim = 2 ** state.qubits
    rho = (1 - p) * density_of(state) + p * np.eye(dim, dtype=complex) / dim
    return QuantumState._unchecked(state.qubits, rho=(rho + rho.conj().T) / 2)


def apply_visibility(ideal: float, n_blocks: int, v: float) -> float:
    """Contrast loss v^n_blocks applied multiplicatively to one correlator."""
    checked_reals(ideal, "ideal value", ())
    _check_unit_interval(v, "visibility")
    return float(v ** checked_count(n_blocks, "block count", 0, MAX_BLOCKS) * ideal)


def _checked_triple(entry) -> tuple[float, int, float]:
    """One (ideal, n_blocks, measured) measurement, each value checked."""
    try:
        i, n, m = entry
    except (TypeError, ValueError):
        raise ValueError(f"each measurement must be an (ideal, n_blocks, measured) triple, got {entry!r}") from None
    return (checked_reals(i, "ideal value", ()), checked_count(n, "block count", 0, MAX_BLOCKS),
            checked_reals(m, "measured value", ()))


def fit_visibility(pairs) -> float:
    """Least-squares visibility from (ideal, n_blocks, measured) triples.

    Minimizes sum (v^n * ideal - measured)^2 by golden section on [0, 1].
    """
    pairs = [_checked_triple(entry) for entry in pairs]
    if not pairs:
        raise ValueError("need at least one measurement")
    if any(i == 0.0 for i, _, _ in pairs):
        raise ValueError("ideal values must be nonzero")
    if all(n == 0 for _, n, _ in pairs):
        raise ValueError("every block count is 0, so no measurement depends on the visibility")
    bad = [x for i, _, m in pairs for x in (i, m) if not abs(x) <= MAX_MAGNITUDE]
    if bad:
        raise ValueError(f"ideal and measured values must be finite and at most {MAX_MAGNITUDE:g}"
                         f" in magnitude, got {bad[0]!r}")

    def objective(v: float) -> float:
        return sum((v ** n * i - m) ** 2 for i, n, m in pairs)

    return golden_section_minimize(objective, 0.0, 1.0, tol=FIT_TOL)


# each shipped table: its file, and the report whose terms it measures, in order
# (on any two-qubit state, as its labels, signs, block counts and prediction are)
_TABLES = {
    "pm": ("pm_terms.txt", lambda: eval_pm(bell_phi_plus())),
    "bell": ("bell_terms.txt", lambda: eval_transformed_bell(bell_phi_plus())),
}


def load_measured_table(name: str) -> list[tuple[str, float, float, float]]:
    """Rows (label, theory, experimental, uncertainty) from a shipped table."""
    if not isinstance(name, str) or name not in _TABLES:
        raise ValueError(f"unknown table {name!r}; expected one of {sorted(_TABLES)}")
    text = resources.files("contextsim.data").joinpath(_TABLES[name][0]).read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, theory, measured, sigma = line.split()
        rows.append((label, float(theory), float(measured), float(sigma)))
    return rows


def visibility_summary(table: str) -> dict:
    """Fit v on a shipped table's own theory column and evaluate the model
    combination, the report's quantum prediction times v^blocks; the block
    count and the term signs also come from the report."""
    rows = load_measured_table(table)
    report = _TABLES[table][1]()
    if [row[0] for row in rows] != [label for label, _ in report.terms]:
        raise ValueError(f"table {table!r} does not list the {report.name} terms in order")
    blocks = report.blocks_per_term[0]
    v = fit_visibility([(theory, blocks, measured) for _, theory, measured, _ in rows])
    return {
        "table": table,
        "visibility": v,
        "model_sum": report.quantum_prediction * v ** blocks,
        "measured_sum": float(sum(sign * m for sign, (_, _, m, _) in zip(report.term_signs, rows))),
        "blocks_per_term": blocks,
    }
