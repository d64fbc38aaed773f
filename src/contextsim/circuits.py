"""Gate set and circuit application, including the controlled blocks used by
the probe-readout construction.

One kernel applies every gate to the rows of a 2^n x r operand, viewed as a
``[2] * n`` tensor (qubit 0 the leftmost axis): a gate is one matrix product
on a view with its target axes moved first, a controlled gate's view being
its control slice. Gates compose left to right; a state vector is one column,
and a mixed state maps to U (U rho)^dag = U rho U^dag because a stored rho
is exactly Hermitian.

``apply`` runs a circuit on a checked ``QuantumState``; ``evolve`` runs it
on a bare vector or density matrix and checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import checked_count, checked_matrix
from .states import QuantumState

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
HADAMARD.setflags(write=False)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


@dataclass(frozen=True)
class GateOp:
    """One gate: a unitary on ``targets``, optionally conditioned on a control.

    ``control_on`` selects the polarity: 1 applies the unitary when the
    control is |1>, 0 when it is |0>. Labels are cosmetic only.
    """

    label: str
    matrix: np.ndarray
    targets: tuple[int, ...]
    control: int | None = None
    control_on: int = 1

    def __post_init__(self):
        targets = tuple(checked_count(t, "target qubit") for t in self.targets)
        control = None if self.control is None else checked_count(self.control, "control qubit")
        control_on = checked_count(self.control_on, "control polarity")
        if control_on > 1:
            raise ValueError(f"control polarity must be 0 or 1, got {control_on}")
        dim = 2 ** len(targets)
        m = checked_matrix(self.matrix, f"gate {self.label!r}", (dim, dim), "unitary")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target qubits")
        if control is not None and control in targets:
            raise ValueError("control qubit cannot be a target")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "control_on", control_on)


@dataclass(frozen=True)
class Circuit:
    qubits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            used = op.targets + (() if op.control is None else (op.control,))
            if any(q < 0 or q >= self.qubits for q in used):
                raise ValueError(f"gate {op.label!r} addresses qubits outside 0..{self.qubits - 1}")


def hadamard(target: int) -> GateOp:
    return GateOp("H", HADAMARD, (target,))


def _on_rows(ops, rows: np.ndarray, n: int) -> np.ndarray:
    """Apply ``ops`` in order to the register index of a 2^n x r operand
    (or a length-2^n vector); returns a new array of the operand's shape. Each
    gate is one product on a transposed view with its targets first, in gate
    order; a control slice drops its axis, shifting the targets above it."""
    t = np.array(rows, dtype=complex).reshape([2] * n + [-1])
    for op in ops:
        view, targets = t, op.targets
        if op.control is not None:
            view = t[(slice(None),) * op.control + (op.control_on,)]
            targets = tuple(q - (q > op.control) for q in targets)
        moved = view.transpose(targets + tuple(a for a in range(view.ndim) if a not in targets))
        moved[...] = (op.matrix @ moved.reshape(2 ** len(targets), -1)).reshape(moved.shape)
    return t.reshape(rows.shape)


def full_gate_matrix(op: GateOp, n: int) -> np.ndarray:
    """The 2^n x 2^n unitary implemented by one gate op."""
    return _on_rows((op,), np.eye(2 ** n, dtype=complex), n)


def embed(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Lift a unitary on ``targets`` to the full n-qubit register.

    ``targets`` is an ordered qubit list; the operator acts as ``u`` there and
    as identity elsewhere. Qubit 0 is the most significant bit.
    """
    (op,) = Circuit(n, (GateOp("U", u, tuple(targets)),)).ops
    return full_gate_matrix(op, n)


def evolve(circuit: Circuit, operand: np.ndarray) -> np.ndarray:
    """Run a circuit on a state vector (renormalized) or a density matrix
    (mapped as U rho U^dag, renormalized to unit trace); unchecked."""
    n = circuit.qubits
    if operand.ndim == 1:
        psi = _on_rows(circuit.ops, operand, n)
        return psi / np.linalg.norm(psi)
    rho = _on_rows(circuit.ops, _on_rows(circuit.ops, operand, n).conj().T, n)
    return rho / np.trace(rho).real


def apply(circuit: Circuit, state: QuantumState) -> QuantumState:
    """Run a circuit on a state; pure stays pure, mixed maps as U rho U^dag."""
    if circuit.qubits != state.qubits:
        raise ValueError(
            f"circuit on {circuit.qubits} qubits cannot act on a {state.qubits}-qubit state"
        )
    if state.is_pure:
        return QuantumState(qubits=state.qubits, amplitudes=evolve(circuit, state.amplitudes))
    return QuantumState(qubits=state.qubits, rho=evolve(circuit, state.rho))
