"""Gate set and circuit application, including the controlled blocks used by
the probe-readout construction.

One kernel applies every gate to the rows of a 2^n x r operand, viewed as a
``[2] * n`` tensor (qubit 0 the leftmost axis): a gate acts on its target
axes, a controlled gate only on its slice of the control axis. Gates compose
left to right; a state vector is one column, and a mixed state maps to
U (U rho)^dag = U rho U^dag because a stored rho is exactly Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ATOL, as_matrix
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


def is_unitary(u: np.ndarray, atol: float = ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= atol)


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
        m = as_matrix(self.matrix)
        if m.shape[0] != 2 ** len(self.targets):
            raise ValueError(f"matrix of shape {m.shape} does not fit {len(self.targets)} targets")
        if not is_unitary(m):
            raise ValueError(f"gate {self.label!r} is not unitary within tolerance")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubits")
        if self.control is not None and self.control in self.targets:
            raise ValueError("control qubit cannot be a target")
        if self.control_on not in (0, 1):
            raise ValueError("control polarity must be 0 or 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


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


def controlled(control: int, u: np.ndarray, targets, label: str = "ctrl-U", on: int = 1) -> GateOp:
    return GateOp(label, u, tuple(targets), control=control, control_on=on)


def _on_rows(ops, rows: np.ndarray, n: int) -> np.ndarray:
    """Apply ``ops`` in order to the register index of a 2^n x r operand
    (or a length-2^n vector); returns a new array of the operand's shape."""
    t = np.array(rows, dtype=complex).reshape([2] * n + [-1])
    for op in ops:
        k = len(op.targets)
        where = [slice(None)] * n
        if op.control is not None:
            where[op.control] = slice(op.control_on, op.control_on + 1)
        where = tuple(where)
        gate = op.matrix.reshape([2] * (2 * k))
        out = np.tensordot(gate, t[where], axes=(range(k, 2 * k), op.targets))
        t[where] = np.moveaxis(out, range(k), op.targets)
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


def apply(circuit: Circuit, state: QuantumState) -> QuantumState:
    """Run a circuit on a state; pure stays pure, mixed maps as U rho U^dag."""
    if circuit.qubits != state.qubits:
        raise ValueError(
            f"circuit on {circuit.qubits} qubits cannot act on a {state.qubits}-qubit state"
        )
    n = circuit.qubits
    if state.is_pure:
        psi = _on_rows(circuit.ops, state.amplitudes, n)
        psi = psi / np.linalg.norm(psi)
        return QuantumState(qubits=state.qubits, amplitudes=psi)
    rho = _on_rows(circuit.ops, _on_rows(circuit.ops, state.rho, n).conj().T, n)
    return QuantumState(qubits=state.qubits, rho=rho / np.trace(rho).real)
