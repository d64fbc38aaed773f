"""Gate set and circuit application, including the controlled blocks used by
the probe-readout construction.

One kernel applies every gate to the rows of a stack of T operands of 2^n x r,
each viewed as a ``[2] * n`` tensor (qubit 0 the leftmost axis) after the
batch axis: a gate is one batched matrix product on a view with its target
axes moved first, a controlled gate's view being its control slice. A gate
may carry one matrix per operand, so T circuits of one wiring run as one
evolution. Gates compose left to right; a state vector is one column,
and a mixed state maps to U (U rho)^dag = U rho U^dag because a stored rho
is exactly Hermitian.

``apply`` runs a circuit on a checked ``QuantumState``; ``evolve`` runs it
on a bare vector or density matrix, or runs a stack of circuits on a stack
of them, and checks nothing.
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


def _on_rows(ops, matrices, rows: np.ndarray, n: int) -> np.ndarray:
    """Apply gates in order to the register axis of a ``(T, 2^n, r)`` stack of
    operands (or a ``(T, 2^n)`` stack of vectors); returns a new array of the
    stack's shape. ``ops`` give each gate's wiring and ``matrices``, one for
    one, its matrix: one ``(2^k, 2^k)`` matrix for the whole stack, or a
    ``(T, 2^k, 2^k)`` stack whose entry t acts on operand t. Each gate is one
    product on a transposed view with the batch axis, then its targets first,
    in gate order; a control slice drops its axis, shifting the targets above
    it. The working copy is C-ordered whatever the stack's memory order (a
    broadcast or transposed stack included), so each operand runs exactly as
    it would alone."""
    t = np.array(rows, dtype=complex, order="C").reshape([len(rows)] + [2] * n + [-1])
    for op, m in zip(ops, matrices):
        view, targets = t, op.targets
        if op.control is not None:
            view = t[(slice(None),) * (op.control + 1) + (op.control_on,)]
            targets = tuple(q - (q > op.control) for q in targets)
        if targets != tuple(range(len(targets))):  # not already first, in order
            rest = (q for q in range(view.ndim - 1) if q not in targets)
            view = view.transpose((0, *(q + 1 for q in (*targets, *rest))))
        view[...] = (m @ view.reshape(len(t), m.shape[-1], -1)).reshape(view.shape)
    return t.reshape(rows.shape)


def full_gate_matrix(op: GateOp, n: int) -> np.ndarray:
    """The 2^n x 2^n unitary implemented by one gate op."""
    return _on_rows((op,), (op.matrix,), np.eye(2 ** n, dtype=complex)[None], n)[0]


def embed(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Lift a unitary on ``targets`` to the full n-qubit register.

    ``targets`` is an ordered qubit list; the operator acts as ``u`` there and
    as identity elsewhere. Qubit 0 is the most significant bit.
    """
    (op,) = Circuit(n, (GateOp("U", u, tuple(targets)),)).ops
    return full_gate_matrix(op, n)


def evolve(circuit: Circuit, operand: np.ndarray, matrices=None) -> np.ndarray:
    """Run a circuit on a state vector (renormalized) or a density matrix
    (mapped as U rho U^dag, renormalized to unit trace); unchecked.

    Given ``matrices``, it runs a stack of T circuits of this wiring instead:
    the operand is a ``(T, 2^n)`` stack of vectors or a ``(T, 2^n, 2^n)``
    stack of density matrices, the gates take ``matrices`` in place of the
    ops' own (see :func:`_on_rows`), and the T results return as one stack."""
    ops, n, lone = circuit.ops, circuit.qubits, matrices is None
    if lone:  # the stack of one
        operand, matrices = operand[None], [op.matrix for op in ops]
    if operand.ndim == 2:
        psi = _on_rows(ops, matrices, operand, n)
        # each row's norm summed as np.linalg.norm sums it for one vector
        out = psi / np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))[:, None]
    else:
        rho = _on_rows(ops, matrices, _on_rows(ops, matrices, operand, n).conj().swapaxes(-1, -2), n)
        out = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return out[0] if lone else out


def apply(circuit: Circuit, state: QuantumState) -> QuantumState:
    """Run a circuit on a state; pure stays pure, mixed maps as U rho U^dag."""
    if circuit.qubits != state.qubits:
        raise ValueError(
            f"circuit on {circuit.qubits} qubits cannot act on a {state.qubits}-qubit state"
        )
    if state.is_pure:
        return QuantumState(qubits=state.qubits, amplitudes=evolve(circuit, state.amplitudes))
    return QuantumState(qubits=state.qubits, rho=evolve(circuit, state.rho))
