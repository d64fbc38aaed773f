"""Gate set and circuit application, including the controlled blocks used by
the probe-readout construction.

``apply`` is the one entry point: it runs a circuit on a checked
``QuantumState``. Its gate kernel ``_on_rows`` takes one operand, a state
vector ``(2^n,)`` or a ``(2^n, r)`` matrix, viewed as a ``[2] * n`` tensor
(qubit 0 the leftmost axis) with the columns last: a gate is one matrix
product on a view with its target axes moved first, a controlled gate's view
being its control slice. Gates compose left to right; a mixed state maps to
U (U rho)^dag = U rho U^dag because a stored rho is exactly Hermitian. The
kernel also serves ``embed`` and so the reference
``scattering.build_scattering_circuit``; the probe route runs its fixed wiring
as plain products in ``scattering._probe_circuit``. ``renormalized`` is the
last step of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import checked_count, checked_matrix
from .states import QuantumState

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
HADAMARD.setflags(write=False)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Circuit:
    qubits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            used = op.targets + (() if op.control is None else (op.control,))
            if any(q < 0 or q >= self.qubits for q in used):
                raise ValueError(f"gate {op.label!r} addresses qubits outside 0..{self.qubits - 1}")


def _on_rows(ops, operand: np.ndarray, n: int) -> np.ndarray:
    """Apply gates in order to the register axis of a ``(2^n, r)`` operand (or
    a ``(2^n,)`` vector); returns a new array of the operand's shape. Each gate
    is one product on a transposed view with its targets first, in gate order;
    a control slice drops its axis, shifting the targets above it. The working
    copy is C-ordered whatever the operand's memory order."""
    t = np.array(operand, dtype=complex, order="C").reshape([2] * n + [-1])
    for op in ops:
        view, targets = t, op.targets
        if op.control is not None:
            view = t[(slice(None),) * op.control + (op.control_on,)]
            targets = tuple(q - (q > op.control) for q in targets)
        if targets != tuple(range(len(targets))):  # not already first, in order
            rest = (q for q in range(view.ndim) if q not in targets)
            view = view.transpose((*targets, *rest))
        view[...] = (op.matrix @ view.reshape(op.matrix.shape[-1], -1)).reshape(view.shape)
    return t.reshape(operand.shape)


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


def renormalized(out: np.ndarray) -> np.ndarray:
    """Each row of a ``(T, D)`` stack of vectors scaled to unit norm, or each
    matrix of a ``(T, D, D)`` stack of density matrices to unit trace."""
    if out.ndim == 2:
        # each row's norm summed as np.linalg.norm sums it for one vector
        return out / np.sqrt(np.vecdot(out.real, out.real) + np.vecdot(out.imag, out.imag))[:, None]
    return out / np.trace(out, axis1=-2, axis2=-1).real[:, None, None]


def apply(circuit: Circuit, state: QuantumState) -> QuantumState:
    """Run a circuit on a state; pure stays pure (renormalized), mixed maps as
    U rho U^dag (renormalized to unit trace)."""
    ops, n = circuit.ops, circuit.qubits
    if n != state.qubits:
        raise ValueError(f"circuit on {n} qubits cannot act on a {state.qubits}-qubit state")
    if state.is_pure:
        return QuantumState(qubits=n, amplitudes=renormalized(_on_rows(ops, state.amplitudes, n)[None])[0])
    out = _on_rows(ops, _on_rows(ops, state.rho, n).conj().T, n)
    return QuantumState(qubits=n, rho=renormalized(out[None])[0])
