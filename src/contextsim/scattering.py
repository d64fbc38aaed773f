"""Probe-assisted readout of n-point temporal correlators.

A correlation spec lists time slots; each slot carries one 2x2 dichotomic
observable per system qubit plus an evolution unitary for that instant. The
probe circuit is Hadamard, each slot's controlled block (made and checked once,
with the slot), Hadamard; the probe's <sigma_z> then equals the real part of
tr(rho_sys * O(t_1) O(t_2) ... O(t_n)), with no mid-circuit collapse.

Controlled blocks are emitted in slot order, so the block seen by the |1>
branch of the probe is O(t_n) ... O(t_1); the real part of the readout is
insensitive to that reversal because the product's adjoint reverses it back.
probe_sigma_y exposes the sign-sensitive imaginary part of the applied
product for diagnostics.

A spec owns its blocks, the slots' O(t), as one read-only ``(k, d, d)``
stack that every route reads. Specs that share a register and a slot count
stack into ``(T, k, d, d)``, which each route reads with one ``(state, stack)``
call: one batched evolution and one readout on the probe route, one batched
product and one trace on the direct route; a lone spec is the batch of one,
``spec.blocks[None]``. The probe circuit's wiring depends only on the register
size and the slot count, so its controlled gates are made once, at import.

Any sequence of observables and evolutions is a spec; for two slots, the
second after a two-qubit unitary ``U``, the three routes read the same value::

    spec = TemporalCorrelationSpec(system_qubits=2, slots=(
        slot((PAULI_Z, PAULI_X)), slot((PAULI_Z, PAULI_X), U)))
    correlator_scattering(state, spec)             # the probe circuit
    correlator_direct(state, spec)                 # Re tr(rho O(t_1) O(t_2))
    sequential.correlator_sequential(state, spec.blocks)  # a Lüders chain
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .circuits import Circuit, GateOp, embed, evolve, hadamard, ry_matrix
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, checked_count, checked_matrix
from .states import MAX_QUBITS, QuantumState, density_of, haar_random_unitary


@dataclass(frozen=True)
class TimeSlot:
    """Per-qubit observables plus the evolution unitary for one time instant.

    ``block`` is the read-only ``(d, d)`` Heisenberg observable
    O(t) = U^dag (O_1 x ... x O_N) U, checked as unitary once, here."""

    observables: tuple[np.ndarray, ...]
    evolution: np.ndarray
    block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = tuple(checked_matrix(o, "per-qubit observable", (2, 2), "dichotomic")
                    for o in self.observables)
        if not obs:
            raise ValueError("a slot needs at least one observable")
        u = checked_matrix(self.evolution, "evolution", (2 ** len(obs),) * 2, "unitary")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "evolution", u)
        object.__setattr__(self, "block", checked_matrix(
            u.conj().T @ reduce(np.kron, obs) @ u, "slot observable U^dag (O_1 x ... x O_N) U",
            kind="unitary"))


@dataclass(frozen=True)
class TemporalCorrelationSpec:
    """Time slots on ``system_qubits`` qubits; ``blocks`` is the read-only
    ``(k, d, d)`` stack of their blocks, ``(0, d, d)`` for none."""

    system_qubits: int
    slots: tuple[TimeSlot, ...]
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = checked_count(self.system_qubits, "system_qubits", minimum=1)
        object.__setattr__(self, "system_qubits", n)
        object.__setattr__(self, "slots", tuple(self.slots))
        for s in self.slots:
            if len(s.observables) != n:
                raise ValueError("slot size does not match the system qubit count")
        blocks = np.array([s.block for s in self.slots], dtype=complex).reshape(-1, 2 ** n, 2 ** n)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)


def slot(observables, evolution: np.ndarray | None = None) -> TimeSlot:
    """Convenience constructor; a missing evolution means the identity."""
    obs = tuple(observables)
    if evolution is None:
        evolution = np.eye(2 ** len(obs), dtype=complex)
    return TimeSlot(observables=obs, evolution=evolution)


def sigma_theta_evolution(theta) -> np.ndarray:
    """Unitary U with U^dag sigma_z U = cos(theta) sigma_z + sin(theta) sigma_x;
    an array of angles gives a stack of shape ``theta.shape + (2, 2)``."""
    return np.moveaxis(ry_matrix(-np.asarray(theta)), (0, 1), (-2, -1))


def heisenberg_observable(ts: TimeSlot) -> np.ndarray:
    """U^dag (O_1 x ... x O_N) U for one slot: its block."""
    return ts.block


# the probe's Hadamard, which opens and closes every probe circuit, and for
# each register size the wiring of a slot's block: qubits 1..N controlled by
# the probe, its matrix supplied per call
_PROBE_HADAMARD = hadamard(0)
_PROBE_BLOCKS = {n: GateOp("slot block", np.eye(2 ** n), tuple(range(1, n + 1)), control=0)
                 for n in range(1, MAX_QUBITS + 1)}


def build_scattering_circuit(spec: TemporalCorrelationSpec) -> Circuit:
    """The probe circuit on N+1 qubits; the probe is the extra qubit 0 and
    controls each slot's block, made a gate here and only here."""
    targets = tuple(range(1, spec.system_qubits + 1))
    blocks = (GateOp("slot block", b, targets, control=0) for b in spec.blocks)
    return Circuit(spec.system_qubits + 1, (_PROBE_HADAMARD, *blocks, _PROBE_HADAMARD))


def _probe_pauli(rho: np.ndarray, pauli: np.ndarray) -> np.ndarray:
    """<pauli> of the probe qubit (index 0) in each register density matrix of
    a ``(..., D, D)`` stack ``rho``, as an array of shape ``...``: one
    ``embed`` and one batched product for the whole stack."""
    n = rho.shape[-1].bit_length() - 1
    if n < 1:
        raise ValueError("state has no probe qubit")
    return np.trace(rho @ embed(pauli, [0], n), axis1=-2, axis2=-1).real


def probe_sigma_z(state: QuantumState) -> float:
    """<sigma_z> of the probe qubit (index 0)."""
    return float(_probe_pauli(density_of(state), PAULI_Z))


def probe_sigma_y(state: QuantumState) -> float:
    """<sigma_y> of the probe qubit; after the circuit this is minus the
    imaginary part of tr(rho U) for the applied controlled product U."""
    return float(_probe_pauli(density_of(state), PAULI_Y))


def stack_correlators_scattering(rho_sys: QuantumState, stack: np.ndarray) -> list[float]:
    """Probe readout of each spec of a ``(T, k, d, d)`` block stack, in one
    ``(state, stack)`` call as on the direct and sequential routes: the probe
    circuit of every spec (H, its k controlled blocks, H) runs on the bare
    array |0> x rho_sys in one batched evolution of the wiring made at import
    for this register, and one readout takes the probe's <sigma_z> of all."""
    operand = rho_sys.amplitudes if rho_sys.is_pure else rho_sys.rho
    d = len(operand)
    if stack.shape[-2:] != (d, d):
        raise ValueError("state and spec disagree on the system size")
    n = rho_sys.qubits
    if n not in _PROBE_BLOCKS:
        raise ValueError(f"the probe route reads registers of 1 to {MAX_QUBITS} system qubits")
    circuit = Circuit(n + 1, (_PROBE_HADAMARD, *(_PROBE_BLOCKS[n],) * stack.shape[1], _PROBE_HADAMARD))
    h = _PROBE_HADAMARD.matrix
    padded = np.zeros((len(stack),) + (2 * d,) * operand.ndim, dtype=complex)
    padded[(slice(None),) + (slice(d),) * operand.ndim] = operand
    out = evolve(circuit, padded, (h, *stack.swapaxes(0, 1), h))
    if out.ndim == 2:
        out = out[:, :, None] * out.conj()[:, None, :]
    return _probe_pauli(out, PAULI_Z).tolist()


def correlator_scattering(rho_sys: QuantumState, spec: TemporalCorrelationSpec) -> float:
    """Probe readout of the n-point correlator: the probe's <sigma_z> after
    the circuit runs on |0> x rho_sys; the batch of one of
    :func:`stack_correlators_scattering`."""
    return stack_correlators_scattering(rho_sys, spec.blocks[None])[0]


def stack_correlators_direct(rho_sys: QuantumState, stack: np.ndarray) -> list[float]:
    """Closed form Re tr(rho * O(t_1) ... O(t_k)) of each spec of a ``(T, k, d, d)``
    block stack: one batched product over the slot axis, then one trace against
    the state. The empty product is 1."""
    rho = density_of(rho_sys)
    if stack.shape[-2:] != rho.shape:
        raise ValueError("state and spec disagree on the system size")
    u = np.eye(rho.shape[0], dtype=complex)[None].repeat(len(stack), axis=0)
    for i in range(stack.shape[1]):
        u = u @ stack[:, i]
    return np.trace(rho @ u, axis1=-2, axis2=-1).real.tolist()


def correlator_direct(rho_sys: QuantumState, spec: TemporalCorrelationSpec) -> float:
    """Closed form Re tr(rho * O(t_1) ... O(t_n)) of one spec: the batch of one
    of :func:`stack_correlators_direct`."""
    return stack_correlators_direct(rho_sys, spec.blocks[None])[0]


def random_dichotomic(rng: np.random.Generator) -> np.ndarray:
    """A random single-qubit observable with eigenvalues +-1 (unit Bloch vector)."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def random_correlation_spec(
    system_qubits: int, n_slots: int, rng: np.random.Generator
) -> TemporalCorrelationSpec:
    """Seeded random spec: Bloch-vector observables, Haar evolution per slot."""
    slots = []
    for _ in range(n_slots):
        obs = tuple(random_dichotomic(rng) for _ in range(system_qubits))
        slots.append(TimeSlot(observables=obs, evolution=haar_random_unitary(2 ** system_qubits, rng)))
    return TemporalCorrelationSpec(system_qubits=system_qubits, slots=tuple(slots))


def parse_angle(text) -> float:
    """An angle in radians: a finite float literal, "pi", "-pi", or "acos(x)"."""
    if isinstance(text, bool):
        raise ValueError(f"angle must be a number or a string, got {text!r}")
    if isinstance(text, str):
        t = text.strip().lower()
        if t == "pi":
            return math.pi
        if t == "-pi":
            return -math.pi
        if t.startswith("acos(") and t.endswith(")"):
            x = float(t[5:-1])
            if not -1.0 <= x <= 1.0:
                raise ValueError(f"acos argument {x} out of [-1, 1]")
            return math.acos(x)
    try:
        angle = float(text)
    except OverflowError:  # an integer beyond the float range
        angle = math.inf
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not a finite number of radians")
    return angle
