"""Probe-assisted readout of n-point temporal correlators.

A correlation spec lists time slots; each slot carries one 2x2 dichotomic
observable per system qubit plus an evolution unitary for that instant. The
probe circuit is Hadamard, each slot's controlled block (made once, with the
slot), Hadamard; the probe's <sigma_z> then equals Re tr(rho_sys * O(t_1) O(t_2)
... O(t_n)), with no mid-circuit collapse and no renormalization.

Controlled blocks are emitted in slot order, so the block seen by the |1>
branch of the probe is O(t_n) ... O(t_1); the real part of the readout is
insensitive to that reversal because the product's adjoint reverses it back.
probe_sigma_y exposes the sign-sensitive imaginary part of the applied
product for diagnostics.

A spec owns its blocks, the slots' O(t), as one read-only ``(k, d, d)``
stack that every route reads. Specs that share a register and a slot count
stack into ``(T, k, d, d)``, read unchecked in one ``(state, stack)`` call by
each route's private kernel: :func:`_probe_values` (one batched pass and
readout), :func:`_direct_values` (one batched product and trace) and
``sequential._full_product``. Only stacks of checked slot blocks reach them; a
lone spec is the batch of one, ``spec.blocks[None]``, and a caller's stack is
read, checked, by ``sequential.correlator_sequential``. Every probe circuit U has
the same wiring, so the probe route runs it once as fixed products on the probe's
axis, with no gate objects: H on the probe, each block on the probe's |1> half, H.
A pure state runs as |0> x psi; a mixed one as the columns |0> x |j>, which give
the isometry V = U[:, :d], as U (|0><0| x rho) U^dag = V rho V^dag. The probe's
<Z> is the signed sum of the output's diagonal.

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

from .circuits import HADAMARD, Circuit, GateOp, embed
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, checked_count, checked_matrix, checked_sequence, conjugated, onto_set
from .states import MAX_QUBITS, QuantumState, density_of, haar_random_unitary


@dataclass(frozen=True, eq=False)
class TimeSlot:
    """Per-qubit observables plus the evolution unitary for one time instant.

    Each input is checked and stored on its set (``linalg.onto_set``), so ``block``, the
    read-only Heisenberg observable O(t) = U^dag (O_1 x ... x O_N) U, needs no check."""

    observables: tuple[np.ndarray, ...]
    evolution: np.ndarray
    block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        obs = tuple(onto_set(checked_matrix(o, "per-qubit observable", (2, 2), "dichotomic"), "dichotomic")
                    for o in checked_sequence(self.observables, "observables", "2 x 2 matrices"))
        if not obs:
            raise ValueError("a slot needs at least one observable")
        u = onto_set(checked_matrix(self.evolution, "evolution", (2 ** len(obs),) * 2, "unitary"), "unitary")
        block = conjugated(reduce(np.kron, obs), u)
        block.setflags(write=False)
        self.__dict__.update(observables=obs, evolution=u, block=block)


@dataclass(frozen=True, eq=False)
class TemporalCorrelationSpec:
    """Time slots on ``system_qubits`` qubits; ``blocks`` is the read-only
    ``(k, d, d)`` stack of their blocks, ``(0, d, d)`` for none."""

    system_qubits: int
    slots: tuple[TimeSlot, ...]
    blocks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = checked_count(self.system_qubits, "system_qubits", minimum=1)
        object.__setattr__(self, "system_qubits", n)
        object.__setattr__(self, "slots", checked_sequence(self.slots, "slots", "time slots"))
        for s in self.slots:
            if len(s.observables) != n:
                raise ValueError("slot size does not match the system qubit count")
        blocks = np.array([s.block for s in self.slots], dtype=complex).reshape(-1, 2 ** n, 2 ** n)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)


def slot(observables, evolution: np.ndarray | None = None) -> TimeSlot:
    """Convenience constructor; a missing evolution means the identity."""
    obs = checked_sequence(observables, "observables", "2 x 2 matrices")
    if evolution is None:
        evolution = np.eye(2 ** len(obs), dtype=complex)
    return TimeSlot(observables=obs, evolution=evolution)


def heisenberg_observable(ts: TimeSlot) -> np.ndarray:
    """U^dag (O_1 x ... x O_N) U for one slot: its block."""
    return ts.block


def build_scattering_circuit(spec: TemporalCorrelationSpec) -> Circuit:
    """The probe circuit on N+1 qubits; the probe is the extra qubit 0 and
    controls each slot's block, made a gate here and only here."""
    targets, h = tuple(range(1, spec.system_qubits + 1)), GateOp("H", HADAMARD, (0,))
    blocks = (GateOp("slot block", b, targets, control=0) for b in spec.blocks)
    return Circuit(spec.system_qubits + 1, (h, *blocks, h))


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


def _probe_circuit(stack: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """Each spec's probe circuit, for a ``(T, k, d, d)`` block stack, in one pass on a
    ``(T, 2d)`` stack of vectors or a ``(T, 2d, r)`` stack of columns, not renormalized, so
    it reads the state as admitted, as the other routes do. Viewed as ``(T, 2, d, r)``, H is
    one product on the probe axis and a block one on the probe's |1> half; the operand is
    only read, in any layout."""
    d, r = stack.shape[-1], operand.shape[-1] if operand.ndim == 3 else 1  # sized, as -1 fails on T = 0
    t = (HADAMARD @ operand.reshape(len(operand), 2, d * r)).reshape(len(operand), 2, d, r)
    for i in range(stack.shape[1]):
        t[:, 1] = stack[:, i] @ t[:, 1]
    return (HADAMARD @ t.reshape(len(operand), 2, d * r)).reshape(operand.shape)


def _probe_values(rho_sys: QuantumState, stack: np.ndarray) -> np.ndarray:
    """Probe readout of each spec of an unchecked ``(T, k, d, d)`` block stack,
    in one ``(state, stack)`` call as on the direct and sequential routes: one
    :func:`_probe_circuit` pass on |0> x psi, or on the isometry's columns for rho,
    and the probe's <Z> read off the diagonal of the output state."""
    d = 2 ** rho_sys.qubits
    if stack.shape[-2:] != (d, d):
        raise ValueError("state and spec disagree on the system size")
    if not 1 <= rho_sys.qubits <= MAX_QUBITS:
        raise ValueError(f"the probe route reads registers of 1 to {MAX_QUBITS} system qubits")
    signs = embed(PAULI_Z, [0], rho_sys.qubits + 1).diagonal().real
    if rho_sys.is_pure:
        padded = np.zeros((len(stack), 2 * d), dtype=complex)
        padded[:, :d] = rho_sys.amplitudes
        out = _probe_circuit(stack, padded)
        return (out * out.conj() * signs).sum(-1).real
    v = _probe_circuit(stack, np.eye(2 * d, d)[None].repeat(len(stack), axis=0))
    return (((v @ rho_sys.rho) * v.conj()).sum(-1).real * signs).sum(-1)


def correlator_scattering(rho_sys: QuantumState, spec: TemporalCorrelationSpec) -> float:
    """Probe readout of the n-point correlator: the probe's <sigma_z> after
    the circuit runs on |0> x rho_sys; the batch of one of :func:`_probe_values`."""
    return float(_probe_values(rho_sys, spec.blocks[None])[0])


def _direct_values(rho_sys: QuantumState, stack: np.ndarray) -> np.ndarray:
    """Closed form Re tr(rho * O(t_1) ... O(t_k)) of each spec of an unchecked
    ``(T, k, d, d)`` block stack: one batched product over the slot axis, then
    one trace against the state. The empty product is 1."""
    rho = density_of(rho_sys)
    if stack.shape[-2:] != rho.shape:
        raise ValueError("state and spec disagree on the system size")
    u = stack[:, 0] if stack.shape[1] else np.eye(len(rho), dtype=complex)[None].repeat(len(stack), axis=0)
    for i in range(1, stack.shape[1]):
        u = u @ stack[:, i]
    return np.trace(rho @ u, axis1=-2, axis2=-1).real


def correlator_direct(rho_sys: QuantumState, spec: TemporalCorrelationSpec) -> float:
    """Closed form Re tr(rho * O(t_1) ... O(t_n)) of one spec: the batch of one
    of :func:`_direct_values`."""
    return float(_direct_values(rho_sys, spec.blocks[None])[0])


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
    """An angle in radians read from text: a finite float literal, "pi", "-pi", or "acos(x)"."""
    if not isinstance(text, str):
        raise ValueError(f"angle must be text, got {text!r}")
    t = text.strip().lower()
    if t in ("pi", "-pi"):
        return math.pi if t == "pi" else -math.pi
    acos = t.startswith("acos(") and t.endswith(")")
    try:
        angle = float(t[5:-1] if acos else text)
    except ValueError:
        raise ValueError(f'angle {text!r} is not a float, "pi", "-pi" or "acos(x)"') from None
    if acos:
        if not -1.0 <= angle <= 1.0:
            raise ValueError(f"acos argument {angle} out of [-1, 1]")
        return math.acos(angle)
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not a finite number of radians")
    return angle
