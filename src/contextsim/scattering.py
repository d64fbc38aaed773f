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
``spec.blocks[None]``. Every probe circuit has the same wiring, so the probe
route runs it as fixed products on the probe's axis, with no gate objects:
H on the probe, each block on the probe's |1> half, H.

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

from .circuits import HADAMARD, Circuit, GateOp, embed, hadamard, renormalized
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, checked_count, checked_matrix, conjugated
from .states import MAX_QUBITS, QuantumState, density_of, haar_random_unitary


@dataclass(frozen=True, eq=False)
class TimeSlot:
    """Per-qubit observables plus the evolution unitary for one time instant.

    ``block`` is the read-only ``(d, d)`` Heisenberg observable
    O(t) = U^dag (O_1 x ... x O_N) U, checked as unitary once, here."""

    observables: tuple[np.ndarray, ...]
    evolution: np.ndarray
    block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        obs = tuple(checked_matrix(o, "per-qubit observable", (2, 2), "dichotomic")
                    for o in self.observables)
        if not obs:
            raise ValueError("a slot needs at least one observable")
        u = checked_matrix(self.evolution, "evolution", (2 ** len(obs),) * 2, "unitary")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "evolution", u)
        object.__setattr__(self, "block", checked_matrix(
            conjugated(reduce(np.kron, obs), u), "slot observable U^dag (O_1 x ... x O_N) U",
            kind="unitary"))


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


def heisenberg_observable(ts: TimeSlot) -> np.ndarray:
    """U^dag (O_1 x ... x O_N) U for one slot: its block."""
    return ts.block


def build_scattering_circuit(spec: TemporalCorrelationSpec) -> Circuit:
    """The probe circuit on N+1 qubits; the probe is the extra qubit 0 and
    controls each slot's block, made a gate here and only here."""
    targets, h = tuple(range(1, spec.system_qubits + 1)), hadamard(0)
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
    """Each spec's probe circuit, for a ``(T, k, d, d)`` block stack, on a
    ``(T, 2d)`` stack of vectors or a ``(T, 2d, 2d)`` stack of density matrices
    (a second pass on the conjugate transpose), renormalized as by ``circuits.apply``.
    Viewed as ``(T, 2, d, r)``, H is one product on the probe axis and a block
    one product on the probe's |1> half; the operand is only read, in any layout."""
    def one_pass(rows):
        t = (HADAMARD @ rows.reshape(len(rows), 2, -1)).reshape(len(rows), 2, stack.shape[-1], -1)
        for i in range(stack.shape[1]):
            t[:, 1] = stack[:, i] @ t[:, 1]
        return (HADAMARD @ t.reshape(len(rows), 2, -1)).reshape(rows.shape)

    out = one_pass(operand)
    if operand.ndim == 3:
        out = one_pass(out.conj().swapaxes(-1, -2))
    return renormalized(out)


def stack_correlators_scattering(rho_sys: QuantumState, stack: np.ndarray) -> list[float]:
    """Probe readout of each spec of a ``(T, k, d, d)`` block stack, in one
    ``(state, stack)`` call as on the direct and sequential routes: one
    :func:`_probe_circuit` on |0> x rho_sys, one readout of the probe's <Z>."""
    operand = rho_sys.amplitudes if rho_sys.is_pure else rho_sys.rho
    d = len(operand)
    if stack.shape[-2:] != (d, d):
        raise ValueError("state and spec disagree on the system size")
    if not 1 <= rho_sys.qubits <= MAX_QUBITS:
        raise ValueError(f"the probe route reads registers of 1 to {MAX_QUBITS} system qubits")
    padded = np.zeros((len(stack),) + (2 * d,) * operand.ndim, dtype=complex)
    padded[(slice(None),) + (slice(d),) * operand.ndim] = operand
    out = _probe_circuit(stack, padded)
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
    u = stack[:, 0] if stack.shape[1] else np.eye(len(rho), dtype=complex)[None].repeat(len(stack), axis=0)
    for i in range(1, stack.shape[1]):
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
    t = text.strip().lower() if isinstance(text, str) else None
    if t in ("pi", "-pi"):
        return math.pi if t == "pi" else -math.pi
    acos = t is not None and t.startswith("acos(") and t.endswith(")")
    try:
        angle = float(t[5:-1] if acos else text)
    except OverflowError:  # an integer beyond the float range
        angle = math.inf
    except ValueError:
        raise ValueError(f'angle {text!r} is not a float, "pi", "-pi" or "acos(x)"') from None
    if acos:
        if not -1.0 <= angle <= 1.0:
            raise ValueError(f"acos argument {angle} out of [-1, 1]")
        return math.acos(angle)
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not a finite number of radians")
    return angle
