"""Probe-assisted readout of n-point temporal correlators.

A correlation spec lists time slots; each slot carries one 2x2 dichotomic
observable per system qubit plus an evolution unitary for that instant. The
probe circuit is Hadamard, one controlled Heisenberg-evolved observable per
slot, Hadamard; the probe's <sigma_z> then equals the real part of
tr(rho_sys * O(t_1) O(t_2) ... O(t_n)), with no mid-circuit collapse.

Controlled blocks are emitted in slot order, so the block seen by the |1>
branch of the probe is O(t_n) ... O(t_1); the real part of the readout is
insensitive to that reversal because the product's adjoint reverses it back.
probe_sigma_y exposes the sign-sensitive imaginary part of the applied
product for diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    apply,
    controlled,
    embed,
    hadamard,
    is_unitary,
    rx_matrix,
    ry_matrix,
    rz_matrix,
)
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    as_matrix,
    check_observable,
    sigma_theta_matrix,
)
from .states import MAX_QUBITS, QuantumState, density_of, haar_random_unitary

_ROTATIONS = {"x": rx_matrix, "y": ry_matrix, "z": rz_matrix}


@dataclass(frozen=True)
class TimeSlot:
    """Per-qubit observables plus the evolution unitary for one time instant."""

    observables: tuple[np.ndarray, ...]
    evolution: np.ndarray

    def __post_init__(self):
        obs = tuple(as_matrix(o) for o in self.observables)
        if not obs:
            raise ValueError("a slot needs at least one observable")
        for o in obs:
            if o.shape != (2, 2):
                raise ValueError("per-qubit observables must be 2x2")
            check_observable(o, "per-qubit observable")
        u = as_matrix(self.evolution)
        if u.shape != (2 ** len(obs),) * 2:
            raise ValueError(f"evolution of shape {u.shape} does not fit {len(obs)} qubits")
        if not is_unitary(u):
            raise ValueError("evolution must be unitary")
        for o in obs:
            o.setflags(write=False)
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "evolution", u)


@dataclass(frozen=True)
class TemporalCorrelationSpec:
    system_qubits: int
    slots: tuple[TimeSlot, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        for s in self.slots:
            if len(s.observables) != self.system_qubits:
                raise ValueError("slot size does not match the system qubit count")


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
    """U^dag (O_1 x ... x O_N) U for one slot."""
    o = ts.observables[0]
    for extra in ts.observables[1:]:
        o = np.kron(o, extra)
    return ts.evolution.conj().T @ o @ ts.evolution


def build_scattering_circuit(spec: TemporalCorrelationSpec) -> Circuit:
    """The probe circuit on N+1 qubits; the probe is the extra qubit 0."""
    n = spec.system_qubits
    system = tuple(range(1, n + 1))
    ops = [hadamard(0)]
    for k, ts in enumerate(spec.slots, start=1):
        ops.append(controlled(0, heisenberg_observable(ts), system, label=f"ctrl-O(t{k})"))
    ops.append(hadamard(0))
    return Circuit(n + 1, tuple(ops))


def _probe_pauli(state: QuantumState, pauli: np.ndarray) -> float:
    n = state.qubits
    if n < 1:
        raise ValueError("state has no probe qubit")
    op = embed(pauli, [0], n)
    return float(np.trace(density_of(state) @ op).real)


def probe_sigma_z(state: QuantumState) -> float:
    """<sigma_z> of the probe qubit (index 0)."""
    return _probe_pauli(state, PAULI_Z)


def probe_sigma_y(state: QuantumState) -> float:
    """<sigma_y> of the probe qubit; after the circuit this is minus the
    imaginary part of tr(rho U) for the applied controlled product U."""
    return _probe_pauli(state, PAULI_Y)


def correlator_scattering(rho_sys: QuantumState, spec: TemporalCorrelationSpec) -> float:
    """Probe readout of the n-point correlator: prepend a |0> probe, run the
    circuit, return the probe's <sigma_z>."""
    if rho_sys.qubits != spec.system_qubits:
        raise ValueError("state and spec disagree on the system size")
    circuit = build_scattering_circuit(spec)
    if rho_sys.is_pure:
        amps = np.zeros(2 ** (rho_sys.qubits + 1), dtype=complex)
        amps[: 2 ** rho_sys.qubits] = rho_sys.amplitudes
        joint = QuantumState(qubits=rho_sys.qubits + 1, amplitudes=amps)
    else:
        probe = np.array([[1, 0], [0, 0]], dtype=complex)
        joint = QuantumState(qubits=rho_sys.qubits + 1, rho=np.kron(probe, density_of(rho_sys)))
    return probe_sigma_z(apply(circuit, joint))


def correlator_direct(rho_sys: QuantumState, spec: TemporalCorrelationSpec) -> float:
    """Closed form Re tr(rho * O(t_1) ... O(t_n)); the empty product is 1."""
    if rho_sys.qubits != spec.system_qubits:
        raise ValueError("state and spec disagree on the system size")
    dim = 2 ** spec.system_qubits
    u = np.eye(dim, dtype=complex)
    for ts in spec.slots:
        u = u @ heisenberg_observable(ts)
    return float(np.trace(density_of(rho_sys) @ u).real)


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
    angle = float(text)
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not a finite number of radians")
    return angle


def _resolve_observable_tokens(tokens, system_qubits: int) -> tuple[np.ndarray, ...]:
    from .inequalities import PM_FACTOR_TOKENS, pentagram_observable

    if len(tokens) == 1 and isinstance(tokens[0], str) and tokens[0].startswith("pm:"):
        label = tokens[0][3:]
        if label not in PM_FACTOR_TOKENS:
            raise ValueError(f"unknown square entry {tokens[0]!r}")
        if system_qubits != 2:
            raise ValueError("pm: tokens describe two-qubit slots")
        tokens = PM_FACTOR_TOKENS[label]
    if len(tokens) != system_qubits:
        raise ValueError(f"slot lists {len(tokens)} observables for {system_qubits} qubits")
    out = []
    for tok in tokens:
        if tok in PAULIS:
            out.append(PAULIS[tok])
        elif tok.startswith("sigma_theta(") and tok.endswith(")"):
            out.append(sigma_theta_matrix(parse_angle(tok[len("sigma_theta("):-1])))
        elif tok.startswith("pentagram:"):
            out.append(pentagram_observable(int(tok.split(":", 1)[1])).matrix)
        else:
            raise ValueError(f"unknown observable token {tok!r}")
    return tuple(out)


def parse_spec_document(text: str) -> TemporalCorrelationSpec:
    """Parse the textual spec format.

    The document is a JSON tree::

        {"system_qubits": 2,
         "slots": [{"observables": ["Z", "I"]},
                   {"observables": ["pm:alpha"]},
                   {"observables": ["Z", "Z"],
                    "evolution": [{"axis": "y", "qubit": 0, "angle": "pi"}]}]}

    Observable tokens: I, X, Y, Z, sigma_theta(angle), pm:<entry>,
    pentagram:<j>. Evolution entries are single-qubit rotations
    exp(-i*angle*sigma_axis/2) composed in list order.
    """
    doc = json.loads(text)
    try:
        return _spec_from_document(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed spec document ({type(exc).__name__}: {exc})") from exc


def _spec_from_document(doc) -> TemporalCorrelationSpec:
    n = int(doc["system_qubits"])
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"system_qubits must be 1 to {MAX_QUBITS}")
    slots = []
    for raw in doc.get("slots", []):
        obs = _resolve_observable_tokens(raw["observables"], n)
        evo = np.eye(2 ** n, dtype=complex)
        for rot in raw.get("evolution", []):
            axis = rot["axis"].lower()
            if axis not in _ROTATIONS:
                raise ValueError(f"unknown rotation axis {rot['axis']!r}")
            q = int(rot["qubit"])
            if not 0 <= q < n:
                raise ValueError(f"rotation qubit {q} out of range")
            gate = _ROTATIONS[axis](parse_angle(rot["angle"]))
            evo = embed(gate, [q], n) @ evo
        slots.append(TimeSlot(observables=obs, evolution=evo))
    return TemporalCorrelationSpec(system_qubits=n, slots=tuple(slots))
