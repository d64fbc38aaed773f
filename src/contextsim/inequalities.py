"""Observable families and evaluators for the four inequalities.

Each term of an evaluator is one TemporalCorrelationSpec: time slots, each a
product of per-qubit dichotomic observables read through an evolution. Three
routes read a spec: "scattering" (probe circuit), "direct" (trace closed
form), and "sequential" (an invasive Lüders chain over the slots' Heisenberg
observables, in slot order). For term families built from mutually commuting
factors all three agree. A term needs one controlled readout block per slot,
which is the block count the visibility noise model uses.

The nine-entry square of two-qubit observables::

    A = Z x I    B = I x Z    C = Z x Z
    a = I x X    b = X x I    c = X x X
    alpha = Z x X    beta = X x Z    gamma = Y x Y

Rows and columns commute entrywise; every row product is +I and the
gamma*c*C column product is -I, which forces the six-context combination to
the value 6 on any input state while value assignments capped by the
classical bound stop at 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_Z, PAULIS, as_matrix, check_observable, sigma_theta_matrix
from .circuits import ry_matrix
from .scattering import (
    TemporalCorrelationSpec,
    TimeSlot,
    correlator_direct,
    correlator_scattering,
    heisenberg_observable,
    sigma_theta_evolution,
    slot,
)
from .sequential import correlator_sequential
from .states import QuantumState

METHODS = ("scattering", "direct", "sequential")
VERDICT_EPS = 1e-9
CONSTRAINT_ATOL = 1e-6

PM_FACTOR_TOKENS = {
    "A": ("Z", "I"),
    "B": ("I", "Z"),
    "C": ("Z", "Z"),
    "a": ("I", "X"),
    "b": ("X", "I"),
    "c": ("X", "X"),
    "alpha": ("Z", "X"),
    "beta": ("X", "Z"),
    "gamma": ("Y", "Y"),
}

# Context sequences entering the six-term combination; the last one carries
# a minus sign.
PM_CONTEXTS = (
    ("A", "B", "C"),
    ("b", "c", "a"),
    ("gamma", "alpha", "beta"),
    ("A", "alpha", "a"),
    ("b", "B", "beta"),
    ("gamma", "c", "C"),
)
PM_SIGNS = (1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class Observable:
    """A dichotomic observable: a Hermitian operator with O^2 = I."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = as_matrix(self.matrix)
        check_observable(m, f"observable {self.label!r}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class InequalityReport:
    """Per-term correlators, their combination, and the violation verdict.

    ``terms`` holds raw correlator values; ``term_signs`` are the weights in
    the combination; ``term_predictions`` are the noiseless values (equal to
    the measured ones unless a noise model intervened); ``blocks_per_term``
    counts the controlled readout blocks each term needs, which drives the
    visibility noise model.
    """

    name: str
    method: str
    terms: tuple[tuple[str, float], ...]
    term_signs: tuple[float, ...]
    term_predictions: tuple[float, ...]
    blocks_per_term: tuple[int, ...]
    sum: float
    classical_bound: float
    bound_direction: str
    quantum_prediction: float | None
    violated: bool
    constraints: tuple[tuple[str, float], ...] | None = None
    constraints_satisfied: bool | None = None


def is_violated(total: float, bound: float, direction: str) -> bool:
    if direction == "<=":
        return total > bound + VERDICT_EPS
    if direction == ">=":
        return total < bound - VERDICT_EPS
    raise ValueError(f"unknown bound direction {direction!r}")


def side_conditions_satisfied(constraints) -> bool | None:
    """Whether every side-condition correlator is 1 within CONSTRAINT_ATOL;
    None when the report has no side conditions."""
    if constraints is None:
        return None
    return all(abs(v - 1.0) <= CONSTRAINT_ATOL for _, v in constraints)


def _make_report(
    name, state, method, labels, specs, signs, bound, direction, prediction,
    constraint_specs=None,
):
    """Evaluate one spec per term, and per labelled side condition, on ``method``."""
    values = [_term_value(state, spec, method) for spec in specs]
    constraints = None
    if constraint_specs is not None:
        constraints = tuple(
            (label, _term_value(state, spec, method)) for label, spec in constraint_specs.items()
        )
    total = float(sum(s * v for s, v in zip(signs, values)))
    return InequalityReport(
        name=name,
        method=method,
        terms=tuple(zip(labels, values)),
        term_signs=tuple(signs),
        term_predictions=tuple(values),
        blocks_per_term=tuple(len(spec.slots) for spec in specs),
        sum=total,
        classical_bound=bound,
        bound_direction=direction,
        quantum_prediction=prediction,
        violated=is_violated(total, bound, direction),
        constraints=constraints,
        constraints_satisfied=side_conditions_satisfied(constraints),
    )


def sigma_theta(theta: float) -> Observable:
    """cos(theta) sigma_z + sin(theta) sigma_x; dichotomic for every angle."""
    return Observable(matrix=sigma_theta_matrix(theta), label=f"sigma_theta({theta:.6g})")


def pm_observable(label: str) -> Observable:
    if label not in PM_FACTOR_TOKENS:
        raise ValueError(f"unknown square entry {label!r}")
    left, right = PM_FACTOR_TOKENS[label]
    return Observable(matrix=np.kron(PAULIS[left], PAULIS[right]), label=label)


def pm_square() -> tuple[tuple[Observable, ...], ...]:
    """The nine two-qubit observables as a 3x3 grid (rows as listed above)."""
    return (
        tuple(pm_observable(k) for k in ("A", "B", "C")),
        tuple(pm_observable(k) for k in ("a", "b", "c")),
        tuple(pm_observable(k) for k in ("alpha", "beta", "gamma")),
    )


def pentagram_observable(j: int) -> Observable:
    """The j-th of five single-qubit directions stepping by 4*pi/5 in the x-z
    plane; j = 0 is sigma_z."""
    if not 0 <= j <= 4:
        raise ValueError(f"pentagram index {j} out of 0..4")
    u = ry_matrix(4 * np.pi * j / 5)
    return Observable(matrix=u.conj().T @ PAULI_Z @ u, label=f"sigma_{j}")


def _term_value(state: QuantumState, spec: TemporalCorrelationSpec, method: str) -> float:
    if method == "scattering":
        return correlator_scattering(state, spec)
    if method == "direct":
        return correlator_direct(state, spec)
    if method == "sequential":
        return correlator_sequential(state, tuple(heisenberg_observable(s) for s in spec.slots))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _pm_term(label_seq) -> TemporalCorrelationSpec:
    slots = []
    for name in label_seq:
        left, right = PM_FACTOR_TOKENS[name]
        slots.append(slot((PAULIS[left], PAULIS[right])))
    return TemporalCorrelationSpec(system_qubits=2, slots=tuple(slots))


def eval_pm(state: QuantumState, method: str = "direct") -> InequalityReport:
    """Six sequential three-measurement contexts; classical bound 4, quantum
    value 6 independent of the input state."""
    if state.qubits != 2:
        raise ValueError("this evaluator needs a two-qubit state")
    return _make_report(
        name="pm",
        state=state,
        method=method,
        labels=[".".join(seq) for seq in PM_CONTEXTS],
        specs=[_pm_term(seq) for seq in PM_CONTEXTS],
        signs=PM_SIGNS,
        bound=4.0,
        direction="<=",
        prediction=6.0,
    )


def _kcbs_cycle(theta: float) -> tuple[TimeSlot, ...]:
    """The five measurement slots (Z, theta, Z, theta, Z)."""
    z_slot = slot((PAULI_Z,))
    th_slot = slot((PAULI_Z,), sigma_theta_evolution(theta))
    return tuple(z_slot if k % 2 == 0 else th_slot for k in range(5))


def _pair_specs(theta: float, pairs) -> list[TemporalCorrelationSpec]:
    cycle = _kcbs_cycle(theta)
    return [TemporalCorrelationSpec(system_qubits=1, slots=(cycle[i], cycle[j])) for i, j in pairs]


def eval_kcbs_temporal(state: QuantumState, theta: float, method: str = "direct") -> InequalityReport:
    """Five cyclic adjacent-pair correlators of the alternating Z/theta cycle;
    the combination equals 1 + 4 cos(theta) and its classical floor is -3."""
    if state.qubits != 1:
        raise ValueError("this evaluator needs a single-qubit state")
    pairs = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    return _make_report(
        name="kcbs",
        state=state,
        method=method,
        labels=[f"X{i + 1}.X{j + 1}" for i, j in pairs],
        specs=_pair_specs(theta, pairs),
        signs=[1.0] * 5,
        bound=-3.0,
        direction=">=",
        prediction=float(1 + 4 * np.cos(theta)),
    )


def eval_pentagon_lg(state: QuantumState, theta: float, method: str = "direct") -> InequalityReport:
    """All ten pair correlators of the five-measurement cycle; the two-point
    reading gives 4 + 6 cos(theta) against the classical floor -2."""
    if state.qubits != 1:
        raise ValueError("this evaluator needs a single-qubit state")
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return _make_report(
        name="pentagon",
        state=state,
        method=method,
        labels=[f"X{i + 1}.X{j + 1}" for i, j in pairs],
        specs=_pair_specs(theta, pairs),
        signs=[1.0] * 10,
        bound=-2.0,
        direction=">=",
        prediction=float(4 + 6 * np.cos(theta)),
    )


def _bell_term(r: int, q: int) -> TemporalCorrelationSpec:
    """One slot measuring A_r x B_q: Z x Z read through the pentagram rotations."""
    evo = np.kron(ry_matrix(4 * np.pi * r / 5), ry_matrix(4 * np.pi * q / 5))
    return TemporalCorrelationSpec(system_qubits=2, slots=(slot((PAULI_Z, PAULI_Z), evo),))


def eval_transformed_bell(state: QuantumState, method: str = "direct") -> InequalityReport:
    """Five cross correlators <A_r B_{r+1}> of the pentagram family on two
    subsystems, with the side condition <A_j B_j> = 1 reported alongside.

    On the (|00>+|11>)/sqrt(2) state every term equals cos(4*pi/5) and the
    combination reaches -5 cos(pi/5), beating the classical floor -3.
    """
    if state.qubits != 2:
        raise ValueError("this evaluator needs a two-qubit state")
    return _make_report(
        name="bell",
        state=state,
        method=method,
        labels=[f"A{r}.B{(r + 1) % 5}" for r in range(5)],
        specs=[_bell_term(r, (r + 1) % 5) for r in range(5)],
        signs=[1.0] * 5,
        bound=-3.0,
        direction=">=",
        prediction=float(5 * np.cos(4 * np.pi / 5)),
        constraint_specs={f"A{j}.B{j}": _bell_term(j, j) for j in range(5)},
    )
