"""Observable families and evaluators for the four inequalities.

Each term of an evaluator is a sequence of time slots, each a product of
per-qubit dichotomic observables read through an evolution. Three routes read
a term: "scattering" (probe circuit), "direct" (trace closed form), and
"sequential" (an invasive Lüders chain over the slots' Heisenberg
observables, in slot order). For term families built from mutually commuting
factors all three agree. A term needs one controlled readout block per slot,
which is the block count the visibility noise model uses.

The terms and side conditions of one evaluator share a slot count (three for
the square, two for the cycles, one for the Bell form), so a report is one
``(T, k, d, d)`` stack of the slots' blocks, the only thing it builds per
request, read by all three routes with one ``(state, stack)`` call. The
square's and the Bell form's stacks are built once, at import.

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

from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULI_Z, PAULIS, checked_angles, checked_matrix, sigma_theta_matrix
from .circuits import ry_matrix
from .scattering import (
    TemporalCorrelationSpec,
    sigma_theta_evolution,
    slot,
    stack_correlators_direct,
    stack_correlators_scattering,
)
from .sequential import stack_correlators_sequential
from .states import QuantumState

# each route's one (state, stack) call on a (T, k, d, d) block stack
_ROUTES = {
    "scattering": stack_correlators_scattering,
    "direct": stack_correlators_direct,
    "sequential": stack_correlators_sequential,
}
METHODS = tuple(_ROUTES)
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
        m = checked_matrix(self.matrix, f"observable {self.label!r}", kind="dichotomic")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class InequalityReport:
    """Per-term correlators, their combination, and the violation verdict.

    ``terms`` holds raw correlator values; ``term_signs`` are the weights in
    the combination; ``term_predictions`` are the noiseless values (equal to
    the measured ones unless a noise model intervened); ``blocks_per_term``
    counts the controlled readout blocks each term needs, which drives the
    visibility noise model.

    ``sum`` (the signed combination in term order), ``violated`` and
    ``constraints_satisfied`` (every side condition 1 within CONSTRAINT_ATOL;
    None without side conditions) are derived from the terms, so they cannot
    be passed in, and ``dataclasses.replace`` recomputes them.
    """

    name: str
    method: str
    terms: tuple[tuple[str, float], ...]
    term_signs: tuple[float, ...]
    term_predictions: tuple[float, ...]
    blocks_per_term: tuple[int, ...]
    sum: float = field(init=False)
    classical_bound: float
    bound_direction: str
    quantum_prediction: float | None
    violated: bool = field(init=False)
    constraints: tuple[tuple[str, float], ...] | None = None
    constraints_satisfied: bool | None = field(init=False)

    def __post_init__(self):
        total = float(sum(s * v for s, (_, v) in zip(self.term_signs, self.terms)))
        satisfied = None
        if self.constraints is not None:
            satisfied = all(abs(v - 1.0) <= CONSTRAINT_ATOL for _, v in self.constraints)
        object.__setattr__(self, "sum", total)
        object.__setattr__(self, "violated", is_violated(total, self.classical_bound, self.bound_direction))
        object.__setattr__(self, "constraints_satisfied", satisfied)


def is_violated(total: float, bound: float, direction: str) -> bool:
    if direction == "<=":
        return total > bound + VERDICT_EPS
    if direction == ">=":
        return total < bound - VERDICT_EPS
    raise ValueError(f"unknown bound direction {direction!r}")


def _make_report(
    name, state, method, labels, stack, signs, bound, direction, prediction,
    constraint_labels=None,
):
    """Read a report's one ``(T, k, d, d)`` block stack on ``method`` with one
    :func:`_spec_values` call: its rows are the terms, then the side
    conditions, each labelled in order; a term needs k readout blocks."""
    qubits = stack.shape[-1].bit_length() - 1
    if state.qubits != qubits:
        raise ValueError(f"this evaluator needs a {'single' if qubits == 1 else 'two'}-qubit state")
    read = _spec_values(state, stack, method)
    values = read[:len(labels)]
    constraints = None if constraint_labels is None else tuple(zip(constraint_labels, read[len(labels):]))
    return InequalityReport(
        name=name,
        method=method,
        terms=tuple(zip(labels, values)),
        term_signs=tuple(signs),
        term_predictions=tuple(values),
        blocks_per_term=(stack.shape[1],) * len(labels),
        classical_bound=bound,
        bound_direction=direction,
        quantum_prediction=prediction,
        constraints=constraints,
    )


def sigma_theta(theta: float) -> Observable:
    """cos(theta) sigma_z + sin(theta) sigma_x; dichotomic for every angle."""
    theta = checked_angles(theta, "theta", scalar=True)
    return Observable(matrix=sigma_theta_matrix(theta), label=f"sigma_theta({theta:.6g})")


def pm_observable(label: str) -> Observable:
    if label not in PM_FACTOR_TOKENS:
        raise ValueError(f"unknown square entry {label!r}")
    left, right = PM_FACTOR_TOKENS[label]
    return Observable(matrix=np.kron(PAULIS[left], PAULIS[right]), label=label)


def pentagram_observable(j: int) -> Observable:
    """The j-th of five single-qubit directions stepping by 4*pi/5 in the x-z
    plane; j = 0 is sigma_z."""
    if not 0 <= j <= 4:
        raise ValueError(f"pentagram index {j} out of 0..4")
    u = ry_matrix(4 * np.pi * j / 5)
    return Observable(matrix=u.conj().T @ PAULI_Z @ u, label=f"sigma_{j}")


def _spec_values(state: QuantumState, stack: np.ndarray, method: str) -> list[float]:
    """The correlator of each row of a ``(T, k, d, d)`` block stack on
    ``method``: one batched evolution with one readout on the probe route,
    one batched product on the direct route, one joint distribution on the
    sequential route."""
    if method not in METHODS:  # by ==, so any value is refused with this message
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _ROUTES[method](state, stack)


def _pm_term(label_seq) -> TemporalCorrelationSpec:
    slots = []
    for name in label_seq:
        left, right = PM_FACTOR_TOKENS[name]
        slots.append(slot((PAULIS[left], PAULIS[right])))
    return TemporalCorrelationSpec(system_qubits=2, slots=tuple(slots))


def eval_pm(state: QuantumState, method: str = "direct") -> InequalityReport:
    """Six sequential three-measurement contexts; classical bound 4, quantum
    value 6 independent of the input state."""
    return _make_report(
        name="pm", state=state, method=method, labels=[".".join(seq) for seq in PM_CONTEXTS],
        stack=_PM_STACK, signs=PM_SIGNS, bound=4.0, direction="<=", prediction=6.0,
    )


def _kcbs_cycle(theta) -> np.ndarray:
    """The five blocks (Z, th, Z, th, Z) of the alternating cycle, one stack of
    shape ``theta.shape + (5, 2, 2)`` that a cycle report indexes for its
    ``(T, 2, 2, 2)`` stack of pairs. Z is ``_Z_SLOT.block``; th is U^dag Z U,
    U = sigma_theta_evolution(theta), the product a ``TimeSlot`` makes, so for
    one angle it is ``slot((PAULI_Z,), U).block`` bit for bit. Unchecked: each
    caller checks its angles where they enter."""
    u = sigma_theta_evolution(theta)
    th = u.conj().swapaxes(-1, -2) @ PAULI_Z @ u
    cycle = np.empty(th.shape[:-2] + (5, 2, 2), dtype=complex)
    cycle[..., 0::2, :, :] = _Z_SLOT.block
    cycle[..., 1::2, :, :] = th[..., None, :, :]
    return cycle


# the pairs (i, j) of the cycle, in report order: cyclic neighbours, all i < j
_KCBS_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
_PENTAGON_PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5))


def _cycle_report(name, state, theta, method, pairs, bound, a, b) -> InequalityReport:
    """One pair correlator <X_i X_j> per pair (i, j) of the alternating Z/theta
    cycle, all with sign +1, against a classical floor; the combination is
    a + b cos(theta). theta is checked here, where it enters."""
    theta = checked_angles(theta, "theta", scalar=True)
    return _make_report(
        name=name, state=state, method=method, labels=[f"X{i + 1}.X{j + 1}" for i, j in pairs],
        stack=_kcbs_cycle(theta)[np.array(pairs)], signs=[1.0] * len(pairs),
        bound=bound, direction=">=", prediction=float(a + b * np.cos(theta)),
    )


def eval_kcbs_temporal(state: QuantumState, theta: float, method: str = "direct") -> InequalityReport:
    """Five cyclic adjacent-pair correlators of the alternating Z/theta cycle;
    the combination equals 1 + 4 cos(theta) and its classical floor is -3."""
    return _cycle_report("kcbs", state, theta, method, _KCBS_PAIRS, -3.0, 1, 4)


def eval_pentagon_lg(state: QuantumState, theta: float, method: str = "direct") -> InequalityReport:
    """All ten pair correlators of the five-measurement cycle; the two-point
    reading gives 4 + 6 cos(theta) against the classical floor -2."""
    return _cycle_report("pentagon", state, theta, method, _PENTAGON_PAIRS, -2.0, 4, 6)


def _bell_term(r: int, q: int) -> TemporalCorrelationSpec:
    """One slot measuring A_r x B_q: Z x Z read through the pentagram rotations."""
    evo = np.kron(ry_matrix(4 * np.pi * r / 5), ry_matrix(4 * np.pi * q / 5))
    return TemporalCorrelationSpec(system_qubits=2, slots=(slot((PAULI_Z, PAULI_Z), evo),))


# Built from checked slots once, at import: the Z slot of every cycle, and the
# read-only block stacks of the square's six contexts and of the five Bell
# terms followed by their five side conditions <A_j B_j>.
_Z_SLOT = slot((PAULI_Z,))
_PM_STACK = np.stack([_pm_term(seq).blocks for seq in PM_CONTEXTS])
_BELL_STACK = np.stack([_bell_term(r, (r + 1) % 5).blocks for r in range(5)]
                       + [_bell_term(j, j).blocks for j in range(5)])
for _stack in (_PM_STACK, _BELL_STACK):
    _stack.setflags(write=False)


def eval_transformed_bell(state: QuantumState, method: str = "direct") -> InequalityReport:
    """Five cross correlators <A_r B_{r+1}> of the pentagram family on two
    subsystems, with the side condition <A_j B_j> = 1 reported alongside.

    On the (|00>+|11>)/sqrt(2) state every term equals cos(4*pi/5) and the
    combination reaches -5 cos(pi/5), beating the classical floor -3.
    """
    return _make_report(
        name="bell", state=state, method=method, labels=[f"A{r}.B{(r + 1) % 5}" for r in range(5)],
        stack=_BELL_STACK, signs=[1.0] * 5, bound=-3.0, direction=">=",
        prediction=float(5 * np.cos(4 * np.pi / 5)), constraint_labels=[f"A{j}.B{j}" for j in range(5)],
    )
