"""Observable families and evaluators for the four inequalities.

Each term of an evaluator is a sequence of time slots, each a product of
per-qubit dichotomic observables read through an evolution. Three routes read
a term: "scattering" (probe circuit), "direct" (trace closed form), and
"sequential" (an invasive Lüders chain over the slots' Heisenberg
observables, in slot order). For term families built from mutually commuting
factors all three agree. A term needs one controlled readout block per slot,
which is the block count the visibility noise model uses.

An evaluator is defined by its terms and side conditions, each a tuple of
observable labels such as ``("A", "B", "C")``, ``("X1", "X2")`` or
``("A0", "B1")``; its report labels and classical bound derive from them.
They share a slot count (three for the square, two for the cycles, one for
the Bell form), so a report is one ``(T, k, d, d)`` stack of the slots'
blocks, the only thing it builds per request, read by its route's kernel in
``_ROUTES`` with one unchecked ``(state, stack)`` call (each block was checked
with its slot). The square's and the Bell form's stacks are built once, at import.

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

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import CONSTRAINT_ATOL, PAULIS, VERDICT_EPS, checked_matrix, checked_reals, sigma_theta_matrix
from .scattering import TemporalCorrelationSpec, _direct_values, _probe_values, slot
from .sequential import _full_product
from .states import QuantumState

# each route's (state, stack) kernel; the stacks are built from checked slots, so all read them unchecked
_ROUTES = {"scattering": _probe_values, "direct": _direct_values, "sequential": _full_product}
METHODS = tuple(_ROUTES)

PM_FACTOR_TOKENS = {
    "A": ("Z", "I"), "B": ("I", "Z"), "C": ("Z", "Z"),
    "a": ("I", "X"), "b": ("X", "I"), "c": ("X", "X"),
    "alpha": ("Z", "X"), "beta": ("X", "Z"), "gamma": ("Y", "Y"),
}

# Context sequences entering the six-term combination, the square's three rows
# and then its three columns; the last one carries a minus sign.
PM_CONTEXTS = (
    ("A", "B", "C"), ("b", "c", "a"), ("gamma", "alpha", "beta"),
    ("A", "alpha", "a"), ("b", "B", "beta"), ("gamma", "c", "C"),
)
PM_SIGNS = (1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
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


@functools.cache
def classical_bound(terms, signs, direction, constraints=()) -> float:
    """The noncontextual or local bound: the maximum (``"<="``) or minimum
    (``">="``) of sum(sign * product of a term's values) over every +-1
    assignment to the labels that makes each side-condition product +1
    (Cabello, Severini and Winter, PRL 112, 040401 (2014)). Cached: pass tuples."""
    if direction not in ("<=", ">="):
        raise ValueError(f"unknown bound direction {direction!r}")
    labels = sorted({label for term in terms + constraints for label in term})
    sums = []
    for values in itertools.product((1, -1), repeat=len(labels)):
        value = dict(zip(labels, values)).get
        if all(math.prod(map(value, c)) == 1 for c in constraints):
            sums.append(sum(s * math.prod(map(value, t)) for s, t in zip(signs, terms)))
    return float(max(sums) if direction == "<=" else min(sums))


def _make_report(name, state, method, terms, stack, signs, direction, prediction, constraints=()):
    """Read a report's one ``(T, k, d, d)`` block stack on ``method`` with one
    :func:`_spec_values` call: its rows are the terms, then the side conditions,
    each labelled by its labels joined with dots; a term needs k readout blocks."""
    qubits = stack.shape[-1].bit_length() - 1
    if state.qubits != qubits:
        raise ValueError(f"this evaluator needs a {'single' if qubits == 1 else 'two'}-qubit state")
    read = _spec_values(state, stack, method)
    values = read[:len(terms)]
    side = tuple(zip([".".join(c) for c in constraints], read[len(terms):])) if constraints else None
    return InequalityReport(
        name=name, method=method, terms=tuple(zip([".".join(t) for t in terms], values)),
        term_signs=tuple(signs), term_predictions=tuple(values), blocks_per_term=(stack.shape[1],) * len(terms),
        classical_bound=classical_bound(terms, signs, direction, constraints), bound_direction=direction,
        quantum_prediction=prediction, constraints=side,
    )


def sigma_theta(theta: float) -> Observable:
    """cos(theta) sigma_z + sin(theta) sigma_x; dichotomic for every angle."""
    theta = checked_reals(theta, "theta", ())
    return Observable(matrix=sigma_theta_matrix(theta), label=f"sigma_theta({theta:.6g})")


def pm_observable(label: str) -> Observable:
    if label not in PM_FACTOR_TOKENS:
        raise ValueError(f"unknown square entry {label!r}")
    left, right = PM_FACTOR_TOKENS[label]
    return Observable(matrix=np.kron(PAULIS[left], PAULIS[right]), label=label)


# the five pentagram directions sigma(-4*pi*j/5), j = 0..4, read-only: row 0 is sigma_z
_PENTAGRAM = sigma_theta_matrix(-4 * np.pi * np.arange(5) / 5)
_PENTAGRAM.setflags(write=False)


def pentagram_observable(j: int) -> Observable:
    """The j-th of five single-qubit directions stepping by 4*pi/5 in the x-z
    plane; j = 0 is sigma_z."""
    if not 0 <= j <= 4:
        raise ValueError(f"pentagram index {j} out of 0..4")
    return Observable(matrix=_PENTAGRAM[j], label=f"sigma_{j}")


def _spec_values(state: QuantumState, stack: np.ndarray, method: str) -> list[float]:
    """The correlator of each row of a ``(T, k, d, d)`` block stack on
    ``method``: one batched evolution with one readout on the probe route,
    one batched product on the direct route, one batch of sign-contracted
    Lüders pairs on the sequential route."""
    if method not in METHODS:  # by ==, so any value is refused with this message
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _ROUTES[method](state, stack).tolist()


def _pm_term(label_seq) -> TemporalCorrelationSpec:
    slots = (slot([PAULIS[token] for token in PM_FACTOR_TOKENS[name]]) for name in label_seq)
    return TemporalCorrelationSpec(system_qubits=2, slots=tuple(slots))


def eval_pm(state: QuantumState, method: str = "direct") -> InequalityReport:
    """Six sequential three-measurement contexts; classical bound 4, quantum
    value 6 independent of the input state."""
    return _make_report(name="pm", state=state, method=method, terms=PM_CONTEXTS, stack=_PM_STACK,
                        signs=PM_SIGNS, direction="<=", prediction=6.0)


def _kcbs_cycle(theta) -> np.ndarray:
    """The five blocks (Z, th, Z, th, Z) of the alternating cycle, sigma(0) and
    sigma(theta) in one ``sigma_theta_matrix`` call, a stack of shape
    ``theta.shape + (5, 2, 2)`` that a cycle report indexes for its
    ``(T, 2, 2, 2)`` stack of pairs. sigma(0) is sigma_z exactly. Unchecked:
    each caller checks its angles where they enter."""
    return sigma_theta_matrix(np.multiply.outer(theta, (0, 1, 0, 1, 0)))


# the five-cycle's one edge list, (r, r + 1) in order: the kcbs and Bell pairs, the searches' sums
_KCBS_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
_PENTAGON_PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
KCBS_FORM = (1, 4)  # the kcbs sum's closed form a + b cos(theta): (a, b)
BELL_TERM = float(np.cos(4 * np.pi / 5))  # each Bell term on (|00>+|11>)/sqrt(2); the optimum is five
# each cycle report's index array into the five blocks and its terms, ("X1", "X2") for (0, 1)
_CYCLES = {name: (np.array(pairs), tuple((f"X{i + 1}", f"X{j + 1}") for i, j in pairs))
           for name, pairs in (("kcbs", _KCBS_PAIRS), ("pentagon", _PENTAGON_PAIRS))}


def _cycle_report(name, state, theta, method, a, b) -> InequalityReport:
    """One pair correlator <X_i X_j> per pair (i, j) of the alternating Z/theta
    cycle, all with sign +1, against a classical floor; the combination is
    a + b cos(theta). theta is checked here, where it enters."""
    theta = checked_reals(theta, "theta", ())
    index, terms = _CYCLES[name]
    return _make_report(
        name=name, state=state, method=method, terms=terms, stack=_kcbs_cycle(theta)[index],
        signs=(1.0,) * len(terms), direction=">=", prediction=float(a + b * np.cos(theta)),
    )


def eval_kcbs_temporal(state: QuantumState, theta: float, method: str = "direct") -> InequalityReport:
    """Five cyclic adjacent-pair correlators of the alternating Z/theta cycle;
    the combination equals 1 + 4 cos(theta) and its classical floor is -3."""
    return _cycle_report("kcbs", state, theta, method, *KCBS_FORM)


def eval_pentagon_lg(state: QuantumState, theta: float, method: str = "direct") -> InequalityReport:
    """All ten pair correlators of the five-measurement cycle; the two-point
    reading gives 4 + 6 cos(theta) against the classical floor -2."""
    return _cycle_report("pentagon", state, theta, method, 4, 6)


def _bell_term(r: int, q: int) -> TemporalCorrelationSpec:
    """One slot measuring A_r x B_q, the pentagram directions r and q."""
    return TemporalCorrelationSpec(system_qubits=2, slots=(slot((_PENTAGRAM[r], _PENTAGRAM[q])),))


# Built from checked slots once, at import: the read-only block stacks of the
# square's six contexts and of the five Bell terms followed by their five side
# conditions <A_j B_j>, and the terms and side conditions as label pairs.
_BELL_PAIRS = _KCBS_PAIRS + tuple((j, j) for j in range(5))
_BELL_TERMS = tuple((f"A{r}", f"B{s}") for r, s in _BELL_PAIRS)
_PM_STACK = np.stack([_pm_term(seq).blocks for seq in PM_CONTEXTS])
_BELL_STACK = np.stack([_bell_term(r, s).blocks for r, s in _BELL_PAIRS])
for _stack in (_PM_STACK, _BELL_STACK):
    _stack.setflags(write=False)


def eval_transformed_bell(state: QuantumState, method: str = "direct") -> InequalityReport:
    """Five cross correlators <A_r B_{r+1}> of the pentagram family on two
    subsystems, with the side condition <A_j B_j> = 1 reported alongside.

    On the (|00>+|11>)/sqrt(2) state every term equals BELL_TERM, cos(4*pi/5),
    and the combination reaches -5 cos(pi/5), beating the classical floor -3.
    """
    return _make_report(
        name="bell", state=state, method=method, terms=_BELL_TERMS[:5], stack=_BELL_STACK,
        signs=(1.0,) * 5, direction=">=", prediction=5 * BELL_TERM, constraints=_BELL_TERMS[5:],
    )
