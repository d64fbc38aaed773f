"""Property tests on drawn states, angles, gates, specs and measurement
chains: gate matrices and circuit application match a dense permutation
oracle, the three correlator routes agree term by term and on two-slot specs,
a report's values equal each spec's lone route call bit for bit on every
route, slots built from inputs at the edge of their admission read alike on
the probe and trace routes, within |E| <= 1 on every route and as the
two-time formula on two slots, the cycle's blocks are sigma_theta_matrix's
own bits put on their set, Z read through a y rotation is sigma(theta) to
round-off, a drawn stack read in one
call on each route equals each spec's lone call bit for bit (an empty stack
reads as empty), the probe
matches the trace form on specs of up to six slots, equals the checked
circuit's gate kernel on the route's own operand bit for bit and reads a
rank-one density matrix as its pure state, Lüders chains
match a closed-form oracle and marginalize to their prefixes, a batch of
chains matches each chain run alone and rejects a non-dichotomic observable
at any position, a real chain runs in float64 and matches complex arithmetic
to round-off while an imaginary part anywhere keeps the complex result, the
pentagon readings match the evaluator and a scalar chain per angle and their
closed forms in cos(theta), a Lüders chain of qubit observables has
E[s_i s_j] equal to the product of neighbouring Bloch-vector overlaps, the
invasive ten-pair sum is -2 at its lowest sign vertex, the six-context sum
is state independent, the identity noise model leaves a report unchanged,
the visibility factor v^k is probe dephasing after each of
k blocks and independent outcome flips on a Lüders chain, the Bell-side bound objective matches a
null-space oracle and equals the cyclic cosine sum, near-collinear tuples
included, and the numerical penalty-kernel reading matches it off that band
and never reads above it inside it. The contextual search's two-angle
family is a five-cycle of unit vectors with adjacent ones orthogonal, it
reaches every drawn five-cycle up to rotation, and its closed-form top
eigenvalue matches eigvalsh. The pentagon's four-chain pairwise reading equals its
ten-chain form bit for bit. The angle searches' shared coarse start is also checked
against its public scalar objective taken over the grid one tuple at a time, and
their written-out line and descent against the generic golden-section search on
that objective, bit for bit. Each unchecked path (depolarize, basis_state, the
Bell constant, the sequential route's rows, the pentagon readings, with_noise)
gives its checked counterpart's bits. Every matrix a constructor stores
(gate, slot observable and evolution, observable, density matrix) is
accepted when drawn valid and rejected after one fault: a non-finite entry,
a wrong shape, or its property broken by 1e-6."""

import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given
from hypothesis import strategies as st

from contextsim import bounds, inequalities, optimize, sequential
from contextsim.circuits import HADAMARD, Circuit, GateOp, _on_rows, apply, full_gate_matrix
from contextsim.inequalities import (
    METHODS,
    PM_CONTEXTS,
    Observable,
    eval_kcbs_temporal,
    eval_pentagon_lg,
    eval_pm,
    eval_transformed_bell,
    sigma_theta,
)
from contextsim.linalg import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, SEARCH_TOL, conjugated, onto_set,
                               sigma_theta_matrix)
from contextsim.noise import NoiseModel, apply_visibility, depolarize
from contextsim.optimize import golden_section_minimize
from contextsim.report import with_noise
from contextsim.scattering import (
    TemporalCorrelationSpec,
    TimeSlot,
    build_scattering_circuit,
    correlator_direct,
    correlator_scattering,
    heisenberg_observable,
    probe_sigma_z,
    _direct_values,
    _probe_values,
    slot,
)
from contextsim.sequential import correlator_sequential, joint_distribution
from contextsim.states import (
    QuantumState,
    basis_state,
    bell_phi_plus,
    density_of,
    haar_random_unitary,
    mixed_state,
    pure_state,
)

PM_THEORY = (1.0, 1.0, 1.0, 1.0, 1.0, -1.0)

# name -> (register size, evaluator taking state, theta, method)
EVALUATORS = {
    "pm": (2, lambda s, theta, m: eval_pm(s, m)),
    "kcbs": (1, eval_kcbs_temporal),
    "pentagon": (1, eval_pentagon_lg),
    "bell": (2, lambda s, theta, m: eval_transformed_bell(s, m)),
}

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_infinity=False)


@st.composite
def pure_states(draw, qubits, real=False):
    """A pure state from drawn amplitudes; ``real`` draws real amplitudes."""
    dim = 2 ** qubits
    coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    size = dim if real else 2 * dim
    parts = draw(st.lists(coord, min_size=size, max_size=size))
    amps = np.array(parts[:dim]) + (0 if real else 1j * np.array(parts[dim:]))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return pure_state(amps / norm)


@st.composite
def states(draw, qubits, real=False):
    """A pure state, depolarized by a drawn p half the time; ``real`` draws
    real amplitudes, so the density matrix is real."""
    psi = draw(pure_states(qubits, real))
    if draw(st.booleans()):
        return depolarize(psi, draw(st.floats(0.0, 1.0)))
    return psi


seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def specs(draw, qubits, slots):
    """Slots of drawn Bloch-vector observables, each under a Haar evolution
    from a drawn seed."""
    unit = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3)
    drawn = []
    for _ in range(slots):
        obs = []
        for _ in range(qubits):
            v = np.array(draw(unit))
            assume(np.linalg.norm(v) > 1e-3)
            v /= np.linalg.norm(v)
            obs.append(v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
        evolution = haar_random_unitary(2 ** qubits, np.random.default_rng(draw(seeds)))
        drawn.append(TimeSlot(observables=tuple(obs), evolution=evolution))
    return TemporalCorrelationSpec(system_qubits=qubits, slots=tuple(drawn))


@st.composite
def gates(draw, qubits):
    """A Haar unitary from a drawn seed on 1-3 distinct targets in drawn
    order, and half the time a control of drawn polarity."""
    order = draw(st.permutations(range(qubits)))
    k = draw(st.integers(1, min(3, qubits)))
    u = haar_random_unitary(2 ** k, np.random.default_rng(draw(seeds)))
    if k < qubits and draw(st.booleans()):
        return GateOp("U", u, tuple(order[:k]), control=order[k], control_on=draw(st.integers(0, 1)))
    return GateOp("U", u, tuple(order[:k]))


def _gate_oracle(op, n) -> np.ndarray:
    """kron(u, I) in target-first qubit order, conjugated by the permutation
    matrix to register order; a control keeps the |c><c| block of the other
    polarity as identity."""
    order = list(op.targets) + [q for q in range(n) if q not in op.targets]
    perm = np.zeros((2 ** n, 2 ** n))
    for x in range(2 ** n):
        bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
        perm[int("".join(str(bits[q]) for q in order), 2), x] = 1.0
    lifted = perm.T @ np.kron(op.matrix, np.eye(2 ** (n - len(op.targets)))) @ perm
    if op.control is None:
        return lifted
    on = np.diag([float((x >> (n - 1 - op.control)) & 1 == op.control_on) for x in range(2 ** n)])
    return np.eye(2 ** n) - on + on @ lifted


@st.composite
def chains(draw, qubits, length, real=False):
    """Dichotomic observables U diag(+-1) U^dag: drawn signs, and a Haar U
    from a drawn seed; ``real`` takes an orthogonal U, the Q of a QR
    factorization of a seeded Gaussian matrix."""
    dim = 2 ** qubits
    signs = st.lists(st.sampled_from((1.0, -1.0)), min_size=dim, max_size=dim)
    chain = []
    for _ in range(length):
        d = np.array(draw(signs))
        rng = np.random.default_rng(draw(seeds))
        u = np.linalg.qr(rng.standard_normal((dim, dim)))[0] if real else haar_random_unitary(dim, rng)
        chain.append((u * d) @ u.conj().T)
    return tuple(chain)


def _chain_oracle(state, chain) -> float:
    """Re tr(Phi_k o ... o Phi_1(rho)) with Phi_j(X) = (O_j X + X O_j)/2, the
    outcome-signed sum of one Lüders step; it builds no branches."""
    x = density_of(state)
    for o in chain:
        x = (o @ x + x @ o) / 2
    return float(np.trace(x).real)


@st.composite
def angle_tuples(draw):
    """Five angles, each drawn or a multiple of pi/4, or half the time one
    drawn angle shifted by multiples of pi, which leaves two admissible
    directions instead of one."""
    if draw(st.booleans()):
        angle = st.one_of(angles, st.integers(0, 7).map(lambda k: k * np.pi / 4))
        return np.array(draw(st.lists(angle, min_size=5, max_size=5)))
    shifts = draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    return draw(angles) + np.pi * np.array(shifts)


@st.composite
def cycle_tuples(draw, kind):
    """Five angles: drawn; multiples of pi/4; collinear, one drawn direction
    with drawn multiples of pi added; or pi-shifted, two drawn directions in
    drawn order, each with drawn multiples of pi added."""
    if kind == "drawn":
        return np.array(draw(st.lists(angles, min_size=5, max_size=5)))
    if kind == "grid":
        return np.array(draw(st.lists(st.integers(0, 7), min_size=5, max_size=5))) * np.pi / 4
    directions = [draw(angles)] if kind == "collinear" else [draw(angles), draw(angles)]
    picks = draw(st.lists(st.sampled_from(directions), min_size=5, max_size=5))
    shifts = draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    return np.array(picks) + np.pi * np.array(shifts)


@st.composite
def near_collinear_tuples(draw, scales=(1e-7, 1e-6, 1e-5, 1e-4)):
    """Five angles within a drawn scale of one drawn direction mod pi."""
    scale = draw(st.sampled_from(scales))
    offsets = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)))
    shifts = np.array(draw(st.lists(st.integers(0, 3), min_size=5, max_size=5)))
    return draw(angles) + scale * offsets + np.pi * shifts


def _normalized(v) -> np.ndarray:
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


@st.composite
def five_cycles(draw):
    """Five unit vectors in R^3, adjacent ones orthogonal: u_0 drawn on the
    sphere by two angles, u_1 to u_3 each by one angle on the circle
    orthogonal to the one before, and the fifth u_3 x u_0, normalized (the
    only draw refused, where u_3 is +-u_0)."""
    polar, azimuth = draw(st.floats(0.0, np.pi)), draw(st.floats(-np.pi, np.pi))
    u = [np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])]
    for _ in range(3):
        # the circle's basis: u x e, e the axis least along u, and u x (u x e)
        first = _normalized(np.cross(u[-1], np.eye(3)[np.argmin(np.abs(u[-1]))]))
        turn = draw(st.floats(-np.pi, np.pi))
        u.append(np.cos(turn) * first + np.sin(turn) * np.cross(u[-1], first))
    return u + [_normalized(np.cross(u[3], u[0]))]


def _constraint_singular_values(five):
    """Singular values and right vectors of the stacked I - sigma x sigma,
    whose null space holds the admissible states."""
    stacked = np.vstack([np.eye(4) - np.kron(_sigma(a), _sigma(a)) for a in five])
    _, sv, vh = np.linalg.svd(stacked)
    return sv, vh


def _sigma(a) -> np.ndarray:
    return np.cos(a) * PAULI_Z + np.sin(a) * PAULI_X


def _kron_cycle(five) -> np.ndarray:
    sig = [_sigma(a) for a in five]
    return sum(np.kron(sig[r], sig[(r + 1) % 5]) for r in range(5))


def _values(report):
    return [v for _, v in report.terms] + [v for _, v in report.constraints or ()]


@given(data=st.data())
def test_gate_matrix_matches_permutation_oracle(data):
    n = data.draw(st.integers(1, 4))
    op = data.draw(gates(n))
    assert np.max(np.abs(full_gate_matrix(op, n) - _gate_oracle(op, n))) <= 1e-12


@given(data=st.data())
def test_apply_matches_oracle_product(data):
    n = data.draw(st.integers(1, 4))
    circuit = Circuit(n, tuple(data.draw(st.lists(gates(n), max_size=4))))
    state = data.draw(states(n))
    u = np.eye(2 ** n)
    for op in circuit.ops:
        u = _gate_oracle(op, n) @ u
    if state.is_pure:
        psi = apply(circuit, state).amplitudes
        assert np.max(np.abs(psi - u @ state.amplitudes)) <= 1e-12
    # every drawn state also runs as a density matrix
    rho = density_of(state)
    out = apply(circuit, mixed_state(rho)).rho
    assert np.max(np.abs(out - u @ rho @ u.conj().T)) <= 1e-12


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@given(data=st.data())
def test_routes_agree_term_by_term(name, data):
    qubits, evaluate = EVALUATORS[name]
    state = data.draw(states(qubits))
    theta = data.draw(angles)
    reports = [evaluate(state, theta, method) for method in METHODS]
    reference = _values(reports[0])
    for rep in reports[1:]:
        assert [label for label, _ in rep.terms] == [label for label, _ in reports[0].terms]
        assert np.max(np.abs(np.subtract(_values(rep), reference))) <= 1e-10


# method -> the lone route call of one spec
LONE_CALLS = {
    "scattering": correlator_scattering,
    "direct": correlator_direct,
    "sequential": lambda s, spec: correlator_sequential(s, [ts.block for ts in spec.slots]),
}


def _slot_built_specs(name, theta, report):
    """The spec of each row of a report's block stack, built from checked
    slots of scalar ``sigma_theta_matrix`` calls: its terms, then its side
    conditions. A cycle term X{i}.X{j} is the pair of slots i and j of
    (sigma(0), sigma(theta), sigma(0), sigma(theta), sigma(0)); a Bell term
    A{r}.B{q} is one slot of sigma(-4*pi*r/5) x sigma(-4*pi*q/5)."""
    if name == "pm":
        return [inequalities._pm_term(seq) for seq in PM_CONTEXTS]
    if name == "bell":
        labels = [label for label, _ in report.terms + report.constraints]
        return [TemporalCorrelationSpec(2, (slot(sigma_theta_matrix(-4 * np.pi * int(j) / 5)
                                                 for j in label[1::3]),))
                for label in labels]
    cycle = [slot((sigma_theta_matrix(theta if k % 2 else 0.0),)) for k in range(5)]
    pairs = [[int(x[1:]) - 1 for x in label.split(".")] for label, _ in report.terms]
    return [TemporalCorrelationSpec(1, (cycle[i], cycle[j])) for i, j in pairs]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(EVALUATORS))
@given(data=st.data())
def test_report_reads_each_spec_as_its_lone_call_bit_for_bit(name, method, data):
    # a report reads one block stack in one route call; each row must hold the
    # blocks of the equivalent slot-built spec, and each value must equal that
    # spec's own route call in every bit, so the batch sums in the same order.
    # A cycle row is sigma_theta_matrix's own output, where a slot's identity
    # evolution may turn the sign of a zero entry (-0.0 == 0.0), so rows and
    # values compare as numbers; the cycle's bytes are checked below
    qubits, evaluate = EVALUATORS[name]
    state = data.draw(states(qubits, real=data.draw(st.booleans())))
    theta = data.draw(angles)
    with mock.patch.object(inequalities, "_spec_values", wraps=inequalities._spec_values) as read:
        report = evaluate(state, theta, method)
    [call] = read.call_args_list
    stack, specs = call.args[1], _slot_built_specs(name, theta, report)
    assert len(stack) == len(specs)
    assert all(np.array_equal(row, spec.blocks) for row, spec in zip(stack, specs))
    lone = [LONE_CALLS[method](state, spec) for spec in specs]
    assert _values(report) == lone


@given(theta=angles, more=st.lists(angles, max_size=8))
def test_cycle_blocks_are_sigma_theta_bit_for_bit(theta, more):
    # sigma(0) is Z exactly, and each theta block holds the bits of the scalar
    # call put on its set, as a slot stores it, for one angle and for each
    # angle of a stack
    th = onto_set(sigma_theta_matrix(theta), "dichotomic")
    cycle = inequalities._kcbs_cycle(theta)
    assert cycle.shape == (5, 2, 2)
    assert [b.tobytes() for b in cycle] == [m.tobytes() for m in (PAULI_Z, th, PAULI_Z, th, PAULI_Z)]
    stack = inequalities._kcbs_cycle(np.array(more, dtype=float))
    assert stack.shape == (len(more), 5, 2, 2)
    assert [c.tobytes() for c in stack] == [inequalities._kcbs_cycle(t).tobytes() for t in more]


def _rotation(theta):
    """R(theta) = exp(i theta sigma_y / 2), with R^dag Z R = sigma(theta); an
    array of angles gives a stack of shape ``theta.shape + (2, 2)``."""
    c, s = np.cos(np.asarray(theta) / 2), np.sin(np.asarray(theta) / 2)
    return np.moveaxis(np.array([[c, s], [-s, c]], dtype=complex), (0, 1), (-2, -1))


@given(theta=angles, more=st.lists(angles, min_size=1, max_size=8))
def test_rotated_z_slot_is_sigma_theta(theta, more):
    # the rotation picture: Z read through R(theta) is sigma(theta) to
    # round-off, as a slot's block for one angle and as one stacked product
    assert np.abs(slot((PAULI_Z,), _rotation(theta)).block - sigma_theta_matrix(theta)).max() <= 1e-15
    more = np.array(more)
    assert np.abs(conjugated(PAULI_Z, _rotation(more)) - sigma_theta_matrix(more)).max() <= 1e-15


@st.composite
def spec_stacks(draw):
    """A state and 1-10 specs of one drawn slot count, 0 to 6, on its register."""
    qubits = draw(st.integers(1, 3))
    slots = draw(st.integers(0, 6))
    return draw(states(qubits)), draw(st.lists(specs(qubits, slots), min_size=1, max_size=10))


def _block_stack(specs) -> np.ndarray:
    """The ``(T, k, d, d)`` block stack of a list of specs; an array (an
    example's empty batch, ``(0, k, d, d)``) is taken as it is."""
    return specs if isinstance(specs, np.ndarray) else np.stack([spec.blocks for spec in specs])


@given(case=spec_stacks())
@example(case=(basis_state(1, "0"), np.empty((0, 2, 2, 2), complex)))
@example(case=(mixed_state(np.eye(4) / 4), np.empty((0, 3, 4, 4), complex)))
def test_probe_stack_reads_each_spec_as_its_lone_call_bit_for_bit(case):
    # one batched probe evolution of 1-10 specs; each value equals the spec's
    # lone call in every bit, so no operand of the stack runs differently; the
    # examples are empty batches, read as empty
    state, stack = case
    values = _probe_values(state, _block_stack(stack)).tolist()
    assert [v.hex() for v in values] == [correlator_scattering(state, spec).hex() for spec in stack]


# the direct kernel, and the sequential route's checked stack reading
STACK_CALLS = {"direct": _direct_values, "sequential": correlator_sequential}


@pytest.mark.parametrize("method", sorted(STACK_CALLS))
@given(case=spec_stacks())
@example(case=(pure_state([0.6, 0.8]), [TemporalCorrelationSpec(1, ())] * 2))
@example(case=(mixed_state(np.eye(4) / 4), [TemporalCorrelationSpec(2, ())] * 3))
@example(case=(basis_state(1, "0"), np.empty((0, 2, 2, 2), complex)))
@example(case=(mixed_state(np.eye(4) / 4), np.empty((0, 3, 4, 4), complex)))
def test_direct_and_sequential_stacks_read_each_spec_as_its_lone_call_bit_for_bit(method, case):
    # as for the probe stack; the first two examples are batches of empty
    # specs, which each route reads as the empty product, 1 per spec
    state, stack = case
    values = STACK_CALLS[method](state, _block_stack(stack)).tolist()
    assert [v.hex() for v in values] == [LONE_CALLS[method](state, spec).hex() for spec in stack]


@pytest.mark.parametrize("qubits", [1, 2])
@given(data=st.data())
def test_routes_agree_on_two_slot_specs(qubits, data):
    # for two dichotomic observables the invasive chain reads
    # Re tr(rho O1 O2) = tr(rho {O1, O2})/2, the same as the probe and trace
    spec = data.draw(specs(qubits, 2))
    state = data.draw(states(qubits))
    direct = correlator_direct(state, spec)
    assert abs(correlator_scattering(state, spec) - direct) <= 1e-10
    sequence = tuple(heisenberg_observable(s) for s in spec.slots)
    assert abs(correlator_sequential(state, sequence) - direct) <= 1e-10


# each factor and evolution at the edge of its admission: a factor scaled by
# 1 +- 4.9e-10 has |O^2 - I| = 9.8e-10 <= ATOL_DICHOTOMIC, an evolution
# scaled by 1 +- 4.9e-11 has |U^dag U - I| = 9.8e-11 <= ATOL
EDGE_FACTOR, EDGE_EVOLUTION = (1 - 4.9e-10, 1 + 4.9e-10), (1 - 4.9e-11, 1 + 4.9e-11)


@st.composite
def edge_slots(draw):
    """A state on 1-3 qubits, mixed half the time, and 1-4 slots as
    (observables, evolution) pairs: Bloch-vector factors and a Haar evolution
    from a drawn seed, each scaled to the edge of its admission."""
    qubits = draw(st.integers(1, 3))
    slots = []
    for _ in range(draw(st.integers(1, 4))):
        obs = tuple(draw(st.sampled_from(EDGE_FACTOR)) * (v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
                    for v in draw(bloch_directions(qubits)))
        u = haar_random_unitary(2 ** qubits, np.random.default_rng(draw(seeds)))
        slots.append((obs, draw(st.sampled_from(EDGE_EVOLUTION)) * u))
    return draw(states(qubits)), slots


@given(case=edge_slots())
@example(case=(basis_state(1, "0"), [((PAULI_Z * (1 + 5e-11),), PAULI_I)]))
@example(case=(basis_state(1, "0"), [((PAULI_Z * (1 + 6e-11),), PAULI_I)] * 2))
@example(case=(basis_state(1, "0"), [((PAULI_Z * (1 + 4.9e-10),), PAULI_I)] * 2))
@example(case=(mixed_state(np.eye(2) / 2), [((PAULI_Z,), PAULI_I * (1 + 4e-11)), ((PAULI_X,), PAULI_I)]))
def test_slot_inputs_at_the_admission_edge_read_on_every_route(case):
    # a slot stores each admitted input on its set, so it builds its block
    # without a second check; the probe reads Re tr(rho W) as the trace form
    # does, the sequential route admits the blocks, no route reads |E| above
    # 1, and two slots give the two-time formula tr(rho {O_1, O_2})/2
    state, slots = case
    spec = TemporalCorrelationSpec(state.qubits, tuple(TimeSlot(obs, u) for obs, u in slots))
    probe, direct = correlator_scattering(state, spec), correlator_direct(state, spec)
    chain = correlator_sequential(state, spec.blocks)
    assert abs(probe - direct) <= 1e-14
    assert max(abs(probe), abs(direct), abs(chain)) <= 1 + 1e-14
    if len(slots) == 2:
        o1, o2 = spec.blocks
        assert abs(chain - np.trace(density_of(state) @ (o1 @ o2 + o2 @ o1)).real / 2) <= 1e-14


@given(data=st.data())
def test_scattering_matches_direct_on_long_specs(data):
    qubits = data.draw(st.integers(1, 3))
    spec = data.draw(specs(qubits, data.draw(st.integers(1, 6))))
    state = data.draw(states(qubits))
    assert abs(correlator_scattering(state, spec) - correlator_direct(state, spec)) <= 1e-10


@given(data=st.data())
def test_probe_route_is_the_checked_circuit_bit_for_bit(data):
    # correlator_scattering runs the fixed wiring as bare products; the
    # reference runs the checked circuit's gates through the gate kernel on the
    # route's own operand, |0> x psi or the columns |0> x |j> (the isometry
    # V = U[:, :d]), unrenormalized as the probe route is, and reads the
    # probe's <Z> as the signed sum of the diagonal of |out><out| or V rho V^dag;
    # the two-pass U rho_pad U^dag of the padded density matrix reads the same
    # to round-off
    qubits = data.draw(st.integers(1, 3))
    spec = data.draw(specs(qubits, data.draw(st.integers(0, 6))))
    state = data.draw(states(qubits))
    ops, n, d = build_scattering_circuit(spec).ops, qubits + 1, 2 ** qubits
    signs = np.repeat([1.0, -1.0], d)
    if state.is_pure:
        out = _on_rows(ops, np.kron([1, 0], state.amplitudes), n)
        reference = (out * out.conj() * signs).sum(-1).real
        joint = QuantumState._unchecked(n, amplitudes=out)
    else:
        v = _on_rows(ops, np.eye(2 * d, d), n)
        reference = (((v @ state.rho) * v.conj()).sum(-1).real * signs).sum(-1)
        padded = np.kron(np.diag([1, 0]), state.rho)
        joint = QuantumState._unchecked(n, rho=_on_rows(ops, _on_rows(ops, padded, n).conj().T, n))
    assert correlator_scattering(state, spec).hex() == float(reference).hex()
    assert abs(correlator_scattering(state, spec) - probe_sigma_z(joint)) <= 1e-14


@given(data=st.data())
def test_rank_one_density_matrix_reads_as_its_pure_state_on_the_probe_route(data):
    # the route runs a pure state as |0> x psi and a mixed one through the
    # isometry's columns; on psi psi^dag the two operand paths read alike, and
    # a spec with no slots reads Re tr rho
    qubits = data.draw(st.integers(1, 3))
    spec = data.draw(specs(qubits, data.draw(st.integers(0, 6))))
    psi = data.draw(pure_states(qubits))
    rho = mixed_state(density_of(psi))
    mixed = correlator_scattering(rho, spec)
    assert abs(mixed - correlator_scattering(psi, spec)) <= 1e-14
    if not spec.slots:
        assert abs(mixed - np.trace(rho.rho).real) <= 1e-14


@given(data=st.data())
def test_visibility_is_probe_dephasing_after_each_block(data):
    # rho -> ((1+v)/2) rho + ((1-v)/2) Z_0 rho Z_0 on the probe after each of
    # the k controlled blocks scales the probe's coherence, which the readout
    # reads, by v each time: the noise model's v^k
    qubits = data.draw(st.integers(1, 3))
    spec = data.draw(specs(qubits, data.draw(st.integers(0, 5))))
    state = depolarize(data.draw(states(qubits)), data.draw(st.floats(0.0, 1.0)))
    v = data.draw(st.floats(0.0, 1.0))
    targets = tuple(range(1, qubits + 1))
    z0 = np.kron(PAULI_Z, np.eye(2 ** qubits))
    joint = mixed_state(np.kron(np.diag([1.0, 0.0]), density_of(state)))
    h = GateOp("H", HADAMARD, (0,))
    ops = [h, *(GateOp("block", b, targets, control=0) for b in spec.blocks), h]
    for op in ops:
        joint = apply(Circuit(qubits + 1, (op,)), joint)
        if op.control is not None:
            joint = mixed_state((1 + v) / 2 * joint.rho + (1 - v) / 2 * z0 @ joint.rho @ z0)
    readout = np.trace(z0 @ joint.rho).real
    assert abs(readout - v ** len(spec.slots) * correlator_scattering(state, spec)) <= 1e-12


@given(data=st.data())
def test_visibility_is_independent_outcome_flips_on_the_sequential_route(data):
    # flipping each +-1 outcome of a chain's joint distribution on its own,
    # with probability (1-v)/2, scales the mean of every outcome by v and, the
    # flips being independent, the all-outcome correlator by v^k
    qubits = data.draw(st.integers(1, 3))
    spec = data.draw(specs(qubits, data.draw(st.integers(0, 5))))
    state = data.draw(states(qubits))
    v = data.draw(st.floats(0.0, 1.0))
    k = len(spec.slots)
    flip = (1 - v) / 2
    p = joint_distribution(state, spec.blocks).probabilities
    noisy = 0.0
    for outcomes in itertools.product((0, 1), repeat=k):
        for read in itertools.product((0, 1), repeat=k):
            weight = np.prod([flip if r != o else 1 - flip for o, r in zip(outcomes, read)])
            noisy += p[outcomes] * weight * (-1) ** sum(read)
    assert abs(noisy - v ** k * correlator_sequential(state, spec.blocks)) <= 1e-12


@given(data=st.data())
def test_chain_matches_signed_channel_oracle(data):
    qubits = data.draw(st.integers(1, 3))
    chain = data.draw(chains(qubits, data.draw(st.integers(1, 6))))
    state = data.draw(states(qubits))
    assert abs(correlator_sequential(state, chain) - _chain_oracle(state, chain)) <= 1e-10


@given(data=st.data())
def test_trailing_axes_sum_to_shorter_chain(data):
    qubits = data.draw(st.integers(1, 3))
    length = data.draw(st.integers(1, 6))
    chain = data.draw(chains(qubits, length))
    state = data.draw(states(qubits))
    prefix = data.draw(st.integers(0, length))
    full = joint_distribution(state, chain).probabilities
    folded = full.sum(axis=tuple(range(prefix, length)))
    expected = joint_distribution(state, chain[:prefix]).probabilities
    assert np.max(np.abs(folded - expected)) <= 1e-10


@st.composite
def batched_chains(draw, qubits, length, batch=None, real=False):
    """A complex observable stack of shape batch + (length, d, d) filled with
    drawn chains (``real`` ones have zero imaginary parts); a batch shape of
    None is drawn, with up to two axes, each of length 1-3."""
    if batch is None:
        batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    drawn = [draw(chains(qubits, length, real)) for _ in range(int(np.prod(batch, dtype=int)))]
    return np.array(drawn, dtype=complex).reshape(batch + (length,) + (2 ** qubits,) * 2)


@given(data=st.data())
def test_batched_chain_matches_each_chain(data):
    qubits = data.draw(st.integers(1, 3))
    stack = data.draw(batched_chains(qubits, data.draw(st.integers(1, 5))))
    state = data.draw(states(qubits))
    dist = joint_distribution(state, stack)
    values = np.asarray(correlator_sequential(state, stack))
    for idx in np.ndindex(stack.shape[:-3]):
        one = joint_distribution(state, tuple(stack[idx]))
        assert np.max(np.abs(dist.probabilities[idx] - one.probabilities)) <= 1e-12
        assert abs(values[idx] - one.correlator()) <= 1e-12


@given(data=st.data())
def test_full_product_reading_is_the_branch_chain(data):
    # the sign-contracted pair against the branch stack's full-product mean,
    # and each row of a stack read in one call against its lone call
    qubits, real = data.draw(st.integers(1, 3)), data.draw(st.booleans())
    batch = data.draw(st.sampled_from([(), (data.draw(st.integers(1, 4)),), (2, 3)]))
    stack = data.draw(batched_chains(qubits, data.draw(st.integers(0, 6)), batch, real=real))
    state = data.draw(states(qubits, real=real))
    values = correlator_sequential(state, stack)
    assert np.max(np.abs(values - joint_distribution(state, stack).correlator())) <= 1e-14
    rows = stack.reshape((int(np.prod(batch, dtype=int)),) + stack.shape[-3:])
    assert [v.hex() for v in correlator_sequential(state, rows).tolist()] == [
        correlator_sequential(state, row).hex() for row in rows]


def _complex_probabilities(state, stack) -> np.ndarray:
    """The joint distribution of a batch of chains in complex128 arithmetic:
    ``luders_measure`` on complex copies of the density matrix and the
    stack's projector pairs (I +- O)/2, whatever their imaginary parts."""
    obs = np.asarray(stack, dtype=complex)
    rho = density_of(state).astype(complex)
    proj = (np.eye(obs.shape[-1]) + np.array([1.0, -1.0])[:, None, None] * obs[..., None, :, :]) / 2
    branches = rho.reshape((1,) * (obs.ndim - 2) + rho.shape)
    for i in range(obs.shape[-3]):
        branches = sequential.luders_measure(branches, proj[..., i, :, :, :])
    return np.trace(branches, axis1=-2, axis2=-1).real.reshape(obs.shape[:-3] + (2,) * obs.shape[-3])


def _recorded_chain(state, stack):
    """``joint_distribution(state, stack)`` and the dtype of every branch
    stack that its chain steps return."""
    dtypes, step = [], sequential.luders_measure

    def recorded(branches, proj):
        out = step(branches, proj)
        dtypes.append(out.dtype)
        return out

    with mock.patch.object(sequential, "luders_measure", recorded):
        return joint_distribution(state, stack), dtypes


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("qubits", [1, 2, 3])
@given(data=st.data())
def test_real_chain_runs_in_float64(qubits, batch, data):
    # the real parts give the complex arithmetic's probabilities up to
    # round-off, not bit for bit
    stack = data.draw(batched_chains(qubits, data.draw(st.integers(1, 5)), batch, real=True))
    state = data.draw(states(qubits, real=True))
    dist, dtypes = _recorded_chain(state, stack)
    assert dtypes == [np.float64] * (stack.shape[-3] - 1)  # the last measurement takes no step
    assert np.max(np.abs(dist.probabilities - _complex_probabilities(state, stack))) <= 1e-15


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("qubits", [1, 2, 3])
@given(data=st.data())
def test_chain_with_an_imaginary_part_runs_in_complex128(qubits, batch, data):
    # an imaginary part in one observable or in the state makes the whole
    # chain complex; the last outcome is read off the branches, not split
    # from them, so the probabilities match the complex arithmetic up to
    # round-off
    stack = data.draw(batched_chains(qubits, data.draw(st.integers(1, 5)), batch, real=True))
    if data.draw(st.booleans()):
        state = data.draw(states(qubits))
        assume(density_of(state).imag.any())
    else:
        state = data.draw(states(qubits, real=True))
        position = tuple(data.draw(st.integers(0, n - 1)) for n in stack.shape[:-2])
        stack[position] = data.draw(chains(qubits, 1))[0]
        assume(stack[position].imag.any())
    dist, dtypes = _recorded_chain(state, stack)
    assert dtypes == [np.complex128] * (stack.shape[-3] - 1)  # the last measurement takes no step
    assert np.max(np.abs(dist.probabilities - _complex_probabilities(state, stack))) <= 1e-15


@given(data=st.data())
def test_non_dichotomic_observable_anywhere_in_a_batch_is_rejected(data):
    qubits = data.draw(st.integers(1, 2))
    stack = data.draw(batched_chains(qubits, data.draw(st.integers(1, 4))))
    position = tuple(data.draw(st.integers(0, n - 1)) for n in stack.shape[:-2])
    if data.draw(st.booleans()):
        # s O squares to s^2 I
        stack[position] *= data.draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 3.0)))
    else:
        # a one-sided off-diagonal entry breaks hermiticity
        stack[position + (0, 1)] += data.draw(st.sampled_from((1.0, -1.0, 1j))) * data.draw(
            st.floats(1e-6, 1.0))
    with pytest.raises(ValueError, match="Hermitian|identity"):
        joint_distribution(data.draw(states(qubits)), stack)


@given(thetas=st.lists(angles, min_size=1, max_size=6))
def test_scan_readings_match_scalar_chains(thetas):
    # the scan reads these arrays on its grid; the oracles are the
    # evaluator's ten pair terms and one scalar chain of Observables per angle
    grid = np.array([*thetas, np.pi, np.arccos(-0.75)])
    pairwise = bounds.pentagon_pairwise_value(grid)
    invasive = bounds.pentagon_invasive_value(grid)
    half = mixed_state(np.eye(2) / 2)
    for theta, p, v in zip(grid.tolist(), pairwise, invasive):
        assert abs(p - eval_pentagon_lg(half, theta, "sequential").sum) <= 1e-12
        cycle = [sigma_theta(0.0 if k % 2 == 0 else theta) for k in range(5)]
        dist = joint_distribution(half, cycle)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert abs(v - sum(dist.correlator(pair) for pair in pairs)) <= 1e-12
    scan = bounds.pentagon_scan(grid)
    assert scan.argument["pairwise"]["minimum"] == pairwise.min()
    assert scan.argument["invasive"]["minimum"] == invasive.min()


def _ten_chain_pairwise(theta):
    """The pairwise reading as one chain per pair of ``_PENTAGON_PAIRS``."""
    pairs = inequalities._kcbs_cycle(theta)[..., np.array(inequalities._PENTAGON_PAIRS), :, :]
    values = joint_distribution(mixed_state(np.eye(2) / 2), pairs).correlator()
    return sum(values[..., k] for k in range(len(inequalities._PENTAGON_PAIRS)))


@given(data=st.data())
def test_pairwise_reading_is_the_ten_chain_form_bit_for_bit(data):
    # bytes, not ==: the scan's minimum and its argmin read these values
    shape = data.draw(st.sampled_from([(), (1,), (7,), (2, 3)]))
    theta = np.array(data.draw(st.lists(angles, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))).reshape(shape)
    theta = float(theta) if theta.ndim == 0 else theta
    value = bounds.pentagon_pairwise_value(theta)
    assert np.float64(value).tobytes() == np.float64(_ten_chain_pairwise(theta)).tobytes()


@given(thetas=st.lists(angles, min_size=1, max_size=8))
def test_pentagon_closed_form_of_the_pairwise_reading(thetas):
    c = np.cos(np.array(thetas))
    assert np.max(np.abs(bounds.pentagon_pairwise_value(np.array(thetas)) - (4 + 6 * c))) <= 1e-13


@given(thetas=st.lists(angles, min_size=1, max_size=8))
def test_pentagon_closed_form_of_the_invasive_reading(thetas):
    # the chain-product identity below, summed over the ten pairs of the Z/theta cycle
    c = np.cos(np.array(thetas))
    closed = 4 * c + 3 * c ** 2 + 2 * c ** 3 + c ** 4
    assert np.max(np.abs(bounds.pentagon_invasive_value(np.array(thetas)) - closed)) <= 1e-13


@st.composite
def bloch_directions(draw, count):
    """``count`` unit vectors in R^3 from drawn coordinates."""
    unit = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3)
    drawn = []
    for _ in range(count):
        v = np.array(draw(unit))
        assume(np.linalg.norm(v) > 1e-3)
        drawn.append(v / np.linalg.norm(v))
    return drawn


@given(data=st.data())
def test_chain_product_identity(data):
    # after outcome s_i the state is (I + s_i n_i.sigma)/2, and an unread
    # measurement maps a Bloch vector r to (n.r) n, so on any input state
    # E[s_i s_j] = prod over m in [i, j) of n_m . n_{m+1}
    n = data.draw(bloch_directions(data.draw(st.integers(2, 5))))
    chain = [v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z for v in n]
    dist = joint_distribution(data.draw(states(1)), chain)
    for i, j in itertools.combinations(range(len(n)), 2):
        product = np.prod([n[m] @ n[m + 1] for m in range(i, j)])
        assert abs(dist.correlator((i, j)) - product) <= 1e-13


def test_invasive_sum_is_minus_two_at_its_lowest_sign_vertex():
    # the invasive ten-pair sum is multilinear in c_m = n_m . n_{m+1}, so over
    # every qubit family its minimum sits at one of the 16 vertices c in {-1, 1}^4,
    # each realized by the chain Z, c_0 Z, c_0 c_1 Z, ...
    half = mixed_state(np.eye(2) / 2)
    sums = []
    for signs in itertools.product((1.0, -1.0), repeat=4):
        chain = np.cumprod((1.0, *signs))[:, None, None] * PAULI_Z
        dist = joint_distribution(half, chain)
        sums.append(sum(dist.correlator(pair) for pair in inequalities._PENTAGON_PAIRS))
    assert min(sums) == -2.0 and sums.count(-2.0) == 10


@given(five=angle_tuples())
def test_bell_operator_is_the_kron_sum(five):
    assert np.max(np.abs(bounds.bell_operator(five) - _kron_cycle(five))) <= 1e-12


@given(five=angle_tuples())
def test_constrained_objective_matches_null_space_oracle(five):
    # singular values near the kernel threshold would leave its dimension open
    sv, vh = _constraint_singular_values(five)
    assume(np.all((sv < 1e-7) | (sv > 1e-2)))
    null = vh[sv < 1e-7].conj().T
    oracle = np.linalg.eigvalsh(null.conj().T @ _kron_cycle(five) @ null)[0]
    assert abs(bounds.bell_constrained_objective(five) - oracle) <= 1e-9


@pytest.mark.parametrize("kind", ["drawn", "grid", "collinear", "shifted", "near-collinear"])
@given(data=st.data())
def test_constrained_minimum_is_the_cyclic_cosine_sum(kind, data):
    # the admissible space always holds the pair state, on which
    # sigma(a) x sigma(b) reads cos(a - b); with one direction mod pi it is
    # two-dimensional and every term is +-1 on it
    five = data.draw(near_collinear_tuples() if kind == "near-collinear" else cycle_tuples(kind))
    assert abs(bounds.bell_constrained_objective(five) - bounds.temporal_objective(five)) <= 1e-13


def _penalty_minimum(five) -> float:
    """The constrained minimum read the numerical way: the kernel of the
    positive sum of the (I - sigma x sigma)/2 penalties, its eigenvalues below
    1e-9 taken as zero, and the five-term operator's lowest eigenvalue there.
    Near-collinear tuples put the second penalty eigenvalue, (5 -
    |sum_j exp(2i a_j)|)/2, under that threshold, so their kernel admits a
    state outside the admissible space."""
    w, v = np.linalg.eigh(sum(np.eye(4) - np.kron(_sigma(a), _sigma(a)) for a in five) / 2)
    kernel = v[:, w < 1e-9]
    return float(np.linalg.eigvalsh(kernel.conj().T @ _kron_cycle(five) @ kernel)[0])


@pytest.mark.parametrize("kind", ["drawn", "grid", "collinear", "shifted"])
@given(data=st.data())
def test_penalty_oracle_matches_off_the_near_collinear_band(kind, data):
    five = data.draw(cycle_tuples(kind))
    assert abs(_penalty_minimum(five) - bounds.bell_constrained_objective(five)) <= 1e-13


@pytest.mark.parametrize("kind", ["drawn", "grid", "collinear", "near-collinear"])
@given(data=st.data())
def test_second_penalty_eigenvalue_is_the_closed_form(kind, data):
    # the premise the oracle's band rests on: the penalty
    # sum_j (I - sigma_j x sigma_j)/2 is 0 on the pair state, 5 on the singlet
    # and 5/2 -+ |sum_j exp(2i a_j)|/2 on the rest. The near-collinear scales
    # put that second eigenvalue on both sides of 1e-9
    if kind == "near-collinear":
        five = data.draw(near_collinear_tuples(scales=(1e-5, 1e-4, 1e-3, 1e-2)))
    else:
        five = data.draw(cycle_tuples(kind))
    penalty = sum(np.eye(4) - np.kron(_sigma(a), _sigma(a)) for a in five) / 2
    second = (5 - abs(np.exp(2j * five).sum())) / 2
    assert abs(np.linalg.eigvalsh(penalty)[1] - second) <= 1e-12


@given(five=near_collinear_tuples())
def test_penalty_oracle_never_reads_above_in_the_near_collinear_band(five):
    # a second kernel state can only lower the oracle's minimum, so where the
    # two part the oracle is the one in error
    assert _penalty_minimum(five) <= bounds.bell_constrained_objective(five) + 1e-13


def _objective_line(five, i):
    """``temporal_objective`` along line i, a_i set to x: one objective call per trial."""
    def value(x):
        trial = five.copy()
        trial[i] = x
        return bounds.temporal_objective(trial)
    return value


def _closure_descent(objective, angles, sweeps, tol):
    """``bounds._descend`` as a generic golden-section search per line on
    ``temporal_objective``, one call per trial."""
    angles = np.array(angles, dtype=float)
    previous = objective(angles)
    for performed in range(1, sweeps + 1):
        for i in range(5):
            angles[i] = golden_section_minimize(_objective_line(angles, i), angles[i] - np.pi,
                                                angles[i] + np.pi, tol=min(tol, SEARCH_TOL))
        current = objective(angles)
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return angles, float(previous), performed, converged


@pytest.mark.parametrize("kind", ["drawn", "grid", "collinear", "shifted"])
@given(data=st.data())
def test_temporal_line_is_the_objective_bit_for_bit(kind, data):
    # equality, not a tolerance: the written-out line must steer golden
    # section through the same comparisons as the public objective, which sums
    # numpy cosines; a libm whose cos differs from numpy's fails here first.
    # At 1e-300 the bracket never narrows that far, so both loops stop once a
    # step would leave it unchanged
    five = data.draw(cycle_tuples(kind))
    for tol in (1e-9, 1e-12, 1e-300):
        for i in range(5):
            oracle = golden_section_minimize(_objective_line(five, i), five[i] - np.pi, five[i] + np.pi, tol=tol)
            assert bounds._line_argmin(five.tolist(), i, tol) == oracle


def test_line_argmin_stops_at_the_step_cap(monkeypatch):
    # with all five angles at pi each line's bracket is [0, 2 pi]; the value is
    # flat to round-off near 0, ties keep the left part, so the bracket closes
    # on 0 past any float spacing and the 200-step cap alone ends the loop: one
    # step fewer returns another midpoint, and the line reads the same cap
    five = np.full(5, np.pi)
    for i in range(5):
        line = _objective_line(five, i)
        oracle = golden_section_minimize(line, 0.0, 2 * np.pi, tol=1e-300)
        assert bounds._line_argmin(five.tolist(), i, 1e-300) == oracle
        with monkeypatch.context() as patched:
            patched.setattr(optimize, "MAX_STEPS", 199)
            shorter = golden_section_minimize(line, 0.0, 2 * np.pi, tol=1e-300)
            assert shorter != oracle
            assert bounds._line_argmin(five.tolist(), i, 1e-300) == shorter


def test_line_argmin_stops_once_a_step_would_leave_the_bracket(monkeypatch):
    # at 1e-300 the bracket stops narrowing at its float spacing, about 80
    # steps in; both loops used to run all 200. The line takes nine cosines
    # to start (five fixed terms, two per trial) and two per step
    five = np.array([0.3, 2.9, -1.4, 1.2, -2.6])
    for i in range(5):
        line, trials, cosines = _objective_line(five, i), [], []
        oracle = golden_section_minimize(lambda x: trials.append(x) or line(x), five[i] - np.pi,
                                         five[i] + np.pi, tol=1e-300)
        with monkeypatch.context() as patched:
            counted = SimpleNamespace(pi=math.pi, cos=lambda x: cosines.append(x) or math.cos(x))
            patched.setattr(bounds, "math", counted)
            assert bounds._line_argmin(five.tolist(), i, 1e-300) == oracle
        assert (len(cosines) - 9) // 2 == len(trials) - 2 < optimize.MAX_STEPS // 2


@given(five=angle_tuples(), sweeps=st.sampled_from([1, 5, 40]), tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_descent_is_the_closure_descent_bit_for_bit(five, sweeps, tol):
    descent = bounds._descend(bounds.temporal_objective, five, sweeps, tol)
    oracle = _closure_descent(bounds.temporal_objective, five, sweeps, tol)
    assert (descent[0].tolist(), *descent[1:]) == (oracle[0].tolist(), *oracle[1:])


two_angles = st.floats(-np.pi, np.pi)


def _top_value(u) -> float:
    """5 - 4 lambda_max of sum_i u_i u_i^T, by numpy's eigvalsh."""
    stack = np.array(u)
    return 5.0 - 4.0 * np.linalg.eigvalsh(stack.T @ stack)[-1]


@given(a=two_angles, b=two_angles)
def test_contextual_family_is_a_five_cycle(a, b):
    u = bounds._cycle_vectors(a, b)
    assume(u is not None)
    u = np.array(u)
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-15
    assert max(abs(u[i] @ u[(i + 1) % 5]) for i in range(5)) <= 1e-15


@given(u=five_cycles())
def test_contextual_family_reaches_every_five_cycle(u):
    # R = (u_1; u_0 x u_1; u_0) takes u_0 to e_z and u_1 to e_x; then
    # R u_2 = (0, cos a, sin a) and R u_3 = (cos b, sin b sin a, -sin b cos a)
    # give (a, b), and R leaves the spectrum of sum_i u_i u_i^T unchanged
    rotated = np.array(u) @ np.array([u[1], np.cross(u[0], u[1]), u[0]]).T
    a = np.arctan2(rotated[2, 2], rotated[2, 1])
    x3, y3, z3 = rotated[3]
    b = np.arctan2(y3 * np.sin(a) - z3 * np.cos(a), x3)
    assert abs(bounds._cycle_value(float(a), float(b)) - _top_value(u)) <= 1e-11


@given(a=two_angles, b=two_angles)
@example(a=0.0, b=0.0)  # M = diag(2, 2, 1): the top two eigenvalues meet
@example(a=0.0, b=2.9878618231307454)  # there too, where r rounds to 1 ulp below -1
@example(a=0.666239432373632, b=-0.9045568985841517)  # at the optimum, where r rounds above 1
def test_contextual_family_closed_form_is_eigvalsh(a, b):
    u = bounds._cycle_vectors(a, b)
    assume(u is not None)
    assert abs(bounds._cycle_value(a, b) - _top_value(u)) <= 1e-11


@given(a=two_angles, b=two_angles)
def test_contextual_state_step_is_the_top_eigenvector(a, b):
    u = bounds._cycle_vectors(a, b)
    assume(u is not None)
    value = bounds._cycle_value(a, b)
    psi, objective = bounds._state_step(u, value)
    stack = np.array(u)
    assert np.linalg.norm(stack.T @ stack @ psi - (5 - value) / 4 * np.array(psi)) <= 1e-12
    assert abs(objective - value) <= 1e-14


@pytest.mark.parametrize("resolution", [pytest.param(r, id=f"temporal-{r}")
                                        for r in range(1, bounds.MAX_RESOLUTION + 1)])
def test_coarse_start_is_the_scalar_argmin(resolution):
    # the start both angle searches share, over every resolution they take;
    # bit for bit: a grid that rounds differently from the line search could
    # break the grid's many exact ties another way
    tuples = bounds._coarse_grid_tuples(resolution)
    scalar = np.array([bounds.temporal_objective(t) for t in tuples])
    assert np.array_equal(bounds._cycle_cosines(tuples), scalar)
    assert np.array_equal(bounds._coarse_bell_minimum(resolution), tuples[int(np.argmin(scalar))])


@given(state=states(2), method=st.sampled_from(METHODS))
def test_six_context_sum_is_six(state, method):
    rep = eval_pm(state, method)
    assert abs(rep.sum - 6.0) <= 1e-9
    assert np.max(np.abs(np.subtract(_values(rep), PM_THEORY))) <= 1e-9


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@given(data=st.data())
def test_identity_noise_model_leaves_report_unchanged(name, data):
    qubits, evaluate = EVALUATORS[name]
    state = data.draw(states(qubits))
    theta = data.draw(angles)
    method = data.draw(st.sampled_from(METHODS))
    ideal = evaluate(state, theta, method)
    noisy = evaluate(depolarize(state, 0.0), theta, method)
    out = with_noise(ideal, noisy, NoiseModel(state_depolarizing_p=0.0, block_visibility_v=1.0))
    if not state.is_pure:
        # p = 0 maps a density matrix to itself bit for bit
        assert out == ideal
    assert np.max(np.abs(np.subtract(_values(out), _values(ideal)))) <= 1e-10
    assert out.term_predictions == ideal.term_predictions
    assert abs(out.sum - ideal.sum) <= 1e-10
    assert out.violated == ideal.violated
    assert out.constraints_satisfied == ideal.constraints_satisfied
    assert [label for label, _ in out.terms] == [label for label, _ in ideal.terms]


# The package's unchecked paths, each against its checked counterpart, bit
# for bit: the states it builds without QuantumState's checks, the sequential
# route and pentagon readings that skip the observable-stack check, and the
# visibility products that skip apply_visibility's checks.


def _same_state(got, expected):
    """Equal qubit counts and arrays, byte for byte, stored read-only."""
    assert type(got.qubits) is int and got.qubits == expected.qubits
    for a, b in ((got.amplitudes, expected.amplitudes), (got.rho, expected.rho)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable


@given(data=st.data())
def test_depolarize_equals_its_checked_counterpart_bit_for_bit(data):
    qubits = data.draw(st.integers(1, 3))
    state = data.draw(states(qubits))
    p = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0, 1))))
    d = 2 ** qubits
    _same_state(depolarize(state, p), mixed_state((1 - p) * density_of(state) + p * np.eye(d, dtype=complex) / d))


@given(bits=st.lists(st.sampled_from("01"), min_size=1, max_size=3), numpy_count=st.booleans())
def test_basis_state_equals_its_checked_counterpart_bit_for_bit(bits, numpy_count):
    label = "".join(bits)
    amplitudes = np.zeros(2 ** len(label), dtype=complex)
    amplitudes[int(label, 2)] = 1.0
    n = np.int64(len(label)) if numpy_count else len(label)
    _same_state(basis_state(n, label), pure_state(amplitudes))


def test_bell_phi_plus_equals_its_checked_counterpart_bit_for_bit():
    _same_state(bell_phi_plus(), pure_state(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)))
    assert bell_phi_plus() is bell_phi_plus()


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@given(data=st.data())
def test_sequential_rows_equal_their_checked_counterpart_bit_for_bit(name, data):
    # the report's block stack read by the public, checked chain reading
    qubits, evaluate = EVALUATORS[name]
    state = data.draw(states(qubits, real=data.draw(st.booleans())))
    with mock.patch.object(inequalities, "_spec_values", wraps=inequalities._spec_values) as read:
        report = evaluate(state, data.draw(angles), "sequential")
    [call] = read.call_args_list
    checked = correlator_sequential(state, call.args[1])
    assert [v.hex() for v in _values(report)] == [v.hex() for v in checked.tolist()]


@given(thetas=st.lists(angles, min_size=1, max_size=6))
def test_pentagon_readings_equal_their_checked_counterpart_bit_for_bit(thetas):
    theta = np.array(thetas)
    half = mixed_state(np.eye(2) / 2)
    pairs = inequalities._kcbs_cycle(theta)[..., bounds._PARITY_PAIRS, :, :]
    values = joint_distribution(half, pairs).correlator()
    pairwise = sum(values[..., m] for m in bounds._PAIR_PARITY)
    dist = joint_distribution(half, inequalities._kcbs_cycle(theta))
    invasive = sum(dist.correlator(pair) for pair in inequalities._PENTAGON_PAIRS)
    assert bounds.pentagon_pairwise_value(theta).tobytes() == pairwise.tobytes()
    assert bounds.pentagon_invasive_value(theta).tobytes() == invasive.tobytes()


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@given(data=st.data())
def test_with_noise_equals_its_checked_counterpart_bit_for_bit(name, data):
    # each term and side condition against apply_visibility of its value
    qubits, evaluate = EVALUATORS[name]
    state, theta = data.draw(states(qubits)), data.draw(angles)
    method = data.draw(st.sampled_from(METHODS))
    p = data.draw(st.sampled_from((0.0, 0.1, data.draw(st.floats(0.0, 1.0)))))
    v = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0, 1, np.float64(0.9)))))
    ideal = evaluate(state, theta, method)
    noisy = ideal if p == 0 else evaluate(depolarize(state, p), theta, method)
    out = with_noise(ideal, noisy, NoiseModel(state_depolarizing_p=p, block_visibility_v=v))
    terms = [apply_visibility(value, blocks, v) for (_, value), blocks in zip(noisy.terms, noisy.blocks_per_term)]
    assert [x.hex() for _, x in out.terms] == [x.hex() for x in terms]
    sides = [apply_visibility(value, 1, v) for _, value in noisy.constraints or ()]
    assert [x.hex() for _, x in out.constraints or ()] == [x.hex() for x in sides]


@st.composite
def valid_matrices(draw, kind, qubits):
    """A drawn matrix on ``qubits`` qubits: a Haar unitary, a Haar rotation of
    Z x I, or the density matrix of a drawn state."""
    if kind == "hermitian":
        return density_of(draw(states(qubits)))
    u = haar_random_unitary(2 ** qubits, np.random.default_rng(draw(seeds)))
    if kind == "unitary":
        return u
    return u @ np.kron(PAULI_Z, np.eye(2 ** (qubits - 1))) @ u.conj().T


def _scaled(m):
    return m * (1 + 1e-6)


def _skewed(m):
    m = m.copy()
    m[0, 1] += 1e-6
    return m


# constructor -> (kind, qubit counts, build from (matrix, qubits), property
# breaks, whether the constructor fixes the matrix size)
MATRIX_INPUTS = {
    "GateOp": ("unitary", (1, 2), lambda m, n: GateOp("U", m, tuple(range(n))), (_scaled,), True),
    "TimeSlot observable": ("dichotomic", (1,), lambda m, n: TimeSlot((m,), PAULI_I),
                            (_scaled, _skewed), True),
    "TimeSlot evolution": ("unitary", (1, 2), lambda m, n: TimeSlot((PAULI_Z,) * n, m), (_scaled,), True),
    "Observable": ("dichotomic", (1, 2), lambda m, n: Observable(m, "O"), (_scaled, _skewed), False),
    "QuantumState": ("hermitian", (1, 2), lambda m, n: QuantumState(qubits=n, rho=m), (_skewed,), True),
}


@pytest.mark.parametrize("name", sorted(MATRIX_INPUTS))
@given(data=st.data())
def test_each_stored_matrix_is_validated_the_same_way(name, data):
    kind, sizes, build, breaks, fixed_size = MATRIX_INPUTS[name]
    n = data.draw(st.sampled_from(sizes))
    m = data.draw(valid_matrices(kind, n))
    build(m, n)

    bad = m.copy()
    bad[data.draw(st.integers(0, len(m) - 1)), data.draw(st.integers(0, len(m) - 1))] = data.draw(
        st.sampled_from((np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf)))
    with pytest.raises(ValueError, match="non-finite"):
        build(bad, n)

    reshapes = [lambda a: a[:, :-1], lambda a: a[None], lambda a: a[:0]]
    if fixed_size:
        reshapes.append(lambda a: np.kron(a, PAULI_I))
    with pytest.raises(ValueError, match="shape"):
        build(data.draw(st.sampled_from(reshapes))(m), n)

    with pytest.raises(ValueError, match="unitary|Hermitian|identity"):
        build(data.draw(st.sampled_from(breaks))(m), n)
