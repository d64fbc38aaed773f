import re
import warnings
from unittest import mock

import numpy as np
import pytest

from contextsim import sequential
from contextsim.inequalities import (
    METHODS,
    Observable,
    _spec_values,
    eval_kcbs_temporal,
    pm_observable,
    sigma_theta,
)
from contextsim.linalg import ATOL, ATOL_DICHOTOMIC, ATOL_STATE_PSD, PAULI_X, PAULI_Z
from contextsim.scattering import (
    TemporalCorrelationSpec,
    correlator_direct,
    heisenberg_observable,
    random_correlation_spec,
    random_dichotomic,
    slot,
)
from contextsim.sequential import (
    OutcomeDistribution,
    correlator_sequential,
    joint_distribution,
    luders_measure,
)
from contextsim.states import (
    QuantumState,
    basis_state,
    density_of,
    haar_random_state,
    mixed_state,
    pure_state,
)

Z_OBS = Observable(matrix=PAULI_Z, label="Z")
X_OBS = Observable(matrix=PAULI_X, label="X")


def two_time_formula(state, x, y):
    """Oracle for a two-measurement chain: 0.5 * Re tr(rho {X, Y})."""
    return float(0.5 * np.trace(density_of(state) @ (x @ y + y @ x)).real)


def _stack(state):
    """A one-branch stack holding the state's density matrix."""
    return density_of(state)[None]


def _pair(obs):
    """The projector pair (I + O)/2, (I - O)/2 of each observable of a
    ``batch + (d, d)`` stack, as ``luders_measure`` takes it."""
    obs = np.asarray(obs)
    return (np.eye(obs.shape[-1]) + np.array([1.0, -1.0])[:, None, None] * obs[..., None, :, :]) / 2


def _outcomes(dist):
    """(outcome tuple, probability) pairs; index 0 is +1 and index 1 is -1."""
    for idx in np.ndindex(dist.probabilities.shape):
        yield tuple(1 - 2 * i for i in idx), dist.probabilities[idx]


class TestLudersMeasure:
    """``luders_measure`` is the unchecked chain step; the chains it runs on
    are rejected by ``joint_distribution``, which checks them once."""

    def test_deterministic_branch(self):
        branches = luders_measure(_stack(basis_state(1, "0")), _pair(PAULI_Z))
        assert branches.shape == (2, 2, 2)
        assert np.trace(branches[0]).real == pytest.approx(1.0, abs=1e-12)
        # the impossible -1 outcome is a zero matrix, not a dropped branch
        assert np.array_equal(branches[1], np.zeros((2, 2)))

    def test_x_on_zero_gives_plus_minus(self):
        branches = luders_measure(_stack(basis_state(1, "0")), _pair(PAULI_X))
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        # projector algebra oracle: the branches are the |+-| projectors,
        # each weighted by its probability 1/2
        assert np.allclose(branches[0], plus / 2)
        assert np.allclose(branches[1], minus / 2)
        assert np.trace(branches[0]).real == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_is_unbiased(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            branches = luders_measure(_stack(mixed_state(np.eye(2) / 2)), _pair(random_dichotomic(rng)))
            traces = np.trace(branches, axis1=1, axis2=2).real
            assert traces == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_stack_order_follows_outcome_tuples(self):
        # Z then X on |0>: (+1, +1) and (+1, -1) carry 1/2 each; the
        # branches that start with -1 are zero
        branches = luders_measure(luders_measure(_stack(basis_state(1, "0")), _pair(PAULI_Z)), _pair(PAULI_X))
        traces = np.trace(branches, axis1=1, axis2=2).real
        assert traces == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)

    def test_dimension_mismatch(self):
        for chain in ((PAULI_Z,), (PAULI_Z, PAULI_X)):
            with pytest.raises(ValueError, match="dimension"):
                joint_distribution(basis_state(2, "00"), chain)

    def test_non_dichotomic_observable_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            correlator_sequential(basis_state(1, "1"), (np.diag([1, 0.5]),))
        with pytest.raises(ValueError, match="identity"):
            joint_distribution(basis_state(1, "1"), (Z_OBS, X_OBS, 2 * PAULI_Z))
        with pytest.raises(ValueError, match="Hermitian"):
            joint_distribution(basis_state(1, "0"), (Z_OBS, np.array([[0, 1], [0, 0]])))


class TestPublicReadingsRefuseBadStacks:
    """The cases ``TestLudersMeasure`` leaves out: the full-product readings
    check the stack they are given, as ``joint_distribution`` does."""

    NON_HERMITIAN = np.array([[0, 1], [0, 0]])

    @pytest.mark.parametrize("stack, match", [
        (np.array([[PAULI_Z, PAULI_X], [PAULI_X, NON_HERMITIAN]]), "Hermitian"),
        (np.array([[PAULI_Z, PAULI_X], [PAULI_X, np.diag([1, 0.5])]]), "identity"),
        (np.kron(PAULI_Z, PAULI_Z)[None, None], "dimension"),
        (np.empty((0, 2, 4, 4)), "dimension"),
    ], ids=["non-hermitian", "non-dichotomic", "mismatched", "mismatched empty batch"])
    def test_stack_call(self, stack, match):
        with pytest.raises(ValueError, match=match):
            correlator_sequential(basis_state(1, "0"), stack)

    @pytest.mark.parametrize("chain, match", [
        ((PAULI_Z, NON_HERMITIAN), "Hermitian"),
        ((np.kron(PAULI_Z, PAULI_Z),), "dimension"),
    ], ids=["non-hermitian", "mismatched"])
    def test_single_chain(self, chain, match):
        with pytest.raises(ValueError, match=match):
            correlator_sequential(basis_state(1, "0"), chain)


class TestJointDistribution:
    def test_repeated_z_on_zero(self):
        dist = joint_distribution(basis_state(1, "0"), (Z_OBS, Z_OBS))
        assert dist.probabilities[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_row_support_has_product_plus_one(self):
        seq = tuple(pm_observable(k) for k in ("A", "B", "C"))
        for seed in range(5):
            dist = joint_distribution(haar_random_state(2, np.random.default_rng(seed)), seq)
            for outcome, p in _outcomes(dist):
                if p > 1e-12:
                    assert outcome[0] * outcome[1] * outcome[2] == 1

    def test_column_support_has_product_minus_one(self):
        seq = tuple(pm_observable(k) for k in ("gamma", "c", "C"))
        for seed in range(5):
            dist = joint_distribution(haar_random_state(2, np.random.default_rng(50 + seed)), seq)
            for outcome, p in _outcomes(dist):
                if p > 1e-12:
                    assert outcome[0] * outcome[1] * outcome[2] == -1

    def test_marginal_consistency(self):
        rng = np.random.default_rng(1)
        state = haar_random_state(1, rng)
        seq = tuple(
            Observable(matrix=random_dichotomic(rng), label=f"O{k}")
            for k in range(3)
        )
        full = joint_distribution(state, seq)
        for k in (1, 2):
            prefix = joint_distribution(state, seq[:k])
            folded = full.probabilities.sum(axis=tuple(range(k, 3)))
            assert np.allclose(folded, prefix.probabilities, atol=1e-10, rtol=0)

    def test_table_covers_all_tuples(self):
        dist = joint_distribution(basis_state(1, "0"), (Z_OBS, X_OBS))
        assert dist.probabilities.shape == (2, 2)
        assert np.allclose(dist.probabilities, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12, rtol=0)

    def test_pair_correlator_reads_the_chosen_axes(self):
        # Z, X, Z on |0>: the first Z reads +1 for sure and X is unbiased;
        # X leaves |+-> behind, so the last Z is unbiased too and
        # <x1 x3> = 0 although both measure Z
        dist = joint_distribution(basis_state(1, "0"), (Z_OBS, X_OBS, Z_OBS))
        assert dist.correlator((0,)) == pytest.approx(1.0, abs=1e-12)
        assert dist.correlator((1,)) == pytest.approx(0.0, abs=1e-12)
        assert dist.correlator((0, 2)) == pytest.approx(0.0, abs=1e-12)
        assert dist.correlator((1, 2)) == pytest.approx(0.0, abs=1e-12)
        assert dist.correlator(()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("axes", [(2,), (0, 2), (-1,), (True,), (0.0,), ("0",)])
    def test_axis_outside_the_chain_refused(self, axes):
        # unchecked, einsum reads axis 2 of a two-measurement chain as a free
        # index summed over the signs (0.0), and True as axis 1
        dist = joint_distribution(basis_state(1, "0"), (Z_OBS, X_OBS))
        with pytest.raises(ValueError, match="outcome axis"):
            dist.correlator(axes)

    @pytest.mark.parametrize("axes", [5, 1.0, np.array(1)])
    def test_axes_that_are_no_sequence_are_named(self, axes):
        # iterating over 5 raised TypeError: 'int' object is not iterable
        dist = joint_distribution(basis_state(1, "0"), (Z_OBS, X_OBS))
        with pytest.raises(ValueError, match=re.escape(f"outcome axes must be a sequence of integers, got {axes!r}")):
            dist.correlator(axes)


class TestCorrelatorSequential:
    def test_matches_two_time_formula_on_random_pairs(self):
        for seed in range(100):
            rng = np.random.default_rng(4000 + seed)
            state = haar_random_state(1, rng)
            x, y = random_dichotomic(rng), random_dichotomic(rng)
            gap = abs(correlator_sequential(state, (x, y)) - two_time_formula(state, x, y))
            assert gap < 1e-10

    def test_commuting_triple_deterministic(self):
        seq = tuple(pm_observable(k) for k in ("A", "alpha", "a"))
        assert correlator_sequential(basis_state(2, "00"), seq) == pytest.approx(1.0, abs=1e-12)

    def test_zxz_on_zero_vanishes(self):
        # branch tree by hand: Z gives +1; X splits 1/2 each onto |+->;
        # the final Z splits 1/2 each again, so the signed sum cancels
        value = correlator_sequential(basis_state(1, "0"), (Z_OBS, X_OBS, Z_OBS))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_invasive_differs_from_plain_operator_product(self):
        # (X, Z, X) on |0>: the chain gives 0 while Re tr(rho XZX) = -1
        state = basis_state(1, "0")
        seq_value = correlator_sequential(state, (X_OBS, Z_OBS, X_OBS))
        direct = float(
            np.trace(density_of(state) @ PAULI_X @ PAULI_Z @ PAULI_X).real
        )
        assert seq_value == pytest.approx(0.0, abs=1e-12)
        assert direct == pytest.approx(-1.0, abs=1e-12)


class TestTwoTimeFormula:
    """Two-measurement chains of qubit observables give the state-independent
    values of 0.5 * Re tr(rho {X, Y})."""

    def test_z_with_rotated_direction_gives_cosine(self):
        for theta in np.linspace(0, 2 * np.pi, 9):
            obs = sigma_theta(float(theta))
            for seed in range(3):
                state = haar_random_state(1, np.random.default_rng(seed))
                assert correlator_sequential(state, (Z_OBS, obs)) == pytest.approx(
                    np.cos(theta), abs=1e-12
                )

    def test_like_pair_gives_one(self):
        state = haar_random_state(1, np.random.default_rng(5))
        assert correlator_sequential(state, (Z_OBS, Z_OBS)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_vanishes(self):
        state = haar_random_state(1, np.random.default_rng(6))
        assert correlator_sequential(state, (Z_OBS, X_OBS)) == pytest.approx(0.0, abs=1e-12)

    def test_formula_is_half_anticommutator_trace(self):
        # Re tr(rho X Y) = 0.5 tr(rho {X, Y}) for Hermitian X, Y: the formula
        # is the direct route on a two-slot spec
        state = haar_random_state(2, np.random.default_rng(7))
        spec = random_correlation_spec(2, 2, np.random.default_rng(8))
        x, y = (heisenberg_observable(s) for s in spec.slots)
        assert correlator_direct(state, spec) == pytest.approx(
            two_time_formula(state, x, y), abs=1e-12
        )


class TestOutcomeDistributionValidation:
    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            OutcomeDistribution(observables=(Z_OBS,), probabilities=[1.0])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(observables=(Z_OBS,), probabilities=[0.7, 0.7])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(observables=(Z_OBS,), probabilities=[1.5, -0.5])

    def test_nan_probabilities_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(observables=(PAULI_Z,), probabilities=[np.nan, np.nan])
        with pytest.raises(ValueError):
            OutcomeDistribution(observables=(PAULI_Z,), probabilities=[np.nan, 1.0])

    def test_every_distribution_of_a_batch_checked(self):
        obs = np.stack([PAULI_Z, PAULI_X])[:, None]  # batch (2,), one measurement each
        OutcomeDistribution(observables=obs, probabilities=[[1.0, 0.0], [0.5, 0.5]])
        for bad in ([[1.0, 0.0], [0.7, 0.7]], [[1.0, 0.0], [1.5, -0.5]], [[np.nan, 1.0], [0.5, 0.5]]):
            with pytest.raises(ValueError):
                OutcomeDistribution(observables=obs, probabilities=bad)
        with pytest.raises(ValueError, match="shape"):
            OutcomeDistribution(observables=obs, probabilities=[1.0, 0.0])

    def test_chain_of_admitted_slots_reads_on_every_route(self):
        # each step on Z (1 + 4.9e-11) adds ((1 + 4.9e-11)^2 - 1)/2 to the
        # total trace: three of them put the sum 1.47e-10 from 1, past the
        # state's own normalization tolerance ATOL
        z = PAULI_Z * (1 + 4.9e-11)
        spec = TemporalCorrelationSpec(1, tuple(slot((o,)) for o in (z, PAULI_X) * 3))
        dist = joint_distribution(basis_state(1, "0"), tuple(s.block for s in spec.slots))
        assert abs(dist.probabilities.sum() - 1) > ATOL
        for method in METHODS:
            [value] = _spec_values(basis_state(1, "0"), spec.blocks[None], method)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_state_at_the_eigenvalue_floor_reads_on_every_route(self):
        # the boundary admits eigenvalues down to -ATOL_STATE_PSD; a Z slot
        # then reads the negative eigenvalue as a probability
        state = QuantumState(qubits=1, rho=np.diag([1 + 5e-10, -5e-10]))
        spec = TemporalCorrelationSpec(1, (slot((PAULI_Z,)),))
        for method in METHODS:
            assert _spec_values(state, spec.blocks[None], method) == [pytest.approx(1 + 1e-9, abs=1e-15)]
            report = eval_kcbs_temporal(state, 2.5, method)
            assert report.sum == pytest.approx(1 + 4 * np.cos(2.5), abs=1e-8)
        assert correlator_sequential(state, (PAULI_Z,)) == pytest.approx(1 + 1e-9, abs=1e-15)

    def test_probability_below_the_floor_rejected(self):
        # a one-qubit state admits at most 2 * ATOL_STATE_PSD below 0
        OutcomeDistribution(observables=(PAULI_Z,), probabilities=[1 + 1.9e-9, -1.9e-9])
        with pytest.raises(ValueError, match="negative probability"):
            OutcomeDistribution(observables=(PAULI_Z,), probabilities=[1 + 2.1e-9, -2.1e-9])

    @pytest.mark.parametrize("qubits, length", [(1, 2), (2, 3), (3, 5)])
    def test_sum_bound_is_reached_by_an_admitted_chain(self, qubits, length):
        # O = I + c J (J all ones, J^2 = d J) squares to I + eps J, whose
        # entries the boundary admits and whose norm is d eps; on the
        # all-ones state, an eigenvector of O with eigenvalue
        # lam = sqrt(1 + d eps), each step scales the total trace by
        # 1 + d eps / 2: the branch stack's k steps, the last one read by the
        # Born rule, and the pair's k - 1 before its last measurement
        d, eps = 2 ** qubits, 0.99 * ATOL_DICHOTOMIC
        o = np.eye(d) + (np.sqrt(1 + d * eps) - 1) / d * np.ones((d, d))
        state = pure_state(np.ones(d) / np.sqrt(d))
        dist = joint_distribution(state, (o,) * length)
        total = (1 + d * eps / 2) ** length
        assert dist.probabilities.sum() == pytest.approx(total, abs=1e-14)
        assert total - 1 > ATOL
        # S carries lam^(k - 1) and U (1 + d eps / 2)^(k - 1) to the last step, read as tr(O S)
        pair_total = (1 + d * eps / 2) ** (length - 1)
        assert pair_total - 1 > ATOL
        # the pair's tolerance admits its own total and refuses the branch stack's
        sequential._check_sums(np.float64(pair_total), d, length - 1)
        with pytest.raises(ValueError, match="^probabilities sum to"):
            sequential._check_sums(np.float64(total), d, length - 1)
        assert correlator_sequential(state, (o,) * length) == pytest.approx((1 + d * eps) ** (length / 2), abs=1e-14)

    def test_state_and_observable_at_their_boundaries_read(self):
        # rho = (1 + 7 delta)|u><u| - delta (I - |u><u|) on three qubits and
        # O = -I + (1 + lam)|u><u|, lam = sqrt(1 + 8 eps): both admitted. The
        # last outcome -1 reads tr(P-^2 rho) = (1 + 7 delta)(lam - 1)^2 / 4
        # - 7 delta, within the floor 8 ATOL_STATE_PSD; off (I - O)/2, whose
        # eigenvalue on u is (1 - lam)/2, it would read 2 eps lower, past it
        d, delta, eps = 8, 0.99 * ATOL_STATE_PSD, 0.99 * ATOL_DICHOTOMIC
        lam, u = np.sqrt(1 + d * eps), np.ones((d, 1)) / np.sqrt(d)
        state = QuantumState(qubits=3, rho=(1 + d * delta) * u @ u.T - delta * np.eye(d))
        o = -np.eye(d) + (1 + lam) * u @ u.T
        dist = joint_distribution(state, (o,))
        assert dist.probabilities[1] == pytest.approx(-7 * delta, abs=1e-15)
        assert -7 * delta - 2 * eps < -sequential._probability_floor(d, 1)
        for chain in ((o,), (np.kron(PAULI_Z, np.eye(4)), o)):
            value = correlator_sequential(state, chain)
            assert joint_distribution(state, chain).correlator() == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("chains", [(PAULI_Z, PAULI_X), (PAULI_Z, PAULI_X, PAULI_Z),
                                        np.stack([[PAULI_Z, PAULI_X], [PAULI_X, PAULI_Z]])])
    def test_full_product_reading_checks_the_carried_total(self, chains):
        # a step that adds 1 % of weight moves the unsigned trace, the total
        # probability, past its tolerance; the last measurement takes no step
        step = luders_measure
        with mock.patch.object(sequential, "luders_measure", lambda pair, proj: 1.01 * step(pair, proj)):
            with pytest.raises(ValueError, match="sum to"):
                correlator_sequential(basis_state(1, "0"), chains)

    def test_full_product_reading_bounds_the_correlator_by_the_total(self):
        # Z, Z, Z on |0>: doubling P+ S P+ in the pair's second split reads
        # the correlator as 2 with the total still 1
        step, weights, calls = luders_measure, np.array([2.0, 1.0, 1.0, 1.0])[:, None, None], []

        def weighted(pair, proj):
            calls.append(pair.shape)
            return (weights if len(calls) == 2 else 1.0) * step(pair, proj)

        with mock.patch.object(sequential, "luders_measure", weighted):
            with pytest.raises(ValueError, match="exceeds the total probability"):
                correlator_sequential(basis_state(1, "0"), (PAULI_Z,) * 3)
        assert calls == [(1, 2, 2), (2, 2, 2)]


class TestNonFiniteObservables:
    # a NaN only in the real part leaves the chain real, a NaN only in the
    # imaginary part makes it complex: both are rejected before any step
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, 1j * np.nan, complex(np.nan, 0.0), complex(0.0, np.nan)]
    )
    def test_single_chain(self, bad):
        m = np.array([[bad, 0], [0, 1]], dtype=complex)
        for chain in ((m,), (PAULI_Z, m), (PAULI_Z, PAULI_X, m, PAULI_Z)):
            with pytest.raises(ValueError, match="non-finite"):
                correlator_sequential(basis_state(1, "0"), chain)

    @pytest.mark.parametrize("position", [(0, 0, 0), (1, 2, 1), (2, 1, 2)])
    def test_any_batch_position(self, position):
        for bad in (np.nan, complex(-1.0, np.nan)):
            obs = np.broadcast_to(PAULI_Z, (3, 3, 3, 2, 2)).copy()
            obs[position + (1, 1)] = bad
            with pytest.raises(ValueError, match="non-finite"):
                joint_distribution(basis_state(1, "0"), obs)


class TestBatchAxis:
    def test_batch_of_chains_matches_each_chain(self):
        rng = np.random.default_rng(9)
        obs = np.array([[random_dichotomic(rng) for _ in range(3)] for _ in range(4)]).reshape(2, 2, 3, 2, 2)
        state = haar_random_state(1, rng)
        dist = joint_distribution(state, obs)
        assert dist.probabilities.shape == (2, 2, 2, 2, 2)
        values = correlator_sequential(state, obs)
        pair = dist.correlator((0, 2))
        assert values.shape == pair.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            one = joint_distribution(state, tuple(obs[idx]))
            assert np.max(np.abs(dist.probabilities[idx] - one.probabilities)) <= 1e-15
            assert values[idx] == pytest.approx(one.correlator(), abs=1e-15)
            assert pair[idx] == pytest.approx(one.correlator((0, 2)), abs=1e-15)

    def test_single_chain_gives_a_float(self):
        value = correlator_sequential(basis_state(1, "0"), (PAULI_Z, PAULI_X))
        assert type(value) is float
        assert type(joint_distribution(basis_state(1, "0"), (PAULI_Z,)).correlator((0,))) is float

    def test_luders_measure_splits_each_chain(self):
        # chain 0 measures Z and chain 1 measures X on |0>
        branches = luders_measure(_stack(basis_state(1, "0")), _pair(np.stack([PAULI_Z, PAULI_X])))
        assert branches.shape == (2, 2, 2, 2)
        traces = np.trace(branches, axis1=-2, axis2=-1).real
        assert np.allclose(traces, [[1.0, 0.0], [0.5, 0.5]], atol=1e-12, rtol=0)

    def test_observables_must_be_a_stack(self):
        with pytest.raises(ValueError, match="shape"):
            joint_distribution(basis_state(1, "0"), PAULI_Z)

    @pytest.mark.parametrize("read, value", [(correlator_sequential, 5), (joint_distribution, None)])
    def test_a_value_that_is_no_stack_is_named(self, read, value):
        # a lone number or None is read by the array rule and shown as passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^observables must have shape .*, got {value!r}$"):
                read(basis_state(1, "0"), value)

    def test_only_a_list_or_tuple_is_stacked(self):
        with pytest.raises(ValueError, match=re.escape("observables cannot be read as an array of numbers")):
            correlator_sequential(basis_state(1, "0"), (obs for obs in (PAULI_Z, PAULI_Z)))
        assert correlator_sequential(basis_state(1, "0"), [PAULI_Z, PAULI_Z]) == 1.0

    def test_empty_chain_is_certain(self):
        dist = joint_distribution(basis_state(1, "0"), ())
        assert dist.probabilities.shape == ()
        assert dist.correlator() == 1.0
