import dataclasses

import numpy as np
import pytest

from contextsim import inequalities
from contextsim.inequalities import (
    CONSTRAINT_ATOL,
    METHODS,
    InequalityReport,
    Observable,
    PM_CONTEXTS,
    PM_SIGNS,
    classical_bound,
    eval_kcbs_temporal,
    eval_pentagon_lg,
    eval_pm,
    eval_transformed_bell,
    is_violated,
    pentagram_observable,
    pm_observable,
    sigma_theta,
)
from contextsim.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, sigma_theta_matrix
from contextsim.noise import NoiseModel, depolarize
from contextsim.report import with_noise
from contextsim.sequential import correlator_sequential
from contextsim.states import (
    basis_state,
    bell_phi_plus,
    density_of,
    haar_random_state,
    mixed_state,
)

PM_THEORY = (1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


class TestSigmaTheta:
    def test_zero_is_z(self):
        assert np.allclose(sigma_theta(0.0).matrix, PAULI_Z)

    def test_right_angle_is_x(self):
        assert np.allclose(sigma_theta(np.pi / 2).matrix, PAULI_X, atol=1e-12)

    def test_three_quarters_direction_is_dichotomic(self):
        theta = float(np.arccos(-0.75))
        assert np.allclose(np.linalg.eigvalsh(sigma_theta(theta).matrix), [-1, 1], atol=1e-12)


class TestSquareFamily:
    def test_entries_match_hand_built_products(self):
        expected = {
            "A": np.kron(PAULI_Z, PAULI_I),
            "B": np.kron(PAULI_I, PAULI_Z),
            "C": np.kron(PAULI_Z, PAULI_Z),
            "a": np.kron(PAULI_I, PAULI_X),
            "b": np.kron(PAULI_X, PAULI_I),
            "c": np.kron(PAULI_X, PAULI_X),
            "alpha": np.kron(PAULI_Z, PAULI_X),
            "beta": np.kron(PAULI_X, PAULI_Z),
            "gamma": np.kron(PAULI_Y, PAULI_Y),
        }
        for label, matrix in expected.items():
            m = pm_observable(label).matrix
            assert np.allclose(m, matrix)
            assert np.allclose(m @ m, np.eye(4))

    def test_rows_and_columns_commute(self):
        labels = [["A", "B", "C"], ["a", "b", "c"], ["alpha", "beta", "gamma"]]
        lines = labels + [list(col) for col in zip(*labels)]
        for line in lines:
            mats = [pm_observable(k).matrix for k in line]
            for i in range(3):
                for j in range(i + 1, 3):
                    comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                    assert np.max(np.abs(comm)) < 1e-12

    def test_row_product_is_identity(self):
        a, b, c = (pm_observable(k).matrix for k in ("A", "B", "C"))
        assert np.allclose(a @ b @ c, np.eye(4))

    def test_column_product_is_minus_identity(self):
        g, c, cc = (pm_observable(k).matrix for k in ("gamma", "c", "C"))
        assert np.allclose(g @ c @ cc, -np.eye(4))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            pm_observable("delta")


class TestEvalPm:
    def test_basis_state_all_methods(self):
        for method in METHODS:
            rep = eval_pm(basis_state(2, "00"), method)
            assert rep.sum == pytest.approx(6.0, abs=1e-12)
            for (_, value), theory in zip(rep.terms, PM_THEORY):
                assert value == pytest.approx(theory, abs=1e-12)
            assert rep.violated and rep.classical_bound == 4.0 and rep.bound_direction == "<="

    def test_maximally_mixed(self):
        rep = eval_pm(mixed_state(np.eye(4) / 4), "direct")
        assert rep.sum == pytest.approx(6.0, abs=1e-12)

    def test_state_independence_over_seeds(self):
        for seed in range(100):
            rep = eval_pm(haar_random_state(2, np.random.default_rng(seed)), "direct")
            assert rep.sum == pytest.approx(6.0, abs=1e-9)

    def test_pseudopure_keeps_the_value(self):
        for eps in (0.0, 0.25, 1.0):
            rep = eval_pm(depolarize(basis_state(2, "00"), 1 - eps), "sequential")
            assert rep.sum == pytest.approx(6.0, abs=1e-9)

    def test_sequence_order_irrelevant_for_commuting_contexts(self):
        state = haar_random_state(2, np.random.default_rng(17))
        for seq in PM_CONTEXTS:
            value = correlator_sequential(state, tuple(pm_observable(k) for k in seq))
            for perm in ((2, 1, 0), (1, 2, 0)):
                shuffled = tuple(pm_observable(seq[i]) for i in perm)
                assert correlator_sequential(state, shuffled) == pytest.approx(value, abs=1e-10)

    def test_wrong_register_size(self):
        with pytest.raises(ValueError):
            eval_pm(basis_state(1, "0"), "direct")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match=r"^unknown method 'teleport'; expected one of \('scattering', "):
            eval_pm(basis_state(2, "00"), "teleport")


class TestEvalKcbs:
    def test_theta_zero_sum_is_five(self):
        rep = eval_kcbs_temporal(basis_state(1, "0"), 0.0, "sequential")
        assert rep.sum == pytest.approx(5.0, abs=1e-12)
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in rep.terms)

    def test_closed_form_across_angles(self):
        state = haar_random_state(1, np.random.default_rng(2))
        for theta in np.linspace(0, 2 * np.pi, 21):
            rep = eval_kcbs_temporal(state, float(theta), "sequential")
            assert rep.sum == pytest.approx(1 + 4 * np.cos(theta), abs=1e-9)

    def test_saturates_but_never_beats_classical_floor(self):
        rep = eval_kcbs_temporal(basis_state(1, "0"), np.pi, "sequential")
        assert rep.sum == pytest.approx(-3.0, abs=1e-12)
        assert not rep.violated

    def test_methods_agree(self):
        theta = float(np.arccos(-0.75))
        state = haar_random_state(1, np.random.default_rng(3))
        sums = [eval_kcbs_temporal(state, theta, m).sum for m in METHODS]
        assert max(sums) - min(sums) < 1e-9


class TestEvalPentagon:
    def test_theta_zero_sum_is_ten(self):
        rep = eval_pentagon_lg(basis_state(1, "0"), 0.0, "sequential")
        assert rep.sum == pytest.approx(10.0, abs=1e-12)
        assert len(rep.terms) == 10

    def test_pair_census_closed_form(self):
        state = haar_random_state(1, np.random.default_rng(4))
        for theta in np.linspace(0, 2 * np.pi, 13):
            rep = eval_pentagon_lg(state, float(theta), "sequential")
            assert rep.sum == pytest.approx(4 + 6 * np.cos(theta), abs=1e-9)

    def test_value_at_cos_minus_three_quarters(self):
        theta = float(np.arccos(-0.75))
        rep = eval_pentagon_lg(basis_state(1, "0"), theta, "sequential")
        assert rep.sum == pytest.approx(-0.5, abs=1e-9)
        assert not rep.violated  # -0.5 does not beat the -2 floor

    def test_bound_metadata(self):
        rep = eval_pentagon_lg(basis_state(1, "0"), 1.0, "direct")
        assert rep.classical_bound == -2.0 and rep.bound_direction == ">="


class TestThetaChecked:
    @pytest.mark.parametrize("evaluate", [eval_kcbs_temporal, eval_pentagon_lg])
    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"), "2.5", True])
    def test_bad_theta_refused_by_name(self, evaluate, theta):
        # refused before any numpy call: a RuntimeWarning would fail this test
        with pytest.raises(ValueError, match="theta"):
            evaluate(basis_state(1, "0"), theta, "direct")

    @pytest.mark.parametrize("evaluate", [eval_kcbs_temporal, eval_pentagon_lg])
    def test_integer_and_numpy_angles_read_as_floats(self, evaluate):
        state = basis_state(1, "0")
        assert evaluate(state, 2, "direct") == evaluate(state, 2.0, "direct")
        assert evaluate(state, np.float64(2.5), "direct") == evaluate(state, 2.5, "direct")


class TestPentagram:
    def test_j_zero_is_z(self):
        assert np.allclose(pentagram_observable(0).matrix, PAULI_Z)

    def test_neighbor_trace_overlap(self):
        # 2x2 trace oracle for the angle between consecutive directions
        for j in range(5):
            a = pentagram_observable(j).matrix
            b = pentagram_observable((j + 1) % 5).matrix
            assert np.trace(a @ b).real / 2 == pytest.approx(np.cos(4 * np.pi / 5), abs=1e-12)

    def test_unit_spectrum(self):
        for j in range(5):
            assert np.allclose(np.linalg.eigvalsh(pentagram_observable(j).matrix), [-1, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pentagram_observable(5)


class TestOneCycle:
    """Every cycle, pentagram and Bell block is ``linalg.sigma_theta_matrix``."""

    @pytest.mark.parametrize("j", range(5))
    def test_pentagram_observable_is_sigma_theta_at_its_angle(self, j):
        assert pentagram_observable(j).matrix.tobytes() == sigma_theta_matrix(-4 * np.pi * j / 5).tobytes()

    def test_every_block_is_the_one_sigma(self, monkeypatch):
        # a cycle is one call on its (..., 5) angles; the pentagram directions
        # and the Bell terms read the stack built at import, with no call
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return sigma_theta_matrix(theta)

        monkeypatch.setattr(inequalities, "sigma_theta_matrix", counted)
        inequalities._kcbs_cycle(np.array([0.3, 1.2]))
        pentagram_observable(2)
        inequalities._bell_term(1, 2)
        assert calls == [(2, 5)]


class TestEvalTransformedBell:
    def test_optimal_state_all_methods(self):
        expected = float(np.cos(4 * np.pi / 5))
        for method in METHODS:
            rep = eval_transformed_bell(bell_phi_plus(), method)
            for _, value in rep.terms:
                assert value == pytest.approx(expected, abs=1e-9)
            assert rep.sum == pytest.approx(5 * expected, abs=1e-8)
            assert all(v == pytest.approx(1.0, abs=1e-9) for _, v in rep.constraints)
            assert rep.constraints_satisfied
            assert rep.violated and rep.classical_bound == -3.0 and rep.bound_direction == ">="

    def test_product_state_factorizes(self):
        # product-state oracle: <A_r B_q> on |00> equals the product of the
        # single-qubit expectations, computed via an independent trace
        rep = eval_transformed_bell(basis_state(2, "00"), "direct")
        rho = density_of(basis_state(2, "00"))
        for (label, value), r in zip(rep.terms, range(5)):
            q = (r + 1) % 5
            op = np.kron(pentagram_observable(r).matrix, pentagram_observable(q).matrix)
            oracle = float(np.trace(rho @ op).real)
            single = float(np.cos(4 * np.pi * r / 5) * np.cos(4 * np.pi * q / 5))
            assert value == pytest.approx(oracle, abs=1e-12)
            assert value == pytest.approx(single, abs=1e-12)
        assert not rep.constraints_satisfied

    def test_method_agreement_on_random_states(self):
        for seed in range(5):
            state = haar_random_state(2, np.random.default_rng(200 + seed))
            sums = [eval_transformed_bell(state, m).sum for m in METHODS]
            assert max(sums) - min(sums) < 1e-9


class TestClassicalBound:
    """Each evaluator's bound, derived from its terms, against the paper's value."""

    KCBS_TERMS = inequalities._CYCLES["kcbs"][1]
    PENTAGON_TERMS = inequalities._CYCLES["pentagon"][1]
    BELL_TERMS = inequalities._BELL_TERMS[:5]
    BELL_SIDE = inequalities._BELL_TERMS[5:]

    def test_classical_bound_of_each_evaluator_is_the_paper_value(self):
        derived = (
            classical_bound(PM_CONTEXTS, PM_SIGNS, "<="),
            classical_bound(self.KCBS_TERMS, (1.0,) * 5, ">="),
            classical_bound(self.PENTAGON_TERMS, (1.0,) * 10, ">="),
            classical_bound(self.BELL_TERMS, (1.0,) * 5, ">=", self.BELL_SIDE),
        )
        assert derived == (4.0, -3.0, -2.0, -3.0)
        assert all(type(bound) is float for bound in derived)

    def test_classical_bound_terms_are_the_report_labels(self):
        assert self.KCBS_TERMS[-1] == ("X5", "X1") and self.PENTAGON_TERMS[1] == ("X1", "X3")
        assert self.BELL_TERMS[0] == ("A0", "B1") and self.BELL_SIDE[0] == ("A0", "B0")
        kcbs = eval_kcbs_temporal(basis_state(1, "0"), 1.0, "direct")
        bell = eval_transformed_bell(bell_phi_plus(), "direct")
        assert [label for label, _ in kcbs.terms] == [".".join(t) for t in self.KCBS_TERMS]
        assert [label for label, _ in bell.terms] == [".".join(t) for t in self.BELL_TERMS]
        assert [label for label, _ in bell.constraints] == [".".join(t) for t in self.BELL_SIDE]

    def test_classical_bound_of_bell_without_its_side_conditions_is_minus_five(self):
        # A_r = +1 and B_q = -1 for every r and q makes each of the five terms -1
        assert classical_bound(self.BELL_TERMS, (1.0,) * 5, ">=") == -5.0

    def test_classical_bound_direction_picks_the_extremum(self):
        assert classical_bound(self.KCBS_TERMS, (1.0,) * 5, "<=") == 5.0
        with pytest.raises(ValueError, match="bound direction"):
            classical_bound(self.KCBS_TERMS, (1.0,) * 5, "<")

    def test_classical_bound_enumerates_once_for_two_evaluations(self):
        classical_bound.cache_clear()
        for _ in range(2):
            assert eval_pm(basis_state(2, "00"), "direct").classical_bound == 4.0
        info = classical_bound.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestReportContract:
    def test_verdict_recomputable(self):
        bell = eval_transformed_bell(bell_phi_plus(), "direct")
        # the report that `bell --visibility 0.9` prints: every value scaled by
        # one block's visibility, so the side conditions read 0.9
        noisy_bell = with_noise(
            bell,
            eval_transformed_bell(depolarize(bell_phi_plus(), 0.0), "direct"),
            NoiseModel(state_depolarizing_p=0.0, block_visibility_v=0.9),
        )
        reports = [
            eval_pm(basis_state(2, "00"), "direct"),
            eval_kcbs_temporal(basis_state(1, "0"), 2.0, "direct"),
            eval_pentagon_lg(basis_state(1, "0"), 2.0, "direct"),
            bell,
            noisy_bell,
        ]
        for rep in reports:
            assert rep.violated == is_violated(rep.sum, rep.classical_bound, rep.bound_direction)
            recomputed = sum(s * v for s, v in zip(rep.term_signs, (v for _, v in rep.terms)))
            assert rep.sum == pytest.approx(recomputed, abs=1e-12)
            satisfied = None
            if rep.constraints is not None:
                satisfied = all(abs(v - 1.0) <= CONSTRAINT_ATOL for _, v in rep.constraints)
            assert rep.constraints_satisfied == satisfied
        assert bell.constraints_satisfied is True
        assert noisy_bell.constraints_satisfied is False
        assert f"{noisy_bell.sum:.6f}" == "-3.640576" and noisy_bell.violated

    def test_derived_fields_cannot_be_passed(self):
        derived = ("sum", "violated", "constraints_satisfied")
        rep = eval_transformed_bell(bell_phi_plus(), "direct")
        given = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name not in derived}
        assert InequalityReport(**given) == rep
        for name in derived:
            with pytest.raises(TypeError):
                InequalityReport(**given, **{name: getattr(rep, name)})

    def test_replace_recomputes_sum_and_verdict(self):
        rep = eval_pm(basis_state(2, "00"), "direct")
        assert (rep.sum, rep.violated) == (6.0, True)
        halved = dataclasses.replace(rep, terms=tuple((label, 0.5) for label, _ in rep.terms))
        # five terms at +0.5 and gamma.c.C at -0.5
        assert (halved.sum, halved.violated) == (2.0, False)

    def test_observable_validation(self):
        with pytest.raises(ValueError):
            Observable(matrix=np.array([[0, 1], [0, 0]], dtype=complex), label="bad")
        with pytest.raises(ValueError):
            Observable(matrix=0.5 * PAULI_Z, label="half")

    def test_report_fields_complete(self):
        rep = eval_pm(basis_state(2, "00"), "scattering")
        assert isinstance(rep, InequalityReport)
        assert len(rep.terms) == len(rep.term_signs) == len(rep.term_predictions) == 6
        assert rep.blocks_per_term == (3,) * 6
        state = basis_state(1, "0")
        assert eval_kcbs_temporal(state, 1.0, "direct").blocks_per_term == (2,) * 5
        assert eval_pentagon_lg(state, 1.0, "direct").blocks_per_term == (2,) * 10
        assert eval_transformed_bell(bell_phi_plus(), "direct").blocks_per_term == (1,) * 5
        assert rep.quantum_prediction == 6.0
