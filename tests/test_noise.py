import numpy as np
import pytest

from contextsim.inequalities import eval_pm
from contextsim.noise import (
    NoiseModel,
    apply_visibility,
    depolarize,
    fit_visibility,
    load_measured_table,
    visibility_summary,
)
from contextsim.states import basis_state, bell_phi_plus, density_of, random_pure_state


class TestDepolarize:
    def test_zero_is_identity(self):
        st = random_pure_state(2, 0)
        assert np.allclose(density_of(depolarize(st, 0.0)), density_of(st))

    def test_one_is_maximally_mixed(self):
        assert np.allclose(density_of(depolarize(bell_phi_plus(), 1.0)), np.eye(4) / 4)

    def test_trace_hermiticity_positivity(self):
        rho = density_of(depolarize(random_pure_state(2, 1), 0.37))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            depolarize(basis_state(1, "0"), 1.5)

    def test_state_noise_cannot_shrink_the_square_value(self):
        # the six contexts multiply to +-identity, so state noise is invisible
        for p in (0.2, 0.8, 1.0):
            rep = eval_pm(depolarize(basis_state(2, "00"), p), "direct")
            assert rep.sum == pytest.approx(6.0, abs=1e-9)


class TestVisibility:
    def test_unit_visibility(self):
        assert apply_visibility(0.83, 5, 1.0) == 0.83

    def test_three_blocks(self):
        assert apply_visibility(1.0, 3, 0.92) == pytest.approx(0.778688, abs=1e-6)

    def test_sign_preserved(self):
        assert apply_visibility(-1.0, 3, 0.92) == pytest.approx(-0.778688, abs=1e-6)

    def test_monotone_in_block_count(self):
        values = [abs(apply_visibility(1.0, n, 0.9)) for n in range(6)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_visibility(1.0, 2, 1.5)
        for n_blocks in (-1, 2.5, True):
            with pytest.raises(ValueError, match="block count"):
                apply_visibility(1.0, n_blocks, 0.9)
        with pytest.raises(ValueError):
            NoiseModel(state_depolarizing_p=2.0)


class TestFit:
    def test_synthetic_round_trip(self):
        v0 = 0.9
        pairs = [
            (1.0, 3, v0 ** 3),
            (-1.0, 3, -(v0 ** 3)),
            (1.0, 1, v0),
            (1.0, 2, v0 ** 2),
        ]
        assert fit_visibility(pairs) == pytest.approx(v0, abs=1e-5)

    def test_local_optimality(self):
        rows = load_measured_table("pm")
        pairs = [(t, 3, m) for _, t, m, _ in rows]
        v = fit_visibility(pairs)

        def objective(x):
            return sum((x ** n * i - m) ** 2 for i, n, m in pairs)

        assert objective(v) <= objective(min(v + 1e-4, 1.0)) + 1e-12
        assert objective(v) <= objective(max(v - 1e-4, 0.0)) + 1e-12

    def test_square_table_model_near_bench_value(self):
        summary = visibility_summary("pm")
        assert abs(summary["model_sum"] - 4.667) <= 0.15

    def test_cross_table_model_near_bench_value(self):
        summary = visibility_summary("bell")
        assert abs(summary["model_sum"] - (-3.755)) <= 0.05

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_visibility([])

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            fit_visibility([(0.0, 3, 0.5)])

    @pytest.mark.parametrize(
        "triple",
        [(1.0, 3, float("nan")), (1.0, 1, float("-inf")), (float("inf"), 3, 0.5),
         (float("nan"), 1, 0.5), (1.0, -1, 0.9)],
    )
    def test_non_finite_value_or_negative_block_count_rejected(self, triple):
        with pytest.raises(ValueError):
            fit_visibility([(1.0, 1, 0.9), triple])

    @pytest.mark.parametrize("blocks", [2.5, 2.0, True, "2"])
    def test_block_count_must_be_an_integer(self, blocks):
        # 2.5 used to be truncated to 2 blocks and fit the same visibility
        with pytest.raises(ValueError, match="block count must be an integer"):
            fit_visibility([(1.0, blocks, 0.9 ** 2.5)])

    def test_numpy_integer_block_count_accepted(self):
        assert fit_visibility([(1.0, np.int64(2), 0.81)]) == pytest.approx(0.9, abs=1e-5)


class TestTables:
    def test_row_counts(self):
        assert len(load_measured_table("pm")) == 6
        assert len(load_measured_table("bell")) == 5

    def test_labels_match_report_labels(self):
        rep = eval_pm(basis_state(2, "00"), "direct")
        assert [row[0] for row in load_measured_table("pm")] == [label for label, _ in rep.terms]

    def test_theory_column_signs(self):
        rows = load_measured_table("pm")
        assert [row[1] for row in rows] == [1.0, 1.0, 1.0, 1.0, 1.0, -1.0]

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            load_measured_table("spam")
