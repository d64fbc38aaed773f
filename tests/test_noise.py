import re

import numpy as np
import pytest

from contextsim import noise
from contextsim.inequalities import eval_pm
from contextsim.noise import (
    NoiseModel,
    apply_visibility,
    depolarize,
    fit_visibility,
    load_measured_table,
    visibility_summary,
)
from contextsim.states import basis_state, bell_phi_plus, density_of, haar_random_state

# each refused by linalg.checked_reals before any arithmetic; each used to pass,
# return nan, or raise OverflowError or TypeError somewhere
BAD_NUMBERS = [float("nan"), float("inf"), pytest.param(10**400, id="10**400"), "x", "0.5", True, False,
               1 + 0j, np.array([0.5])]


class TestDepolarize:
    def test_zero_is_identity(self):
        st = haar_random_state(2, np.random.default_rng(0))
        assert np.allclose(density_of(depolarize(st, 0.0)), density_of(st))

    def test_one_is_maximally_mixed(self):
        assert np.allclose(density_of(depolarize(bell_phi_plus(), 1.0)), np.eye(4) / 4)

    def test_trace_hermiticity_positivity(self):
        rho = density_of(depolarize(haar_random_state(2, np.random.default_rng(1)), 0.37))
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


class TestNumberChecks:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD_NUMBERS)
    @pytest.mark.parametrize("field, named", [(0, "depolarizing probability"), (1, "visibility")])
    def test_noise_model(self, field, named, value):
        args = [0.5, 0.5]
        args[field] = value
        with pytest.raises(ValueError, match=f"^{named} must be a finite real number"):
            NoiseModel(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD_NUMBERS)
    def test_depolarize(self, value):
        with pytest.raises(ValueError, match="^depolarizing probability must be a finite real number"):
            depolarize(basis_state(1, "0"), value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD_NUMBERS)
    @pytest.mark.parametrize("field, named", [(0, "ideal value"), (2, "visibility")])
    def test_apply_visibility(self, field, named, value):
        args = [1.0, 1, 0.5]
        args[field] = value
        with pytest.raises(ValueError, match=f"^{named} must be a finite real number"):
            apply_visibility(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD_NUMBERS)
    @pytest.mark.parametrize("field, named", [(0, "ideal value"), (2, "measured value")])
    def test_fit_visibility(self, field, named, value):
        triple = [1.0, 1, 0.5]
        triple[field] = value
        with pytest.raises(ValueError, match=f"^{named} must be a finite real number"):
            fit_visibility([(1.0, 1, 0.9), tuple(triple)])

    @pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (-1, "-1"), (np.float64(2.0), "2.0")])
    @pytest.mark.parametrize(
        "call, named",
        [(lambda x: NoiseModel(x, 1.0), "depolarizing probability"), (lambda x: NoiseModel(0.0, x), "visibility"),
         (lambda x: depolarize(basis_state(1, "0"), x), "depolarizing probability"),
         (lambda x: apply_visibility(1.0, 1, x), "visibility")],
        ids=["model p", "model v", "depolarize", "apply_visibility"],
    )
    def test_value_outside_the_unit_interval_named(self, call, named, value, shown):
        # NoiseModel used to say "depolarizing probability out of [0, 1]", without the value
        with pytest.raises(ValueError, match=re.escape(f"{named} {shown} out of [0, 1]")):
            call(value)

    def test_numpy_numbers_keep_their_results(self):
        # checked, then computed from the value as given: float32 stays float32
        tenth = np.float32(0.1)
        assert apply_visibility(tenth, 1, tenth) == float(tenth * tenth) != 0.1 * 0.1
        assert NoiseModel(np.float64(0.25), 1).state_depolarizing_p == 0.25
        assert fit_visibility([(np.int64(1), 1, np.float64(0.5))]) == fit_visibility([(1.0, 1, 0.5)])


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

    @pytest.mark.filterwarnings("error")
    def test_block_count_beyond_float_range_named(self):
        # 0.5 ** 10**400 used to raise OverflowError: int too large to convert to float
        with pytest.raises(ValueError, match=f"block count must be at most {2**53}, got {10**400}"):
            apply_visibility(1.0, 10**400, 0.5)
        assert apply_visibility(1.0, 2**53, 0.5) == 0.0


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

    @pytest.mark.parametrize("pairs", [[(1.0, 0, 0.5)], [(1.0, 0, 0.5), (-2.0, 0, 0.1)]])
    def test_no_block_count_rejected(self, pairs):
        # with every count 0 the objective does not depend on v, and the search
        # returned the end of its bracket, 4.35e-07
        with pytest.raises(ValueError, match="no measurement depends on the visibility"):
            fit_visibility(pairs)

    @pytest.mark.parametrize("entry", [(1,), (1.0, 1), (1.0, 1, 0.9, 0.1), 5, None])
    def test_entry_that_is_no_triple_is_named(self, entry):
        # unpacked as is, (1,) said "not enough values to unpack (expected 3, got 1)"
        with pytest.raises(ValueError, match=re.escape(
                f"each measurement must be an (ideal, n_blocks, measured) triple, got {entry!r}")):
            fit_visibility([(1.0, 1, 0.9), entry])

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            fit_visibility([(0.0, 3, 0.5)])

    @pytest.mark.parametrize(
        "triple",
        [(1.0, 3, float("nan")), (1.0, 1, float("-inf")), (float("inf"), 3, 0.5),
         (float("nan"), 1, 0.5), (1.0, -1, 0.9), (1.0, 10**400, 0.5)],
    )
    def test_non_finite_value_or_negative_block_count_rejected(self, triple):
        with pytest.raises(ValueError):
            fit_visibility([(1.0, 1, 0.9), triple])

    @pytest.mark.parametrize("blocks", [2.5, 2.0, True, "2"])
    def test_block_count_must_be_an_integer(self, blocks):
        # 2.5 used to be truncated to 2 blocks and fit the same visibility
        with pytest.raises(ValueError, match="block count must be an integer"):
            fit_visibility([(1.0, blocks, 0.9 ** 2.5)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "triple, named", [((1e200, 1, 1e200), "1e+200"), ((1.0, 1, -1e151), "-1e+151"), ((-1e151, 1, 0.5), "-1e+151")]
    )
    def test_large_value_named_instead_of_overflowing(self, triple, named):
        # a squared residual of 1e200 used to raise OverflowError
        with pytest.raises(ValueError, match=re.escape(f"at most 1e+150 in magnitude, got {named}")):
            fit_visibility([(1.0, 1, 0.9), triple])

    @pytest.mark.filterwarnings("error")
    def test_largest_values_fit(self):
        assert fit_visibility([(1e150, 1, 1e150), (-1e150, 2, -1e150)]) == pytest.approx(1.0, abs=1e-5)

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

    def test_summaries_pinned(self):
        assert visibility_summary("pm") == {"table": "pm", "visibility": 0.9201885871019679,
                                            "model_sum": 4.675001751214118, "measured_sum": 4.675,
                                            "blocks_per_term": 3}
        assert visibility_summary("bell") == {"table": "bell", "visibility": 0.9283064144578808,
                                              "model_sum": -3.755078326418494, "measured_sum": -3.755,
                                              "blocks_per_term": 1}

    @pytest.mark.parametrize("table", ["pm", "bell"])
    @pytest.mark.parametrize("change", ["reorder", "relabel", "drop"])
    def test_summary_refuses_rows_that_are_not_the_report_terms(self, table, change, monkeypatch):
        rows = load_measured_table(table)
        rows = {"reorder": rows[1:] + rows[:1], "relabel": [("X", *rows[0][1:])] + rows[1:],
                "drop": rows[:-1]}[change]
        monkeypatch.setattr(noise, "load_measured_table", lambda name: rows)
        with pytest.raises(ValueError, match=f"table '{table}' does not list the {table} terms in order"):
            visibility_summary(table)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            load_measured_table("spam")
