import math
import warnings

import numpy as np
import pytest

from contextsim import bounds
from contextsim.bounds import (
    MAX_RESOLUTION,
    BoundResult,
    bell_constrained_objective,
    bell_operator,
    contextual_bound_kcbs,
    contextual_objective,
    pentagon_invasive_value,
    pentagon_pairwise_value,
    pentagon_scan,
    temporal_bound_kcbs,
    temporal_objective,
    tsirelson_search_bell,
)
from contextsim.linalg import PAULI_Z
from contextsim.states import bell_phi_plus, density_of

TSIRELSON = -5 * math.cos(math.pi / 5)
CONTEXTUAL = 5 - 4 * math.sqrt(5)
PENTAGRAM_ANGLES = [4 * math.pi * j / 5 for j in range(5)]


def pentagram_vectors() -> list[np.ndarray]:
    """The symmetric cycle of five unit vectors in R^3 with adjacent pairs
    orthogonal; their polar angle satisfies cos^2 = cos(pi/5)/(1+cos(pi/5))."""
    c2 = np.cos(np.pi / 5) / (1 + np.cos(np.pi / 5))
    cz = np.sqrt(c2)
    s = np.sqrt(1 - c2)
    return [
        np.array([s * np.cos(4 * np.pi * j / 5), s * np.sin(4 * np.pi * j / 5), cz])
        for j in range(5)
    ]


class TestBellOperator:
    def test_zero_angles_give_five_zz(self):
        op = bell_operator([0.0] * 5)
        assert np.allclose(op, 5 * np.kron(PAULI_Z, PAULI_Z))
        assert np.linalg.eigvalsh(op)[0] == pytest.approx(-5.0, abs=1e-12)

    def test_hermitian_for_random_angles(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            op = bell_operator(rng.uniform(0, 2 * np.pi, 5))
            assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_bare_floor_at_pentagram_angles_is_algebraic(self):
        # equal angle steps admit a joint -1 eigenstate of all five terms
        assert np.linalg.eigvalsh(bell_operator(PENTAGRAM_ANGLES))[0] == pytest.approx(
            -5.0, abs=1e-9
        )

    def test_constrained_objective_at_pentagram_angles(self):
        # with the side condition enforced the admissible state is the
        # maximally correlated pair, giving -5 cos(pi/5); oracle by direct
        # expectation on that state
        value = bell_constrained_objective(PENTAGRAM_ANGLES)
        rho = density_of(bell_phi_plus())
        oracle = float(np.trace(rho @ bell_operator(PENTAGRAM_ANGLES)).real)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(TSIRELSON, abs=1e-10)

    def test_angle_count_checked(self):
        with pytest.raises(ValueError):
            bell_operator([0.0] * 4)


class TestTsirelsonSearch:
    def test_recovers_the_bound(self, bell_search):
        res = bell_search
        assert res.converged
        assert res.optimum == pytest.approx(TSIRELSON, abs=1e-5)

    def test_dominated_by_reported_argument(self, bell_search):
        res = bell_search
        assert bell_constrained_objective(res.argument["angles"]) == pytest.approx(
            res.optimum, abs=1e-9
        )

    def test_never_better_than_pentagram_value(self, bell_search):
        res = bell_search
        assert res.optimum <= bell_constrained_objective(PENTAGRAM_ANGLES) + 1e-9

    def test_default_search_pinned(self, bell_search, monkeypatch):
        # the line searches read the closed form, so the objective runs only
        # at the start and after each sweep; a line that fell back would add
        # its trials to the count
        objective, calls = bounds.bell_constrained_objective, []

        def counted(angles):
            calls.append(1)
            return objective(angles)

        monkeypatch.setattr(bounds, "bell_constrained_objective", counted)
        res = tsirelson_search_bell()
        assert res == bell_search
        assert (res.iterations, res.converged) == (11, True)
        assert abs(res.optimum - TSIRELSON) <= 1e-10
        assert len(calls) == res.iterations + 1

    def test_line_checks_the_angle_count(self):
        with pytest.raises(ValueError, match="5 angles"):
            bounds._bell_line([0.0] * 4, 0)

    def test_degenerate_grid_still_returns_a_result(self):
        res = tsirelson_search_bell(resolution=1, sweeps=2, tol=1e-6)
        assert isinstance(res, BoundResult)
        assert math.isfinite(res.optimum)

    @pytest.mark.parametrize("resolution", range(1, MAX_RESOLUTION + 1))
    def test_screened_grid_start_is_the_full_grid_argmin(self, resolution):
        # the screen drops rows that cannot win; the start, ties included,
        # must be the one the constrained objective picks over the whole grid
        full = bounds._coarse_minimum(bounds._constrained_minima, resolution)
        assert np.array_equal(bounds._coarse_bell_minimum(resolution), full)


class TestTemporalBound:
    def test_recovers_the_bound(self, temporal_search):
        res = temporal_search
        assert res.optimum == pytest.approx(TSIRELSON, abs=1e-5)

    def test_agrees_with_bell_search(self, temporal_search, bell_search):
        assert abs(temporal_search.optimum - bell_search.optimum) < 1e-4

    def test_equal_angles_give_five(self):
        assert temporal_objective([0.3] * 5) == pytest.approx(5.0, abs=1e-12)

    def test_cyclic_closure_blocks_minus_five(self, temporal_search):
        # the five differences must close around the cycle, so -5 is out of
        # reach; the optimizer never dips below the closed-cycle extremum
        res = temporal_search
        assert res.optimum >= TSIRELSON - 1e-6

    def test_dominated_by_reported_argument(self, temporal_search):
        res = temporal_search
        assert temporal_objective(res.argument["angles"]) == pytest.approx(res.optimum, abs=1e-9)

    def test_default_search_pinned(self, temporal_search, monkeypatch):
        # the line searches read ``_temporal_line``, so the objective runs
        # only at the start and after each sweep; the converged optimum sits
        # 1.5e-10 above the bound
        objective, calls = bounds.temporal_objective, []

        def counted(angles):
            calls.append(1)
            return objective(angles)

        monkeypatch.setattr(bounds, "temporal_objective", counted)
        res = temporal_bound_kcbs()
        assert res == temporal_search
        assert (res.iterations, res.converged) == (11, True)
        assert 0 <= res.optimum - TSIRELSON <= 2e-10
        assert len(calls) == res.iterations + 1

    def test_default_result_is_exact(self, temporal_search):
        # the line rounds as the objective does, so the search takes the
        # steps it took when every trial called the objective
        assert temporal_search.optimum == -4.045084971727863
        assert temporal_search.argument["angles"] == [
            -0.12567639509893253, 2.387604089234763, 4.900890932383913,
            1.1309785158198018, 3.644243692245352,
        ]

    def test_temporal_line_checks_the_angle_count(self):
        with pytest.raises(ValueError, match="5 angles"):
            bounds._temporal_line([0.0] * 4, 0)


class TestContextualBound:
    def test_symmetric_configuration_oracle(self):
        # direct evaluation of the analytic configuration
        vectors = pentagram_vectors()
        for j in range(5):
            assert abs(vectors[j] @ vectors[(j + 1) % 5]) < 1e-12
        value = contextual_objective(vectors, np.array([0.0, 0.0, 1.0]))
        assert value == pytest.approx(CONTEXTUAL, abs=1e-12)

    def test_seesaw_recovers_the_bound(self, contextual_search):
        res = contextual_search
        assert res.optimum == pytest.approx(CONTEXTUAL, abs=1e-4)
        assert res.converged

    def test_returned_configuration_is_feasible_and_dominating(self, contextual_search):
        res = contextual_search
        vectors = [np.array(v) for v in res.argument["vectors"]]
        psi = np.array(res.argument["state"])
        for j in range(5):
            assert abs(vectors[j] @ vectors[(j + 1) % 5]) < 1e-8
            assert np.linalg.norm(vectors[j]) == pytest.approx(1.0, abs=1e-10)
        assert contextual_objective(vectors, psi) == pytest.approx(res.optimum, abs=1e-9)

    def test_strict_ordering_against_temporal(self, contextual_search, temporal_search):
        gap = contextual_search.optimum - temporal_search.optimum
        assert gap == pytest.approx(CONTEXTUAL - TSIRELSON, abs=1e-3)
        assert gap > 0.05

    @pytest.mark.parametrize("seed, sweeps", enumerate((7, 7, 7, 7, 5, 6, 7, 7)))
    def test_seesaw_sweeps_per_seed(self, seed, sweeps):
        # each default restart converges in the sweeps that the explicit
        # cross-product line objective takes
        value, _, _, performed, converged = bounds._contextual_seesaw(seed, 200, 1e-9)
        assert (performed, converged) == (sweeps, True)
        assert value == pytest.approx(CONTEXTUAL, abs=1e-9)

    def test_line_is_infinite_where_the_pin_degenerates(self):
        # u_4 = y is orthogonal to u_2 = z, so the circle of u_0 around y
        # passes through z, where u_0 x u_2 vanishes
        x, y, z = np.eye(3)
        e1, e2, value = bounds._seesaw_line([x, y, z, x, y], np.array([0.6, 0.0, 0.8]), 0)
        assert np.array_equal(e1, x) and np.array_equal(e2, -z)
        assert value(math.pi / 2) == math.inf
        assert math.isfinite(value(0.0))


class TestPentagonScan:
    def test_reading_minima(self, pentagon_result):
        res = pentagon_result
        assert res.argument["pairwise"]["minimum"] == pytest.approx(-2.0, abs=1e-6)
        assert res.argument["pairwise"]["argmin_theta"] == pytest.approx(math.pi, abs=1e-6)
        assert res.argument["invasive"]["minimum"] == pytest.approx(-2.0, abs=1e-6)

    def test_values_at_cos_minus_three_quarters(self, pentagon_result):
        res = pentagon_result
        at = res.argument["at_cos_theta_-0.75"]
        assert at["pairwise"] == pytest.approx(-0.5, abs=1e-6)
        assert at["invasive"] == pytest.approx(-1.839844, abs=1e-6)

    def test_discrepancy_flagged(self, pentagon_result):
        res = pentagon_result
        assert res.argument["unreproduced_reference_minimum"] == -2.25
        assert "not attained" in res.argument["note"]

    def test_invasive_polynomial_oracle(self):
        # independent oracle: the chain value is 4c + 3c^2 + 2c^3 + c^4 with
        # c = cos(theta); a dense scan of that polynomial bottoms out at -2
        cs = np.linspace(-1, 1, 20001)
        poly = 4 * cs + 3 * cs ** 2 + 2 * cs ** 3 + cs ** 4
        assert poly.min() == pytest.approx(-2.0, abs=1e-6)
        assert cs[int(np.argmin(poly))] == pytest.approx(-1.0, abs=1e-4)
        for theta in (0.4, 2.0, np.pi):
            c = math.cos(theta)
            assert pentagon_invasive_value(theta) == pytest.approx(
                4 * c + 3 * c ** 2 + 2 * c ** 3 + c ** 4, abs=1e-9
            )

    def test_pairwise_reading_matches_closed_form(self):
        for theta in (0.0, 1.0, np.pi):
            assert pentagon_pairwise_value(theta) == pytest.approx(
                4 + 6 * math.cos(theta), abs=1e-9
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            pentagon_scan([])

    def test_nested_grid_rejected(self):
        with pytest.raises(ValueError, match="sequence of angles"):
            pentagon_scan([[0.0, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_named(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"non-finite angle: {bad}"):
                pentagon_scan([0.0, bad, 1.0])

    def test_readings_take_an_array_of_angles(self):
        thetas = np.array([[0.0, 0.4], [2.0, np.pi]])
        pairwise, invasive = pentagon_pairwise_value(thetas), pentagon_invasive_value(thetas)
        assert pairwise.shape == invasive.shape == (2, 2)
        c = np.cos(thetas)
        assert np.max(np.abs(pairwise - (4 + 6 * c))) <= 1e-12
        assert np.max(np.abs(invasive - (4 * c + 3 * c ** 2 + 2 * c ** 3 + c ** 4))) <= 1e-12
        assert isinstance(pentagon_pairwise_value(0.4), float)
        assert isinstance(pentagon_invasive_value(0.4), float)

    def test_custom_grid(self):
        res = pentagon_scan([math.pi, float(np.arccos(-0.75))])
        assert res.iterations == 2
        assert res.argument["pairwise"]["minimum"] == pytest.approx(-2.0, abs=1e-9)


class TestGlobalInvariants:
    def test_all_optima_above_algebraic_floor(
        self, bell_search, temporal_search, contextual_search, pentagon_result
    ):
        results = [bell_search, temporal_search, contextual_search, pentagon_result]
        for res in results:
            assert res.optimum >= -5 - 1e-9
        assert {r.target for r in results} == {
            "bell-kcbs",
            "temporal-kcbs",
            "contextual-kcbs",
            "pentagon-lg",
        }

    def test_search_sizes_below_one_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            tsirelson_search_bell(resolution=0)
        with pytest.raises(ValueError, match="resolution"):
            temporal_bound_kcbs(resolution=-1)
        with pytest.raises(ValueError, match="restarts"):
            contextual_bound_kcbs(restarts=0)
        with pytest.raises(ValueError, match="iterations"):
            contextual_bound_kcbs(iterations=0)
        for sweeps in (0, -3):
            with pytest.raises(ValueError, match="sweeps"):
                tsirelson_search_bell(sweeps=sweeps)
            with pytest.raises(ValueError, match="sweeps"):
                temporal_bound_kcbs(sweeps=sweeps)

    @pytest.mark.parametrize("bad", [4.9, 4.0, True, "4"])
    def test_search_sizes_must_be_integers(self, bad):
        # 4.9 used to run at resolution 4, and sweeps=True as one sweep
        with pytest.raises(ValueError, match="resolution must be an integer"):
            temporal_bound_kcbs(resolution=bad)
        with pytest.raises(ValueError, match="sweeps must be an integer"):
            tsirelson_search_bell(sweeps=bad)
        with pytest.raises(ValueError, match="restarts must be an integer"):
            contextual_bound_kcbs(restarts=bad)
        with pytest.raises(ValueError, match="iterations must be an integer"):
            contextual_bound_kcbs(iterations=bad)

    def test_numpy_integer_search_size_accepted(self):
        assert temporal_bound_kcbs(resolution=np.int64(4), sweeps=np.int32(3)).iterations <= 3

    @pytest.mark.parametrize("resolution", [MAX_RESOLUTION + 1, 100])
    def test_resolution_above_cap_rejected_before_allocating(self, resolution, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built an angle grid")

        monkeypatch.setattr(bounds.np, "meshgrid", refuse)
        for search in (tsirelson_search_bell, temporal_bound_kcbs):
            with pytest.raises(ValueError, match=f"resolution must be at most {MAX_RESOLUTION}"):
                search(resolution=resolution)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            tsirelson_search_bell(tol=tol)
        with pytest.raises(ValueError, match="tol"):
            temporal_bound_kcbs(8, tol)
        with pytest.raises(ValueError, match="tol"):
            contextual_bound_kcbs(tol=tol)
