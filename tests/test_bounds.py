import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

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
from contextsim.inequalities import eval_pentagon_lg, eval_transformed_bell, sigma_theta
from contextsim.linalg import PAULI_Z
from contextsim.states import basis_state, bell_phi_plus, density_of

TSIRELSON = bounds.TSIRELSON_OPTIMUM
CONTEXTUAL = bounds.CONTEXTUAL_OPTIMUM
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

    def test_default_search_pinned(self, bell_search, temporal_search, monkeypatch):
        # the line searches read the temporal closed form, so the objective
        # runs only at the start and after each sweep; the search takes the
        # temporal search's steps, and only the reading of the value differs,
        # so the optimum sits 1.5e-10 above the bound as the temporal one does
        objective, calls = bounds.bell_constrained_objective, []

        def counted(angles):
            calls.append(1)
            return objective(angles)

        monkeypatch.setattr(bounds, "bell_constrained_objective", counted)
        res = tsirelson_search_bell()
        assert res == bell_search
        assert (res.iterations, res.converged) == (11, True)
        assert 0 <= res.optimum - TSIRELSON <= 2e-10
        assert len(calls) == res.iterations + 1
        assert (res.argument, res.iterations) == (temporal_search.argument, temporal_search.iterations)
        assert abs(res.optimum - temporal_search.optimum) <= 1e-13

    def test_degenerate_grid_still_returns_a_result(self):
        res = tsirelson_search_bell(resolution=1, sweeps=2, tol=1e-6)
        assert isinstance(res, BoundResult)
        assert math.isfinite(res.optimum)

    @pytest.mark.parametrize("resolution", range(1, MAX_RESOLUTION + 1))
    def test_start_is_the_full_grid_argmin(self, resolution, monkeypatch):
        # the Bell search starts on the shared start, which reads the r x r
        # table and builds only the row it picks; ties included, that row must
        # be the one the cosine sum picks over the whole built grid
        starts, descend = [], bounds._descend
        monkeypatch.setattr(bounds, "_descend", lambda objective, angles, *rest:
                            starts.append(angles) or descend(objective, angles, *rest))
        tsirelson_search_bell(resolution, sweeps=1)
        tuples = bounds._coarse_grid_tuples(resolution)
        assert np.array_equal(starts, [tuples[int(np.argmin(bounds._cycle_cosines(tuples)))]])


class TestCoarseGrid:
    @pytest.mark.parametrize("resolution", range(1, MAX_RESOLUTION + 1))
    def test_tables_read_the_full_grid_forms_bit_for_bit(self, resolution):
        # every resolution the searches take: the table sums round as the
        # batch form does on the built tuples, so the start breaks ties as it would
        tuples = bounds._coarse_grid_tuples(resolution)
        grid = bounds._grid(resolution)
        assert bounds._grid_cosines(grid).tobytes() == bounds._cycle_cosines(tuples).tobytes()

    @pytest.mark.parametrize("resolution", [8, 16])
    def test_temporal_grid_builds_no_tuple_array(self, resolution):
        # the (r**4, 5) float64 tuple array alone is r**4 * 5 * 8 bytes
        bounds._coarse_bell_minimum(resolution)
        tracemalloc.start()
        try:
            bounds._coarse_bell_minimum(resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < resolution**4 * 5 * 8


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
        # the line searches write the cosine sum out (``_line_argmin``), so
        # the objective runs only at the start and after each sweep; the
        # converged optimum sits 1.5e-10 above the bound
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
        # the lines index a 5-tuple unchecked; the descent's start calls the
        # public objective, which rejects any other angle count first
        for objective in (bounds.temporal_objective, bounds.bell_constrained_objective):
            with pytest.raises(ValueError, match=re.escape("angles must be real numbers of shape (5,)")):
                bounds._descend(objective, [0.0] * 4, 1, 1e-9)


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

    @pytest.mark.parametrize("seed, sweeps", enumerate((7, 6, 6, 7, 6, 6, 5, 6)))
    def test_seesaw_sweeps_per_seed(self, seed, sweeps):
        # each default restart converges, in the sweeps of the two-angle lines
        value, _, _, performed, converged = bounds._contextual_seesaw(seed, 200, 1e-9)
        assert (performed, converged) == (sweeps, True)
        assert value == pytest.approx(CONTEXTUAL, abs=1e-9)

    def test_every_restart_aborting_gives_the_empty_result(self, monkeypatch):
        monkeypatch.setattr(bounds, "_contextual_seesaw", lambda seed, iterations, tol: None)
        assert contextual_bound_kcbs(restarts=3, tol=1e-7) == bounds.BoundResult(
            target="contextual-kcbs",
            optimum=math.inf,
            argument={"restarts_run": 3, "stopped_at_certificate": False},
            iterations=0,
            converged=False,
            tolerance=1e-7,
        )

    def test_only_a_strictly_better_restart_replaces_the_result(self, monkeypatch):
        # seed 0 aborts; seed 3 is below seed 2 by one ulp, less than the 1e-15 margin
        values = {1: -3.0, 2: -3.5, 3: np.nextafter(-3.5, -4.0), 4: -3.25}

        def seesaw(seed, iterations, tol):
            if seed not in values:
                return None
            return values[seed], [np.full(3, seed)] * 5, np.zeros(3), 10 + seed, seed % 2 == 1

        monkeypatch.setattr(bounds, "_contextual_seesaw", seesaw)
        res = contextual_bound_kcbs(restarts=5)
        assert (res.optimum, res.argument["seed"], res.iterations, res.converged) == (-3.5, 2, 12, False)
        assert res.argument["vectors"] == [[2.0] * 3] * 5

    def test_defaults_stop_after_the_first_restart(self, monkeypatch):
        # seed 0 converges within tol of the Lovász certificate, so no other seed runs
        seeds = []
        seesaw = bounds._contextual_seesaw
        monkeypatch.setattr(bounds, "_contextual_seesaw",
                            lambda seed, iterations, tol: seeds.append(seed) or seesaw(seed, iterations, tol))
        res = contextual_bound_kcbs()
        assert seeds == [0]
        assert (res.argument["seed"], res.iterations, res.converged) == (0, 7, True)
        assert (res.argument["restarts_run"], res.argument["stopped_at_certificate"]) == (1, True)

    def test_only_a_converged_restart_within_tol_stops_the_search(self, monkeypatch):
        # a power of two keeps CONTEXTUAL + k * tol - CONTEXTUAL exact. Seed 0
        # converges 2 tol above the certificate and seed 1 exactly tol above;
        # seed 2 is within tol but did not converge; seed 3 converges within
        # tol and is the last to run
        tol = 2.0 ** -20
        outcomes = {0: (CONTEXTUAL + 2 * tol, True), 1: (CONTEXTUAL + tol, True),
                    2: (CONTEXTUAL + tol / 2, False), 3: (CONTEXTUAL + tol / 4, True),
                    4: (CONTEXTUAL, True)}
        seeds = []

        def seesaw(seed, iterations, tol):
            seeds.append(seed)
            value, converged = outcomes[seed]
            return value, [np.full(3, seed)] * 5, np.zeros(3), 10 + seed, converged

        monkeypatch.setattr(bounds, "_contextual_seesaw", seesaw)
        res = contextual_bound_kcbs(restarts=5, tol=tol)
        assert seeds == [0, 1, 2, 3]
        assert (res.optimum, res.argument["seed"], res.iterations, res.converged) == (outcomes[3][0], 3, 13, True)
        assert (res.argument["restarts_run"], res.argument["stopped_at_certificate"]) == (4, True)

    @pytest.mark.parametrize("tol, sweeps", [(1e-6, 5), (1e-12, 8)])
    def test_seed_0_stops_the_search_at_other_tolerances(self, tol, sweeps):
        res = contextual_bound_kcbs(tol=tol)
        assert (res.argument["seed"], res.iterations, res.converged) == (0, sweeps, True)

    def test_any_tolerance_ends_within_it_of_the_certificate(self):
        hypothesis = pytest.importorskip("hypothesis")
        strategies = pytest.importorskip("hypothesis.strategies")

        @hypothesis.given(tol=strategies.floats(-12, -3).map(lambda e: 10.0 ** e))
        def ends_within_tol(tol):
            res = contextual_bound_kcbs(tol=tol)
            assert res.converged
            assert CONTEXTUAL - 1e-14 <= res.optimum <= CONTEXTUAL + tol

        ends_within_tol()

    @pytest.mark.parametrize(
        "vectors, psi, what",
        [
            (pentagram_vectors()[:4], [0.0, 0.0, 1.0], "vectors"),
            ([v[:2] for v in pentagram_vectors()], [0.0, 0.0, 1.0], "vectors"),
            (pentagram_vectors()[:4] + [[math.inf, 0.0, 0.0]], [0.0, 0.0, 1.0], "vectors"),
            (pentagram_vectors()[:4] + [[True, 0.0, 0.0]], [0.0, 0.0, 1.0], "vectors"),
            ([[1j, 0.0, 0.0]] * 5, [0.0, 0.0, 1.0], "vectors"),
            ("abcde", [0.0, 0.0, 1.0], "vectors"),
            (pentagram_vectors(), [0.0, 0.0, math.inf], "state"),
            (pentagram_vectors(), [0.0, 0.0, math.nan], "state"),
            (pentagram_vectors(), [0.0, 1.0], "state"),
            (pentagram_vectors(), True, "state"),
            (pentagram_vectors(), [0.0, 0.0, True], "state"),
            (pentagram_vectors(), np.array([0.0, 0.0, 1.0], dtype=complex), "state"),
        ],
    )
    def test_objective_refuses_bad_input(self, vectors, psi, what):
        # four vectors used to give 5.0, an inf state a RuntimeWarning and True
        # the value 1; now one ValueError names the argument
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{what} must be"):
                contextual_objective(vectors, psi)

    def test_objective_takes_tuples_lists_and_arrays_alike(self):
        vectors = pentagram_vectors()
        value = contextual_objective(vectors, np.array([0.0, 0.0, 1.0]))
        assert contextual_objective([tuple(v.tolist()) for v in vectors], (0.0, 0.0, 1.0)) == value
        assert contextual_objective(np.array(vectors), [0, 0, 1]) == value

    def test_seesaw_checks_at_the_start_and_after_each_sweep(self, monkeypatch):
        # the public objective scores the start and every sweep; the line
        # work in between runs unchecked
        calls = []
        monkeypatch.setattr(bounds, "contextual_objective",
                            lambda u, psi: calls.append(1) or contextual_objective(u, psi))
        _, _, _, performed, _ = bounds._contextual_seesaw(0, 200, 1e-9)
        assert len(calls) == performed + 1

    @pytest.mark.parametrize("a, b", [(math.pi / 2, 0.0), (0.0, 0.0), (math.pi, 0.0), (0.0, 2.9878618231307454)])
    def test_state_step_at_a_double_top_eigenvalue(self, a, b):
        # at (pi/2, 0) M = diag(2, 1, 2) up to round-off, so every row cross
        # product of M - lambda I is round-off; the state is still a unit
        # vector of the top eigenspace, signed by its largest entry
        psi, value = bounds._state_step(bounds._cycle_vectors(a, b), bounds._cycle_value(a, b))
        assert abs(math.hypot(*psi) - 1.0) <= 1e-15
        assert abs(value - (-3.0)) <= 1e-15
        assert max(psi, key=abs) > 0

    def test_line_is_infinite_where_the_pin_degenerates(self):
        # at b = +-pi/2 with a in {0, pi}, u_3 = +-u_0, so u_0 x u_3 leaves u_4
        # no direction (in floats sin(pi) = 1.2e-16 and cos(pi/2) = 6.1e-17
        # leave it shorter than PIN_FLOOR); a step of 1e-6 off the pin is finite
        for a, b in itertools.product([0.0, math.pi], [math.pi / 2, -math.pi / 2]):
            assert bounds._cycle_value(a, b) == math.inf
            assert bounds._cycle_vectors(a, b) is None
            for da, db in [(1e-6, 0.0), (0.0, 1e-6), (-1e-6, -1e-6)]:
                assert math.isfinite(bounds._cycle_value(a + da, b + db))


class TestCertificates:
    """Each default optimum against its closed form: the smallest adjacency
    eigenvalue of C5 gives -5 cos(pi/5) for the temporal and Bell searches,
    the Lovász number of C5, sqrt(5), gives 5 - 4 sqrt(5) for the contextual
    one (Cabello, Severini and Winter, PRL 112, 040401 (2014)). A value below
    its closed form by more than rounding is a bug in the search."""

    @pytest.mark.parametrize(
        "search, closed_form, above",
        [("temporal_search", TSIRELSON, 1e-9), ("bell_search", TSIRELSON, 1e-9),
         ("contextual_search", CONTEXTUAL, 1e-11)],
        ids=["temporal", "bell", "contextual"],
    )
    def test_default_optimum_certified(self, request, search, closed_form, above):
        optimum = request.getfixturevalue(search).optimum
        assert closed_form - 1e-14 <= optimum <= closed_form + above

    def test_tsirelson_optimum_is_the_bell_reports_prediction(self):
        # both read five times the one Bell term; -5 * math.cos(math.pi / 5)
        # was one ulp below
        assert TSIRELSON == eval_transformed_bell(bell_phi_plus()).quantum_prediction


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

    def test_cos_minus_three_quarters_is_one_angle(self, pentagon_result):
        theta = bounds.ACOS_MINUS_3_4
        assert theta == math.acos(-0.75) and theta in bounds.default_pentagon_grid()
        assert pentagon_result.argument["at_cos_theta_-0.75"]["theta"] == theta

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
        with pytest.raises(ValueError, match="sequence of angles"):
            pentagon_scan(0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_named(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^theta grid must be finite, got a non-finite entry: {bad}$"):
                pentagon_scan([0.0, bad, 1.0])

    @pytest.mark.parametrize("bad", ["2.5", ["2.5"], [True], [1j], [0.0, True, 1.0], (0.5, np.True_),
                                     {1: 2}, {0.5, 2.0}, (x for x in (0.5, 2.0))])
    def test_non_real_grid_refused(self, bad):
        # the grid is read as passed: not a string's characters, a dict's keys
        # or a set's members in hash order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^theta grid must be real numbers, got {re.escape(repr(bad))}$"):
                pentagon_scan(bad)

    def test_sequences_and_arrays_read_alike(self):
        reference = pentagon_scan([0.0, 1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in ((0.0, 1.0, 2.0, 3.0), [0, 1, 2, 3], range(4), np.arange(4.0), np.arange(4)):
                assert pentagon_scan(grid) == reference

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

        monkeypatch.setattr(bounds.np, "linspace", refuse)
        for search in (tsirelson_search_bell, temporal_bound_kcbs):
            with pytest.raises(ValueError, match=f"resolution must be at most {MAX_RESOLUTION}"):
                search(resolution=resolution)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tol", [True, "1e-3", pytest.param(10**400, id="10**400"), 1e-3 + 0j,
                                     np.array([1e-9])])
    def test_tolerance_must_be_a_real_number(self, tol):
        # bools and strings used to run as floats, and 10**400 raised OverflowError
        for search in (tsirelson_search_bell, temporal_bound_kcbs, contextual_bound_kcbs):
            with pytest.raises(ValueError, match="^tol must be a finite real number"):
                search(tol=tol)

    def test_results_hash_and_compare_by_value(self, pentagon_result):
        # the argument dict made hash() raise TypeError; it stays out of the
        # hash, so results equal by value hash equal, and == still reads it
        again = pentagon_scan()
        assert again is not pentagon_result and again == pentagon_result
        assert hash(again) == hash(pentagon_result)
        assert replace(again, argument={}) != again

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            tsirelson_search_bell(tol=tol)
        with pytest.raises(ValueError, match="tol"):
            temporal_bound_kcbs(8, tol)
        with pytest.raises(ValueError, match="tol"):
            contextual_bound_kcbs(tol=tol)


@pytest.mark.parametrize("read", [sigma_theta, pentagon_pairwise_value, pentagon_invasive_value])
@pytest.mark.parametrize("theta", [math.inf, math.nan, "2.5", True])
def test_public_angle_entry_refuses_a_bad_angle(read, theta):
    # one check, before any numpy call: a RuntimeWarning, a numpy type error or
    # a float16 product would escape instead of this ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^theta must be (a finite real number|real numbers|finite)"):
            read(theta)


@pytest.mark.parametrize("objective", [temporal_objective, bell_operator, bell_constrained_objective])
@pytest.mark.parametrize("bad", [math.nan, math.inf, "2.5", True])
def test_search_objectives_refuse_a_bad_angle(objective, bad):
    # nan gave a nan sum or matrix and a LinAlgError; inf a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^angles must be (real numbers of shape \\(5,\\)|finite), got "):
            objective([0.0, 1.0, bad, 2.0, 3.0])


@pytest.mark.parametrize("objective", [temporal_objective, bell_constrained_objective])
@pytest.mark.parametrize("shape", [(2, 5), (1, 5), (5, 5), (4,), (6,), ()])
def test_search_objectives_take_one_5_tuple(objective, shape):
    # a (2, 5) stack used to pass the angle checks and fail in float() with a
    # TypeError, and a (1, 5) stack gave a value
    with pytest.raises(ValueError, match=re.escape("angles must be real numbers of shape (5,), got ")):
        objective(np.zeros(shape))


@pytest.mark.parametrize("objective", [temporal_objective, bell_operator, bell_constrained_objective])
def test_search_objectives_refuse_angles_whose_differences_overflow(objective):
    # [1e308, -1e308, 0, 0, 0] gave nan with two RuntimeWarnings, overflow in
    # subtract and an invalid value in cos; at the limit every difference is finite
    limit = bounds._ANGLE_LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([1e308, -1e308, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, np.nextafter(-limit, -math.inf)]):
            with pytest.raises(ValueError, match="^angles must be at most 8.98847e\\+307 in magnitude"):
                objective(bad)
        assert np.all(np.isfinite(objective([limit, -limit, limit, -limit, 0.0])))


@pytest.mark.parametrize("read", [pentagon_pairwise_value, pentagon_invasive_value])
def test_pentagon_readings_read_an_empty_array_as_empty(read):
    # the branch chain used to fail to reshape an empty batch of cycles
    assert read(np.array([])).shape == (0,)
    assert read(np.empty((2, 0))).shape == (2, 0)


@pytest.mark.parametrize("read", [pentagon_pairwise_value, pentagon_invasive_value])
def test_pentagon_readings_refuse_a_non_finite_entry_of_an_array(read):
    with pytest.raises(ValueError, match="^theta must be finite, got a non-finite entry: inf$"):
        read(np.array([0.0, math.inf]))


@pytest.mark.parametrize("read", [pentagon_pairwise_value, pentagon_invasive_value])
class TestPentagonThetaRule:
    """Both pentagon readings read theta as sigma_theta and the evaluators do:
    a lone number by the one-number rule, a list, tuple or array of one or
    more dimensions by the array rule."""

    def test_python_int_beyond_int64_passes_as_in_sigma_theta(self, read):
        # 2**64 used to be refused here, where np.asarray reads it as an object
        assert sigma_theta(2**64).matrix.tobytes() == sigma_theta(2.0**64).matrix.tobytes()
        assert read(2**64).hex() == read(2.0**64).hex()

    @pytest.mark.filterwarnings("error")
    def test_zero_d_array_refused_as_by_the_evaluator(self, read):
        # np.array(0.5) used to read as the lone number 0.5
        with pytest.raises(ValueError, match="^theta must be a finite real number, got array") as evaluator:
            eval_pentagon_lg(basis_state(1, "0"), np.array(0.5))
        with pytest.raises(ValueError) as reading:
            read(np.array(0.5))
        assert str(reading.value) == str(evaluator.value)

    def test_lists_tuples_and_arrays_read_as_arrays(self, read):
        expected = read(np.array([0.5, 2.0]))
        for theta in ([0.5, 2.0], (0.5, 2.0), [np.float64(0.5), 2]):
            assert read(theta).tobytes() == expected.tobytes()
        assert read(np.array([[0.5], [2.0]])).shape == (2, 1)
        assert type(read(np.float64(0.5))) is float and read(np.float64(0.5)) == read(0.5)
