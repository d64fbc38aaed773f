import ast
import re
from pathlib import Path

import numpy as np
import pytest

from contextsim import linalg
from contextsim.bounds import (
    bell_operator,
    contextual_objective,
    pentagon_invasive_value,
    pentagon_pairwise_value,
    pentagon_scan,
    temporal_bound_kcbs,
)
from contextsim.circuits import GateOp
from contextsim.inequalities import Observable, eval_kcbs_temporal, sigma_theta
from contextsim.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_observable,
    checked_count,
    checked_matrix,
    checked_reals,
    sigma_theta_matrix,
)
from contextsim.noise import NoiseModel, load_measured_table, visibility_summary
from contextsim.scattering import TemporalCorrelationSpec, TimeSlot, slot
from contextsim.sequential import OutcomeDistribution, correlator_sequential, joint_distribution
from contextsim.states import (QuantumState, basis_state, haar_random_state, mixed_state, pure_state,
                               state_from_literal)


def power_extremal_min(a, shift=10.0, iters=5000, seed=11):
    """Independent oracle: smallest eigenvalue of Hermitian a via power
    iteration on shift*I - a."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    m = shift * np.eye(a.shape[0]) - a
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return shift - float((v.conj() @ m @ v).real)


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="m has non-finite entries"):
            checked_matrix([[np.nan, 0], [0, 1]], "m")

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="m has non-finite entries"):
            checked_matrix([[1j * np.inf, 0], [0, 1]], "m")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            checked_matrix(np.zeros((0, 2)), "m")

    def test_returns_a_read_only_complex_copy(self):
        entries = np.array([[1, 2], [3, 4]])
        m = checked_matrix(entries, "m")
        assert m.dtype == complex and not m.flags.writeable
        assert np.array_equal(m, entries) and not np.shares_memory(m, entries)
        assert entries.flags.writeable

    @pytest.mark.parametrize("kind", ["unitary", "hermitian", "dichotomic"])
    def test_kind_needs_a_square_matrix(self, kind):
        with pytest.raises(ValueError, match="square"):
            checked_matrix(np.ones((2, 3)), "m", kind=kind)

    def test_shape_checked(self):
        checked_matrix(PAULI_X, "m", (2, 2))
        with pytest.raises(ValueError, match=r"m has shape \(2, 2\), expected \(4, 4\)"):
            checked_matrix(PAULI_X, "m", (4, 4))

    def test_unitary_within_atol(self):
        checked_matrix(PAULI_X * np.exp(0.3j), "u", kind="unitary")
        with pytest.raises(ValueError, match="u is not unitary"):
            checked_matrix(PAULI_X * (1 + 1e-6), "u", kind="unitary")


class TestStoredMatrices:
    """A constructor stores a read-only copy and leaves the caller's array as
    it was: writeable, and not the object the instance holds."""

    @pytest.mark.parametrize(
        "build, stored",
        [(lambda m: GateOp("Y", m, (0,)), lambda g: [g.matrix]),
         (lambda m: TimeSlot(observables=(m,), evolution=m), lambda t: [*t.observables, t.evolution]),
         (lambda m: Observable(m, "Y"), lambda o: [o.matrix])],
        ids=["GateOp", "TimeSlot", "Observable"],
    )
    def test_caller_array_stays_writeable(self, build, stored):
        y = PAULI_Y.copy()
        held = stored(build(y))
        for m in held:
            assert m is not y and not np.shares_memory(m, y) and not m.flags.writeable
        y[0, 0] = 5
        assert all(np.array_equal(m, PAULI_Y) for m in held)

    def test_density_matrix_stays_writeable(self):
        rho = np.eye(2, dtype=complex) / 2
        state = QuantumState(qubits=1, rho=rho)
        assert state.rho is not rho and not np.shares_memory(state.rho, rho)
        assert not state.rho.flags.writeable
        rho[0, 0] = 5
        assert np.array_equal(state.rho, np.eye(2) / 2)


class TestCheckedCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_pass(self, value):
        count = checked_count(value, "n", 1)
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.5, 2.0, np.float64(2.0), "2", None, [2]])
    def test_non_integers_named(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            checked_count(value, "n")

    def test_minimum(self):
        assert checked_count(0, "n") == 0
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            checked_count(0, "n", 1)

    def test_maximum(self):
        assert checked_count(16, "n", 1, 16) == 16
        with pytest.raises(ValueError, match="n must be at most 16, got 17"):
            checked_count(17, "n", 1, 16)


class TestCheckedAngles:
    @pytest.mark.parametrize(
        "theta",
        [[0.0, True], (0.5, np.True_), [[0.0, 1.0], [2.0, False]], [np.array(True), 1.0],
         [np.array([0.0, 1.0]), np.array([True, False])]],
    )
    def test_bool_inside_a_sequence_refused(self, theta):
        # numpy reads a bool beside a number as 0.0 or 1.0 in a float64 array
        assert np.asarray(theta).dtype == float
        with pytest.raises(ValueError, match="^x must be real numbers, got "):
            checked_reals(theta, "x")

    def test_numbers_pass(self):
        # the array rule reads one number as a 0-d array; shape=() reads it as a float
        one = checked_reals(2, "x")
        assert one.shape == () and one.dtype == float and one == 2.0
        a = checked_reals([0, 1.5, np.float64(2.0), np.int8(3)], "x")
        assert a.dtype == float and a.tolist() == [0.0, 1.5, 2.0, 3.0]


BAD_REALS = [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400"),
             pytest.param(-2**1024, id="-2**1024"), True, np.bool_(False), "0.5", 1 + 0j, np.complex128(1),
             np.array([0.5]), np.array(0.5), [0.5], None]


class TestCheckedReal:
    @pytest.mark.parametrize("value", [0, 3, 0.5, -2.5, np.int64(3), np.float32(0.5), np.float64(1e308),
                                       pytest.param(2**1023, id="2**1023"), float(2**1023)])
    def test_numbers_pass_as_floats(self, value):
        real = checked_reals(value, "x", ())
        assert real == value and type(real) is float

    @pytest.mark.parametrize("value", BAD_REALS)
    @pytest.mark.filterwarnings("error")
    def test_others_named(self, value):
        with pytest.raises(ValueError, match="^x must be a finite real number, got "):
            checked_reals(value, "x", ())


class TestCheckedReals:
    @pytest.mark.parametrize("value, shape", [(np.zeros((2, 5)), (5,)), ([0.0] * 4, (5,)), (0.5, (5,)),
                                              (np.zeros(3), (5, 3)), ([1j, 0.0, 0.0], (3,))])
    def test_wrong_shape_or_dtype_named(self, value, shape):
        with pytest.raises(ValueError, match=re.escape(f"x must be real numbers of shape {shape}, got ")):
            checked_reals(value, "x", shape)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [None, (3,)])
    def test_non_finite_entry_named(self, bad, shape):
        with pytest.raises(ValueError, match=f"^x must be finite, got a non-finite entry: {bad}$"):
            checked_reals([0.0, bad, 1.0], "x", shape)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, named, value", [
        (NoiseModel, "depolarizing probability", 0.1),
        (lambda x: temporal_bound_kcbs(8, x), "tol", 1e-9),
        (lambda x: eval_kcbs_temporal(basis_state(1, "0"), x), "theta", 0.5),
        (sigma_theta, "theta", 0.5),
    ], ids=["noise p", "tol", "kcbs theta", "sigma_theta"])
    def test_zero_d_array_refused_where_one_number_is_read(self, call, named, value):
        # a 0-d array used to pass as theta while the same rule refused it as p and tol
        with pytest.raises(ValueError, match=f"^{named} must be a finite real number, got array"):
            call(np.array(value))

    def test_python_int_within_the_float_range_passes_alike(self):
        # 2**64 used to pass as tol but not as theta, where np.asarray read it as an object
        assert checked_reals(2**64, "x", ()) == 2.0**64
        assert sigma_theta(2**64).matrix.tobytes() == sigma_theta(2.0**64).matrix.tobytes()
        report = eval_kcbs_temporal(basis_state(1, "0"), 2**64)
        assert report.terms == eval_kcbs_temporal(basis_state(1, "0"), 2.0**64).terms
        assert temporal_bound_kcbs(4, 2**64, 1).tolerance == 2.0**64
        # the array rule reads the dtype np.asarray gives: an object array here
        with pytest.raises(ValueError, match="^x must be real numbers, got "):
            checked_reals([2**64], "x")


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(np.kron(PAULI_I, PAULI_I), np.eye(4))

    def test_zz_diagonal(self):
        assert np.allclose(np.kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_factor_product_matches_direct_multiplication(self):
        # oracle: hand-entered 4x4 matrices multiplied directly
        x_i = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
        )
        i_x = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        x_x = np.array(
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
        )
        assert np.array_equal(np.kron(PAULI_X, PAULI_I), x_i)
        assert np.array_equal(np.kron(PAULI_I, PAULI_X), i_x)
        assert np.allclose(np.kron(PAULI_X, PAULI_I) @ np.kron(PAULI_I, PAULI_X), x_x)
        assert np.allclose(x_i @ i_x, np.kron(PAULI_X, PAULI_X))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=0)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-10


class TestHermitianEigen:
    """Hermitian eigenproblems the package poses: sigma(theta) spectra, the
    five-term cross operator floor, and the Hermitian check on density matrices."""

    def test_sigma_z(self):
        assert np.array_equal(sigma_theta_matrix(0.0), PAULI_Z)
        assert np.allclose(np.linalg.eigvalsh(sigma_theta_matrix(0.0)), [-1.0, 1.0])

    def test_sigma_theta_stack_matches_each_angle(self):
        thetas = np.linspace(-np.pi, np.pi, 12).reshape(3, 4)
        stack = sigma_theta_matrix(thetas)
        assert stack.shape == (3, 4, 2, 2)
        for idx in np.ndindex(thetas.shape):
            assert stack[idx].tobytes() == sigma_theta_matrix(thetas[idx]).tobytes()

    def test_rotated_direction_spectrum(self):
        # characteristic polynomial of cos*Z + sin*X is l^2 - 1
        for theta in np.linspace(0, 2 * np.pi, 13):
            assert np.allclose(np.linalg.eigvalsh(sigma_theta_matrix(theta)), [-1.0, 1.0])

    def test_cross_term_operator_extremal_eigenvalue(self):
        # five cross terms at equal 4*pi/5 steps admit a joint -1 eigenvector,
        # so the bare operator floor is the algebraic -5 (the inequality's
        # side condition is what pins the usable extremum higher)
        op = bell_operator([4 * np.pi * j / 5 for j in range(5)])
        lo = np.linalg.eigvalsh(op)[0]
        assert abs(lo - power_extremal_min(op)) < 1e-8
        assert abs(lo - (-5.0)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_observable(np.array([[0, 1], [0, 0]], dtype=complex), "m", dichotomic=False)


class TestCheckObservable:
    @pytest.mark.parametrize("bad", [np.nan, 1j * np.nan])
    def test_non_finite_entry_rejected(self, bad):
        m = np.array([[bad, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            check_observable(m, "m")
        with pytest.raises(ValueError):
            check_observable(m, "m", dichotomic=False)

    def test_stack_checks_every_matrix(self):
        stack = np.stack([PAULI_Z, PAULI_X, sigma_theta_matrix(0.3)])
        check_observable(stack, "stack")
        for i in range(3):
            scaled = stack.copy()
            scaled[i] *= 0.5
            with pytest.raises(ValueError, match="identity"):
                check_observable(scaled[None], "stack")
            skew = stack.copy()
            skew[i, 0, 1] += 1e-6
            with pytest.raises(ValueError, match="Hermitian"):
                check_observable(skew, "stack")


class TestToleranceTable:
    def test_small_float_literals_are_table_entries(self):
        # every tolerance is named once, in the table of module constants in
        # linalg; the selftest's pass thresholds are its own figures
        found = []
        for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
            if path.name == "selftest.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            table = set()
            if path.name == "linalg.py":
                table = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                         and len(node.targets) == 1 and getattr(node.targets[0], "id", "").isupper()}
            found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and type(node.value) is float
                      and 0 < abs(node.value) < 0.1 and id(node) not in table]
        assert found == []


RAGGED = [[1, 0], [0]]
RAGGED_CHAIN = [PAULI_Z, np.eye(4)]


class TestRaggedInputNamed:
    """Each conversion of a caller's value to an array names the value when
    numpy cannot read it. numpy decides which error a ragged sequence raises;
    under numpy 2 it is a ValueError saying "inhomogeneous shape", with no
    argument's name."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, named", [
        (lambda: contextual_objective([[1, 0, 0]] * 4 + [[1, 0]], [0, 0, 1]), "vectors"),
        (lambda: pentagon_pairwise_value([[0.0], [1.0, 2.0]]), "theta"),
        (lambda: pentagon_invasive_value([[0.0], [1.0, 2.0]]), "theta"),
        (lambda: pentagon_scan([[0.1], [0.2, 0.3]]), "theta grid"),
        (lambda: checked_reals(RAGGED, "x"), "x"),
        (lambda: mixed_state(RAGGED), "density matrix"),
        (lambda: slot((RAGGED,)), "per-qubit observable"),
        (lambda: checked_matrix(RAGGED, "m"), "m"),
        (lambda: pure_state([[1], [0, 0]]), "amplitudes"),
        (lambda: QuantumState(qubits=1, amplitudes=[[1], [0, 0]]), "amplitudes"),
        (lambda: correlator_sequential(basis_state(1, "0"), RAGGED_CHAIN), "observables"),
        (lambda: joint_distribution(basis_state(1, "0"), RAGGED_CHAIN), "observables"),
        (lambda: OutcomeDistribution(observables=[PAULI_Z], probabilities=[[1], [0, 0]]), "probabilities"),
    ], ids=["contextual_objective", "pentagon_pairwise_value", "pentagon_invasive_value", "pentagon_scan",
            "checked_reals", "mixed_state", "slot", "checked_matrix", "pure_state", "QuantumState",
            "correlator_sequential", "joint_distribution", "OutcomeDistribution"])
    def test_ragged_value_named(self, call, named):
        with pytest.raises(ValueError, match=f"^{named} cannot be read as an array of numbers: "):
            call()

    @pytest.mark.filterwarnings("error")
    def test_unreadable_entry_named(self):
        # complex("a") used to escape as "complex() arg is a malformed string"
        with pytest.raises(ValueError, match="^observables cannot be read as an array of numbers: complex"):
            correlator_sequential(basis_state(1, "0"), ["a"])


class TestWrongKindOfValueNamed:
    """A value of the wrong kind (a number where a sequence or a string goes, None
    or a negative number for a count or for amplitudes, a list for a table's name)
    is refused by a ValueError that names the argument and shows the value."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, named, value", [
        (lambda v: basis_state(2, v), "label", 5),
        (lambda v: basis_state(v, "01"), "qubit count", None),
        (state_from_literal, "state literal", None),
        (lambda v: haar_random_state(v, np.random.default_rng(0)), "qubit count", -1),
        (pure_state, "amplitudes", None),
        (slot, "observables", 5),
        (lambda v: TemporalCorrelationSpec(1, v), "slots", 5),
        (load_measured_table, "table", []),
        (visibility_summary, "table", []),
    ], ids=["basis_state label", "basis_state n", "state_from_literal", "haar_random_state", "pure_state",
            "slot", "TemporalCorrelationSpec", "load_measured_table", "visibility_summary"])
    def test_wrong_kind_named(self, call, named, value):
        with pytest.raises(ValueError) as raised:
            call(value)
        assert named in str(raised.value) and repr(value) in str(raised.value)
