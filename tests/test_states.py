import numpy as np
import pytest

from contextsim.circuits import Circuit, GateOp
from contextsim.inequalities import pm_observable
from contextsim.linalg import PAULI_X, PAULI_Z
from contextsim.noise import depolarize
from contextsim.scattering import TemporalCorrelationSpec, slot
from contextsim.sequential import joint_distribution
from contextsim.states import (
    QuantumState,
    basis_state,
    bell_phi_plus,
    density_of,
    haar_random_state,
    haar_random_unitary,
    mixed_state,
    pure_state,
    state_from_literal,
)


def expectation(state, op):
    return float(np.trace(density_of(state) @ op).real)


class TestBasisStates:
    def test_two_qubit_zero(self):
        assert np.array_equal(basis_state(2, "00").amplitudes, [1, 0, 0, 0])

    def test_single_one(self):
        assert np.array_equal(basis_state(1, "1").amplitudes, [0, 1])

    def test_three_qubit_zero(self):
        a = basis_state(3, "000").amplitudes
        assert a[0] == 1 and np.count_nonzero(a) == 1

    def test_bad_label(self):
        with pytest.raises(ValueError):
            basis_state(2, "02")
        with pytest.raises(ValueError):
            basis_state(2, "0")

    def test_zero_qubits_is_the_one_amplitude_state(self):
        # int("", 2) used to raise; QuantumState and pure_state([1]) admit 0 qubits
        state = basis_state(0, "")
        assert state.qubits == 0
        assert state.amplitudes.tobytes() == pure_state([1]).amplitudes.tobytes()

    def test_bool_qubit_count_refused(self):
        # len("1") == True, so only the qubit-count check refuses it
        with pytest.raises(ValueError, match="qubit count must be an integer"):
            basis_state(True, "1")


class TestBellState:
    def test_norm(self):
        a = bell_phi_plus().amplitudes
        assert abs(np.vdot(a, a).real - 1) < 1e-12

    def test_zz_expectation(self):
        # 4x4 expectation oracle, operators entered by hand
        zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert abs(expectation(bell_phi_plus(), zz) - 1.0) < 1e-12

    def test_zx_expectation(self):
        zx = np.kron(PAULI_Z, PAULI_X)
        assert abs(expectation(bell_phi_plus(), zx)) < 1e-12


class TestValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            pure_state([1.0, 1.0])

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            mixed_state(np.eye(2))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            mixed_state(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_amplitude_count_not_a_power_of_two(self, size):
        with pytest.raises(ValueError, match="power of two"):
            pure_state(np.zeros(size))

    def test_dimension_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            mixed_state(np.eye(3) / 3)

    @pytest.mark.parametrize("qubits", [True, 1.0, "1"])
    def test_qubit_count_must_be_an_integer(self, qubits):
        with pytest.raises(ValueError, match="qubit count must be an integer"):
            QuantumState(qubits=qubits, amplitudes=[1.0, 0.0])

    def test_numpy_qubit_count_stored_as_int(self):
        assert type(QuantumState(qubits=np.int64(1), amplitudes=[1.0, 0.0]).qubits) is int

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            mixed_state(np.diag([1.5, -0.5]))

    def test_eigenvalue_below_the_floor_rejected_by_the_constructor(self):
        # 2e-9 below 0, past ATOL_STATE_PSD, on an otherwise valid matrix
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState(qubits=1, rho=np.diag([1 + 2e-9, -2e-9]))

    def test_density_idempotent_for_pure(self):
        rho = density_of(haar_random_state(2, np.random.default_rng(9)))
        assert np.max(np.abs(rho @ rho - rho)) < 1e-9


class TestPseudopure:
    """The pseudopure mixture (1-eps) I/2^n + eps |psi><psi| is the
    depolarized state at p = 1 - eps."""

    def test_epsilon_one_is_projector(self):
        psi = basis_state(2, "01")
        assert np.allclose(density_of(depolarize(psi, 0.0)), density_of(psi))

    def test_epsilon_zero_is_maximally_mixed(self):
        psi = basis_state(2, "01")
        assert np.allclose(density_of(depolarize(psi, 1.0)), np.eye(4) / 4)

    def test_unit_trace_and_hermiticity_exact(self):
        rho = density_of(depolarize(bell_phi_plus(), 1 - 0.37))
        assert np.trace(rho).real == pytest.approx(1.0, abs=0)
        assert np.array_equal(rho, rho.conj().T)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            depolarize(basis_state(1, "0"), 1 - 1.2)


class TestRandomStates:
    def test_norm_and_determinism(self):
        for seed in (0, 7, 123):
            a = haar_random_state(2, np.random.default_rng(seed))
            b = haar_random_state(2, np.random.default_rng(seed))
            assert abs(np.vdot(a.amplitudes, a.amplitudes).real - 1) < 1e-12
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_distinct_seeds_differ(self):
        assert not np.allclose(haar_random_state(2, np.random.default_rng(0)).amplitudes, haar_random_state(2, np.random.default_rng(1)).amplitudes)

    def test_sigma_z_mean_over_many_seeds(self):
        total = 0.0
        for seed in range(10_000):
            a = haar_random_state(1, np.random.default_rng(seed)).amplitudes
            total += abs(a[0]) ** 2 - abs(a[1]) ** 2
        assert abs(total / 10_000) < 0.05

    def test_haar_unitary_is_unitary(self):
        u = haar_random_unitary(4, np.random.default_rng(8))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestLiteralsAndPhase:
    def test_bitstring(self):
        assert np.array_equal(state_from_literal("01").amplitudes, [0, 1, 0, 0])

    def test_bell_token(self):
        assert np.array_equal(state_from_literal("bell").amplitudes, bell_phi_plus().amplitudes)

    def test_file_literal(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# a plus state\n0.7071067811865476 0\n0.7071067811865476 0\n")
        st = state_from_literal(str(path))
        assert st.qubits == 1
        assert abs(st.amplitudes[0] - st.amplitudes[1]) < 1e-12

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            state_from_literal("bogus")

    def test_global_phase_equality(self):
        # a global phase changes the amplitudes but not the state
        a = haar_random_state(2, np.random.default_rng(11))
        b = QuantumState(qubits=2, amplitudes=np.exp(1j * 0.9) * a.amplitudes)
        assert not np.allclose(a.amplitudes, b.amplitudes)
        assert np.allclose(density_of(a), density_of(b), atol=1e-12)


# every frozen value that holds arrays compares by identity and hashes by it,
# where a field-by-field == would ask an array for its truth value
ARRAY_HOLDERS = {
    "QuantumState": lambda: pure_state([1, 0]),
    "TimeSlot": lambda: slot((PAULI_Z,)),
    "TemporalCorrelationSpec": lambda: TemporalCorrelationSpec(1, (slot((PAULI_Z,)),)),
    "GateOp": lambda: GateOp("X", PAULI_X, (0,)),
    "Circuit": lambda: Circuit(1, (GateOp("X", PAULI_X, (0,)),)),
    "Observable": lambda: pm_observable("A"),
    "OutcomeDistribution": lambda: joint_distribution(pure_state([1, 0]), (PAULI_Z,)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_equality_and_hash_answer(name):
    value, twin = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(value).__name__ == name
    assert value == value and value != twin
    assert hash(value) == hash(value) and len({value, twin}) == 2
