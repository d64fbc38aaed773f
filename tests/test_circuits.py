import numpy as np
import pytest

from contextsim.circuits import (
    HADAMARD,
    Circuit,
    GateOp,
    apply,
    embed,
    full_gate_matrix,
)
from contextsim.linalg import PAULI_I, PAULI_X, PAULI_Z
from contextsim.states import (
    basis_state,
    bell_phi_plus,
    density_of,
    haar_random_state,
    haar_random_unitary,
    mixed_state,
    pure_state,
)
from contextsim.noise import depolarize


def ry(theta):
    """The y rotation exp(-i theta sigma_y / 2), a sample gate."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hadamard(target):
    return GateOp("H", HADAMARD, (target,))


def cnot(control, target):
    return GateOp("CNOT", PAULI_X, (target,), control=control)


def bell_prep_circuit():
    """Hadamard then CNOT on qubits 1 and 2 of a three-qubit register: on
    |000> it leaves qubit 0 in |0> and qubits 1, 2 in (|00> + |11>)/sqrt(2)."""
    return Circuit(3, (hadamard(1), cnot(1, 2)))


def circuit_unitary(circuit):
    """The full-register unitary of a circuit: the product of its gate
    matrices, later gates on the left."""
    u = np.eye(2 ** circuit.qubits, dtype=complex)
    for op in circuit.ops:
        u = full_gate_matrix(op, circuit.qubits) @ u
    return u


class TestStandardGates:
    def test_hadamard_on_zero(self):
        out = apply(Circuit(1, (hadamard(0),)), basis_state(1, "0"))
        assert np.allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2))

    def test_cnot_truth_table(self):
        out = apply(Circuit(2, (cnot(0, 1),)), basis_state(2, "10"))
        assert np.allclose(out.amplitudes, basis_state(2, "11").amplitudes, rtol=0, atol=1e-9)
        out = apply(Circuit(2, (cnot(0, 1),)), basis_state(2, "00"))
        assert np.allclose(out.amplitudes, basis_state(2, "00").amplitudes, rtol=0, atol=1e-9)


class TestGateOpValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            GateOp("bad", np.array([[1, 1], [0, 1]], dtype=complex), (0,))

    def test_control_overlap_rejected(self):
        with pytest.raises(ValueError):
            GateOp("bad", PAULI_X, (0,), control=0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Circuit(1, (GateOp("X", PAULI_X, (3,)),))

    @pytest.mark.parametrize("target", [0.7, 1.0, True, "0", -1])
    def test_target_must_be_a_qubit_index(self, target):
        # a fractional target used to be truncated to qubit 0
        with pytest.raises(ValueError, match="target qubit"):
            GateOp("X", PAULI_X, (target,))

    @pytest.mark.parametrize("control", [True, 0.7, 1.0, "1", -1])
    def test_control_must_be_a_qubit_index(self, control):
        # a bool control used to be stored as is and accepted by Circuit
        with pytest.raises(ValueError, match="control qubit"):
            GateOp("X", PAULI_X, (0,), control=control)

    @pytest.mark.parametrize("on", [1.0, True, 2, -1, "1"])
    def test_control_polarity_must_be_0_or_1(self, on):
        # a float polarity used to construct and then fail in apply as a slice index
        with pytest.raises(ValueError, match="control polarity"):
            GateOp("X", PAULI_X, (1,), control=0, control_on=on)

    def test_numpy_indices_stored_as_ints(self):
        op = GateOp("X", PAULI_X, (np.int64(1),), control=np.int32(0), control_on=np.int64(1))
        assert op.targets == (1,) and type(op.targets[0]) is int
        assert op.control == 0 and type(op.control) is int
        assert op.control_on == 1 and type(op.control_on) is int
        assert Circuit(2, (op,)).ops == (op,)


class TestEmbed:
    def test_first_qubit(self):
        assert np.allclose(embed(PAULI_Z, [0], 2), np.kron(PAULI_Z, PAULI_I))

    def test_second_qubit(self):
        assert np.allclose(embed(PAULI_X, [1], 2), np.kron(PAULI_I, PAULI_X))

    def test_non_adjacent_targets_via_permutation_oracle(self):
        zz = np.kron(PAULI_Z, PAULI_Z)
        got = embed(zz, [0, 2], 3)
        assert np.allclose(got, np.kron(PAULI_Z, np.kron(PAULI_I, PAULI_Z)))
        # independent oracle: permutation matrix for qubit order (0, 2, 1)
        perm = np.zeros((8, 8))
        for x in range(8):
            bits = [(x >> 2) & 1, (x >> 1) & 1, x & 1]
            y = (bits[0] << 2) | (bits[2] << 1) | bits[1]
            perm[y, x] = 1.0
        oracle = perm.T @ np.kron(zz, PAULI_I) @ perm
        assert np.allclose(got, oracle)

    def test_target_order_matters(self):
        zx = np.kron(PAULI_Z, PAULI_X)
        assert np.allclose(embed(zx, [1, 0], 2), np.kron(PAULI_X, PAULI_Z))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            embed(np.eye(4), [0, 0], 2)


class TestControlledPolarity:
    def test_on_one_is_lower_block(self):
        u = haar_random_unitary(2, np.random.default_rng(0))
        full = full_gate_matrix(GateOp("ctrl-U", u, (1,), control=0, control_on=1), 2)
        expected = np.block(
            [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), u]]
        )
        assert np.allclose(full, expected)

    def test_on_zero_is_upper_block(self):
        u = haar_random_unitary(2, np.random.default_rng(1))
        full = full_gate_matrix(GateOp("ctrl-U", u, (1,), control=0, control_on=0), 2)
        expected = np.block(
            [[u, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]
        )
        assert np.allclose(full, expected)

    def test_full_matrices_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = haar_random_unitary(4, rng)
            full = full_gate_matrix(GateOp("ctrl-U", u, (1, 2), control=0), 3)
            assert np.max(np.abs(full.conj().T @ full - np.eye(8))) < 1e-9


class TestEvolveAxisBookkeeping:
    """A control between two targets given out of order: the control slice
    drops an axis, so target 3 is axis 2 of the slice while target 1 stays
    axis 1. Pinned here so that this case runs on every test run."""

    def _gate_and_oracle(self):
        u = haar_random_unitary(4, np.random.default_rng(11))
        op = GateOp("ctrl-U", u, (3, 1), control=2, control_on=0)
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        # in qubit order (3, 1, 2, 0): u on (3, 1) when qubit 2 is |0>, identity elsewhere
        ordered = np.kron(np.kron(u, p0) + np.kron(np.eye(4), p1), PAULI_I)
        order = (3, 1, 2, 0)
        axes = [order.index(q) for q in range(4)]
        full = ordered.reshape([2] * 8).transpose(axes + [4 + a for a in axes]).reshape(16, 16)
        return Circuit(4, (op,)), full

    def test_pure_matches_permuted_kron_oracle(self):
        circ, full = self._gate_and_oracle()
        rng = np.random.default_rng(12)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = pure_state(psi / np.linalg.norm(psi))
        before = state.amplitudes.copy()
        assert np.max(np.abs(apply(circ, state).amplitudes - full @ state.amplitudes)) < 1e-12
        assert np.array_equal(state.amplitudes, before)

    def test_mixed_matches_permuted_kron_oracle(self):
        circ, full = self._gate_and_oracle()
        rng = np.random.default_rng(13)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = a @ a.conj().T
        state = mixed_state((rho + rho.conj().T) / (2 * np.trace(rho).real))
        before = state.rho.copy()
        assert np.max(np.abs(apply(circ, state).rho - full @ state.rho @ full.conj().T)) < 1e-12
        assert np.array_equal(state.rho, before)


class TestApply:
    def test_empty_circuit_is_identity(self):
        st = haar_random_state(2, np.random.default_rng(3))
        assert np.allclose(apply(Circuit(2), st).amplitudes, st.amplitudes, rtol=0, atol=1e-9)

    def test_prep_circuit_makes_probe_bell_product(self):
        out = apply(bell_prep_circuit(), basis_state(3, "000"))
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)  # |0> x (|00> + |11>)/sqrt2
        assert np.allclose(out.amplitudes, expected)

    def test_inverse_circuit_roundtrip(self):
        rng = np.random.default_rng(4)
        ops = (
            hadamard(0),
            GateOp("RY", ry(0.7), (1,)),
            cnot(0, 1),
            GateOp("RZ", np.diag(np.exp([0.55j, -0.55j])), (0,)),
            GateOp("ctrl-U", haar_random_unitary(2, rng), (0,), control=1),
        )
        forward = Circuit(2, ops)
        backward = Circuit(
            2,
            tuple(
                GateOp(op.label, op.matrix.conj().T, op.targets, op.control, op.control_on)
                for op in reversed(ops)
            ),
        )
        st = haar_random_state(2, np.random.default_rng(5))
        out = apply(backward, apply(forward, st))
        assert np.allclose(out.amplitudes, st.amplitudes, rtol=0, atol=1e-10)

    def test_mixed_state_transform(self):
        st = depolarize(bell_phi_plus(), 0.5)
        circ = Circuit(2, (hadamard(0), cnot(0, 1)))
        out = apply(circ, st)
        u = circuit_unitary(circ)
        assert np.allclose(density_of(out), u @ density_of(st) @ u.conj().T, atol=1e-12)

    def test_norm_trace_positivity_preserved(self):
        rng = np.random.default_rng(6)
        circ = Circuit(2, (hadamard(1), cnot(1, 0), GateOp("RY", ry(2.2), (0,))))
        pure = apply(circ, haar_random_state(2, np.random.default_rng(7)))
        assert abs(np.vdot(pure.amplitudes, pure.amplitudes).real - 1) < 1e-9
        mixed = apply(circ, mixed_state(np.eye(4) / 4))
        rho = density_of(mixed)
        assert abs(np.trace(rho).real - 1) < 1e-9
        assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(Circuit(2), basis_state(1, "0"))

    def test_circuit_unitary_matches_composition(self):
        circ = Circuit(2, (hadamard(0), cnot(0, 1)))
        h_full = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
        cnot_full = np.zeros((4, 4))
        for a, b in ((0, 0), (1, 1), (2, 3), (3, 2)):
            cnot_full[a, b] = 1.0
        assert np.allclose(circuit_unitary(circ), cnot_full @ h_full)

    def test_pure_output_of_prep_on_plus_inputs(self):
        plus = pure_state(np.ones(2) / np.sqrt(2))
        joint = np.kron(np.kron(plus.amplitudes, [1, 0]), [1, 0])
        out = apply(bell_prep_circuit(), pure_state(joint))
        assert out.is_pure
