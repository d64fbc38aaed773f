import numpy as np
import pytest

from contextsim.circuits import (
    Circuit,
    GateOp,
    apply,
    controlled,
    embed,
    full_gate_matrix,
    hadamard,
    ry_matrix,
    rz_matrix,
)
from contextsim.linalg import PAULI_I, PAULI_X, PAULI_Z
from contextsim.states import (
    basis_state,
    bell_phi_plus,
    density_of,
    haar_random_unitary,
    mixed_state,
    pure_state,
    random_pure_state,
)
from contextsim.noise import depolarize


def cnot(control, target):
    return controlled(control, PAULI_X, (target,), label="CNOT")


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


def series_expm(a, terms=60):
    """Taylor-series oracle for the matrix exponential."""
    out = np.eye(a.shape[0], dtype=complex)
    power = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        power = power @ a / k
        out = out + power
    return out


class TestStandardGates:
    def test_hadamard_on_zero(self):
        out = apply(Circuit(1, (hadamard(0),)), basis_state(1, "0"))
        assert np.allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2))

    def test_ry_conjugation_rotates_z_to_x(self):
        # 2x2 multiplication check of both conjugation orientations
        u = ry_matrix(np.pi / 2)
        assert np.allclose(u @ PAULI_Z @ u.conj().T, PAULI_X, atol=1e-12)
        assert np.allclose(
            ry_matrix(-np.pi / 2).conj().T @ PAULI_Z @ ry_matrix(-np.pi / 2), PAULI_X, atol=1e-12
        )

    def test_rz_full_turn_is_minus_identity(self):
        oracle = series_expm(-1j * np.pi * PAULI_Z)
        assert np.allclose(rz_matrix(2 * np.pi), oracle, atol=1e-12)
        assert np.allclose(rz_matrix(2 * np.pi), -np.eye(2), atol=1e-12)

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
        full = full_gate_matrix(controlled(0, u, [1], on=1), 2)
        expected = np.block(
            [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), u]]
        )
        assert np.allclose(full, expected)

    def test_on_zero_is_upper_block(self):
        u = haar_random_unitary(2, np.random.default_rng(1))
        full = full_gate_matrix(controlled(0, u, [1], on=0), 2)
        expected = np.block(
            [[u, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]
        )
        assert np.allclose(full, expected)

    def test_full_matrices_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = haar_random_unitary(4, rng)
            full = full_gate_matrix(controlled(0, u, [1, 2]), 3)
            assert np.max(np.abs(full.conj().T @ full - np.eye(8))) < 1e-9


class TestApply:
    def test_empty_circuit_is_identity(self):
        st = random_pure_state(2, 3)
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
            GateOp("RY", ry_matrix(0.7), (1,)),
            cnot(0, 1),
            GateOp("RZ", rz_matrix(-1.1), (0,)),
            controlled(1, haar_random_unitary(2, rng), [0]),
        )
        forward = Circuit(2, ops)
        backward = Circuit(
            2,
            tuple(
                GateOp(op.label, op.matrix.conj().T, op.targets, op.control, op.control_on)
                for op in reversed(ops)
            ),
        )
        st = random_pure_state(2, 5)
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
        circ = Circuit(2, (hadamard(1), cnot(1, 0), GateOp("RY", ry_matrix(2.2), (0,))))
        pure = apply(circ, random_pure_state(2, 7))
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
