import numpy as np
import pytest

from contextsim.bounds import bell_operator
from contextsim.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    as_matrix,
    check_observable,
    sigma_theta_matrix,
)


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
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError):
            as_matrix([[1j * np.inf, 0], [0, 1]])

    def test_flat_entries_with_shape(self):
        m = as_matrix([1, 2, 3, 4, 5, 6], rows=2, cols=3)
        assert m.shape == (2, 3)
        with pytest.raises(ValueError):
            as_matrix([1, 2, 3], rows=2, cols=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 2)))


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
