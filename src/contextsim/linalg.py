"""Dense complex matrix helpers for dimensions up to 16: shared tolerances,
the Pauli matrices, sigma(theta), and validation.

All operators in this package are plain ``numpy.ndarray`` values of dtype
complex128 in row-major order; :func:`as_matrix` is the validating
constructor. Operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerances, shared package-wide. All comparisons are absolute.
ATOL = 1e-10          # hermiticity, unitarity, normalization, trace checks
ATOL_DICHOTOMIC = 1e-9  # O^2 = I and spectral-reconstruction checks
ATOL_STATE_PSD = 1e-9   # eigenvalue floor accepted for density matrices
PRUNE_EPS = 1e-12       # negative-probability floor for outcome distributions

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def as_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validating constructor: a finite complex matrix in row-major order.

    ``entries`` may be a nested sequence, a flat sequence together with
    explicit ``rows``/``cols``, or an existing array. Non-finite entries
    (NaN/Inf) are rejected.
    """
    a = np.asarray(entries, dtype=complex)
    if rows is not None or cols is not None:
        if rows is None or cols is None:
            raise ValueError("rows and cols must be given together")
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if a.size != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {a.size}")
        a = a.reshape(rows, cols)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(a)


def sigma_theta_matrix(theta) -> np.ndarray:
    """cos(theta) sigma_z + sin(theta) sigma_x, unvalidated (dichotomic for
    every angle); an array of angles gives a stack of shape ``(..., 2, 2)``."""
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X


def check_observable(m: np.ndarray, what: str, dichotomic: bool = True) -> None:
    """Raise ValueError unless ``m`` is Hermitian and, when ``dichotomic``,
    squares to the identity; a stack of shape ``(..., d, d)`` is checked
    matrix by matrix. NaN entries fail both checks."""
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= ATOL:
        raise ValueError(f"{what} is not Hermitian")
    if dichotomic and not np.abs(m @ m - np.eye(m.shape[-1])).max() <= ATOL_DICHOTOMIC:
        raise ValueError(f"{what} does not square to the identity")
