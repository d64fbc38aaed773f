"""Dense complex matrix helpers for dimensions up to 16: the tolerance table
(every tolerance of the package, named once below the imports with where its
value comes from), the Pauli matrices, the package's one sigma(theta)
(:func:`sigma_theta_matrix`, read by every cycle, pentagram and Bell block and
by the Bell search), U^dag O U, and validation.

All operators that this package stores are plain ``numpy.ndarray`` values of
dtype complex128 in row-major order. One computation works on float64 real
parts instead: a Lüders chain whose state and observables all have zero
imaginary part (see ``sequential``), for which :func:`check_observable` takes
real stacks as well. Every matrix that a constructor takes from its caller
goes through :func:`checked_matrix`; only a matrix the package built from
checked values may be stored without it (see ``states.QuantumState``). Every
count read from user input goes through :func:`checked_count`, every angle
argument through :func:`checked_angles`, every other real number through
:func:`checked_real` and every real vector through :func:`checked_reals`.
Operations are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# The tolerance table: name, value, and where the value comes from; all absolute.
ATOL = 1e-10              # round-off of d <= 16 products: hermiticity, unitarity, normalization, trace
ATOL_DICHOTOMIC = 1e-9    # round-off of O @ O for O^2 = I and spectral-reconstruction checks
ATOL_STATE_PSD = 1e-9     # round-off of eigvalsh: the eigenvalue floor accepted for density matrices
VERDICT_EPS = 1e-9        # a verdict's margin: a sum beats its bound only by more than this
CONSTRAINT_ATOL = 1e-6    # a side condition <A_j B_j> = 1 holds within this
FIT_TOL = 1e-6            # bracket width of the visibility fit's golden-section search
SEARCH_TOL = 1e-9         # default tolerance of the bound searches, and the cap on a descent line's bracket
SEESAW_LINE_TOL = 1e-11   # bracket width of a seesaw line's golden-section search
START_FLOOR = 1e-8        # seesaw start: a shorter drawn vector is a degenerate draw, redrawn
PLANE_FLOOR = 1e-10       # seesaw line: u_i this close to parallel to u_{i-1} has no plane to turn in
PIN_FLOOR = 1e-12         # seesaw: a shorter re-pinned cross product is a degenerate pin
REPLACE_MARGIN = 1e-15    # a contextual restart replaces the kept one only when this much lower

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def sigma_theta_matrix(theta) -> np.ndarray:
    """cos(theta) sigma_z + sin(theta) sigma_x, unvalidated (dichotomic for
    every angle); an array of angles gives a stack of shape ``(..., 2, 2)``."""
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X


def conjugated(o: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U^dag O U, unvalidated, for matrices or stacks ``(..., d, d)`` (U may be ``(..., d, m)``)."""
    return u.conj().swapaxes(-1, -2) @ o @ u


def check_observable(m: np.ndarray, what: str, dichotomic: bool = True) -> None:
    """Raise ValueError unless ``m`` is finite, Hermitian and, when
    ``dichotomic``, squares to the identity; a stack of shape ``(..., d, d)``
    is checked matrix by matrix, complex or real."""
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= ATOL:
        raise ValueError(f"{what} is not Hermitian")
    if dichotomic and not np.abs(m @ m - np.eye(m.shape[-1])).max() <= ATOL_DICHOTOMIC:
        raise ValueError(f"{what} does not square to the identity")


def checked_matrix(entries, what: str, shape: tuple[int, int] | None = None,
                   kind: str | None = None) -> np.ndarray:
    """A read-only complex copy of ``entries``, which must be a non-empty
    finite 2-d matrix of ``shape`` (any shape when None) that is ``kind``:
    "unitary" (to ATOL), "hermitian" or "dichotomic" (see
    :func:`check_observable`), or anything when None. ValueError names ``what``."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{what} must be a non-empty 2-d matrix, got shape {m.shape}")
    if m.shape != (shape or m.shape) or (kind and m.shape[0] != m.shape[1]):
        raise ValueError(f"{what} has shape {m.shape}, expected {shape or 'a square matrix'}")
    if kind in ("hermitian", "dichotomic"):
        check_observable(m, what, dichotomic=kind == "dichotomic")
    elif not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    elif kind == "unitary" and not np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= ATOL:
        raise ValueError(f"{what} is not unitary within tolerance")
    m.setflags(write=False)
    return m


def _holds_bool(theta) -> bool:
    """Whether a list or tuple holds a bool (``np.bool_`` included) at any
    depth; numpy reads one as a number when it sits beside one."""
    return isinstance(theta, (list, tuple)) and any(
        isinstance(x, bool) or getattr(x, "dtype", None) == bool
        for x in np.asarray(theta, dtype=object).flat
    )


def checked_angles(theta, what: str, scalar: bool = False):
    """``theta`` in radians: a float for one angle, a float64 array for an
    array of them (refused when ``scalar``). Integers and floats pass; bools,
    also inside a list or tuple, strings, complex and non-finite values raise
    ValueError naming ``what`` before any numpy arithmetic can warn or pick
    another dtype."""
    a = np.asarray(theta)
    if a.dtype.kind not in "iuf" or (a.ndim and (scalar or _holds_bool(theta))):
        kind = "a real number" if scalar else "real numbers"
        raise ValueError(f"{what} must be {kind} of radians, got {theta!r}")
    if a.ndim == 0:  # one angle: a Python float check, several times faster
        a = float(a)
        bad = [] if math.isfinite(a) else [a]
    else:
        a = a.astype(float)
        bad = a[~np.isfinite(a)]
    if len(bad):
        raise ValueError(f"{what} holds a non-finite angle: {bad[0]}")
    return a


def checked_real(value, what: str) -> float:
    """``value`` as a float, by the rule of :func:`checked_angles`: integers and
    floats pass; bools, strings, complex, arrays and non-finite values (an
    integer beyond the float range too) raise ValueError naming ``what``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    # a Python int compares exactly, where float() of one beyond the float range raises
    if not (real and abs(value if isinstance(value, int) else float(value)) <= sys.float_info.max):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def checked_reals(value, what: str, shape: tuple, kind: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape``; another shape or dtype, a bool
    (also inside a list or tuple) or a non-finite entry raises ValueError."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or a.shape != shape or _holds_bool(value) or not np.isfinite(a).all():
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return a.astype(float)


def checked_count(value, what: str, minimum: int = 0, maximum: int | None = None) -> int:
    """``value`` as an int from ``minimum`` to ``maximum`` (unbounded when
    None). Python and numpy integers pass; bools, floats and strings raise
    ValueError naming ``what`` instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{what} must be at most {maximum}, got {value}")
    return int(value)
