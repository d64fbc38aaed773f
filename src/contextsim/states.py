"""Quantum register states: pure vectors, density matrices, pseudopure mixtures.

Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
basis label. Pure states are promoted to density matrices on demand; the
reverse demotion never happens.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, ATOL_STATE_PSD, as_matrix, matrix_sqrt_psd

MAX_QUBITS = 3  # largest register the random states and bitstring literals build


@dataclass(frozen=True)
class QuantumState:
    """A pure or mixed state on ``qubits`` qubits.

    Exactly one of ``amplitudes`` (length 2^n, unit norm) and ``rho``
    (2^n x 2^n, Hermitian, unit trace, positive semidefinite) is set.
    """

    qubits: int
    amplitudes: np.ndarray | None = None
    rho: np.ndarray | None = None

    def __post_init__(self):
        if self.qubits < 0:
            raise ValueError("qubit count must be non-negative")
        dim = 2 ** self.qubits
        if (self.amplitudes is None) == (self.rho is None):
            raise ValueError("exactly one of amplitudes and rho must be given")
        if self.amplitudes is not None:
            a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
            if a.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {a.size}")
            if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
                raise ValueError("amplitudes must be finite")
            if abs(np.vdot(a, a).real - 1.0) > ATOL:
                raise ValueError("pure state is not normalized")
            a = a.copy()
            a.setflags(write=False)
            object.__setattr__(self, "amplitudes", a)
        else:
            r = as_matrix(self.rho)
            if r.shape != (dim, dim):
                raise ValueError(f"expected a {dim}x{dim} density matrix, got {r.shape}")
            if np.max(np.abs(r - r.conj().T)) > ATOL:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(r).real - 1.0) > ATOL:
                raise ValueError("density matrix trace differs from 1")
            # stored symmetrized, so a stored density matrix is exactly Hermitian
            h = (r + r.conj().T) / 2
            if np.linalg.eigvalsh(h).min() < -ATOL_STATE_PSD:
                raise ValueError("density matrix has a negative eigenvalue")
            h.setflags(write=False)
            object.__setattr__(self, "rho", h)

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None


def pure_state(amplitudes) -> QuantumState:
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = int(round(np.log2(a.size)))
    if 2 ** n != a.size:
        raise ValueError(f"amplitude count {a.size} is not a power of two")
    return QuantumState(qubits=n, amplitudes=a)


def mixed_state(rho) -> QuantumState:
    r = as_matrix(rho)
    n = int(round(np.log2(r.shape[0])))
    if 2 ** n != r.shape[0]:
        raise ValueError(f"dimension {r.shape[0]} is not a power of two")
    return QuantumState(qubits=n, rho=r)


def density_of(state: QuantumState) -> np.ndarray:
    """The density matrix of a state, promoting pure vectors to projectors."""
    if state.is_pure:
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return np.asarray(state.rho)


def basis_state(n: int, label: str) -> QuantumState:
    """Computational basis state |label> on n qubits; label is a bitstring."""
    if len(label) != n:
        raise ValueError(f"label {label!r} does not have length {n}")
    if any(ch not in "01" for ch in label):
        raise ValueError(f"label {label!r} contains characters other than 0/1")
    a = np.zeros(2 ** n, dtype=complex)
    a[int(label, 2)] = 1.0
    return QuantumState(qubits=n, amplitudes=a)


def bell_phi_plus() -> QuantumState:
    """The two-qubit state (|00> + |11>)/sqrt(2)."""
    return pure_state(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def pseudopure(psi: QuantumState, epsilon: float) -> QuantumState:
    """Mixture (1-eps) I/2^n + eps |psi><psi| of the identity and a pure state."""
    if not psi.is_pure:
        raise ValueError("pseudopure construction needs a pure input state")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} out of [0, 1]")
    dim = 2 ** psi.qubits
    rho = (1 - epsilon) * np.eye(dim, dtype=complex) / dim + epsilon * density_of(psi)
    return QuantumState(qubits=psi.qubits, rho=rho)


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    When either side is a pure |psi> this reduces to <psi|sigma|psi>, which
    is evaluated directly (for two pure states, the squared overlap).
    """
    if a.qubits != b.qubits:
        raise ValueError("states live on different register sizes")
    if a.is_pure or b.is_pure:
        psi, other = (a, b) if a.is_pure else (b, a)
        f = float(np.vdot(psi.amplitudes, density_of(other) @ psi.amplitudes).real)
    else:
        sa = matrix_sqrt_psd(a.rho)
        inner = sa @ b.rho @ sa
        f = float(np.trace(matrix_sqrt_psd((inner + inner.conj().T) / 2)).real ** 2)
    return min(max(f, 0.0), 1.0)


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced density matrix over the kept qubit indices (ascending order).

    An empty ``keep`` is the degenerate full trace and yields the 1x1 matrix
    [[1]] on zero qubits.
    """
    n = state.qubits
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    rho = density_of(state).reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    for count, q in enumerate(traced):
        axis = q - sum(1 for t in traced[:count] if t < q)
        live = rho.ndim // 2
        rho = np.trace(rho, axis1=axis, axis2=axis + live)
    dim = 2 ** len(keep)
    return QuantumState(qubits=len(keep), rho=rho.reshape(dim, dim))


def random_pure_state(n: int, seed: int) -> QuantumState:
    """Haar-random pure state from a seeded PCG64 generator (n <= MAX_QUBITS)."""
    if n > MAX_QUBITS:
        raise ValueError(f"random states are only supported up to {MAX_QUBITS} qubits")
    rng = np.random.default_rng(seed)
    return haar_random_state(n, rng)


def haar_random_state(n: int, rng: np.random.Generator) -> QuantumState:
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return QuantumState(qubits=n, amplitudes=v / np.linalg.norm(v))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def fix_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a pure state so its first nonzero amplitude is real positive."""
    a = np.asarray(amplitudes, dtype=complex)
    for x in a:
        if abs(x) > 1e-12:
            return a * (x.conjugate() / abs(x))
    return a


def states_equal(a: QuantumState, b: QuantumState, atol: float = 1e-9) -> bool:
    """Equality up to global phase (pure) or entrywise (mixed)."""
    if a.qubits != b.qubits:
        return False
    if a.is_pure and b.is_pure:
        return bool(
            np.max(np.abs(fix_global_phase(a.amplitudes) - fix_global_phase(b.amplitudes))) <= atol
        )
    return bool(np.max(np.abs(density_of(a) - density_of(b))) <= atol)


def state_from_literal(literal: str) -> QuantumState:
    """Parse a CLI state literal: a bitstring, the token "bell", or a file path.

    A state file holds 2^n lines of "re im" amplitude pairs.
    """
    if literal == "bell":
        return bell_phi_plus()
    if literal and all(ch in "01" for ch in literal):
        if len(literal) > MAX_QUBITS:
            raise ValueError(f"bitstring state has {len(literal)} qubits, more than {MAX_QUBITS}")
        return basis_state(len(literal), literal)
    if os.path.exists(literal):
        pairs = []
        with open(literal, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"bad amplitude line {line!r} (expected 're im')")
                pairs.append(complex(float(fields[0]), float(fields[1])))
        return pure_state(np.array(pairs, dtype=complex))
    raise ValueError(f"unrecognized state literal {literal!r}")
