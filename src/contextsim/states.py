"""Quantum register states: pure vectors and density matrices.

Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
basis label. Pure states are promoted to density matrices on demand; the
reverse demotion never happens.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, ATOL_STATE_PSD, checked_count, checked_matrix

# largest register that random states, bitstring literals and the probe route build
MAX_QUBITS = 3


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure or mixed state on ``qubits`` qubits.

    Exactly one of ``amplitudes`` (length 2^n, unit norm) and ``rho``
    (2^n x 2^n, Hermitian, unit trace, positive semidefinite) is set.

    Every state is checked here; only ``basis_state`` and ``depolarize`` may
    skip the checks, through ``_unchecked``, for arrays they built from
    checked values with these properties (a density matrix exactly Hermitian).
    """

    qubits: int
    amplitudes: np.ndarray | None = None
    rho: np.ndarray | None = None

    def __post_init__(self):
        n = checked_count(self.qubits, "qubit count")
        object.__setattr__(self, "qubits", n)
        dim = 2 ** n
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
            r = checked_matrix(self.rho, "density matrix", (dim, dim), "hermitian")
            if abs(np.trace(r).real - 1.0) > ATOL:
                raise ValueError("density matrix trace differs from 1")
            # stored symmetrized, so a stored density matrix is exactly Hermitian
            h = (r + r.conj().T) / 2
            if np.linalg.eigvalsh(h).min() < -ATOL_STATE_PSD:
                raise ValueError("density matrix has a negative eigenvalue")
            h.setflags(write=False)
            object.__setattr__(self, "rho", h)

    @classmethod
    def _unchecked(cls, qubits: int, amplitudes=None, rho=None) -> QuantumState:
        """The state of the given fresh arrays, made read-only, without the checks."""
        for a in (amplitudes, rho):
            if a is not None:
                a.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(qubits=qubits, amplitudes=amplitudes, rho=rho)
        return state

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None


def _qubit_count(dim: int) -> int:
    """n with 2^n = dim; ValueError for any other dimension, 0 included."""
    n = dim.bit_length() - 1
    if dim < 1 or 2 ** n != dim:
        raise ValueError(f"register dimension {dim} is not a power of two")
    return n


def pure_state(amplitudes) -> QuantumState:
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return QuantumState(qubits=_qubit_count(a.size), amplitudes=a)


def mixed_state(rho) -> QuantumState:
    r = checked_matrix(rho, "density matrix")
    return QuantumState(qubits=_qubit_count(r.shape[0]), rho=r)


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
    n = checked_count(n, "qubit count")
    a = np.zeros(2 ** n, dtype=complex)
    a[int(label, 2)] = 1.0  # exactly one-hot, so of unit norm
    return QuantumState._unchecked(n, amplitudes=a)


_BELL_PHI_PLUS = pure_state(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def bell_phi_plus() -> QuantumState:
    """The two-qubit state (|00> + |11>)/sqrt(2): one frozen state, checked
    once at import, with read-only amplitudes."""
    return _BELL_PHI_PLUS


def random_pure_state(n: int, seed: int) -> QuantumState:
    """Haar-random pure state from a seeded PCG64 generator (n <= MAX_QUBITS)."""
    if checked_count(n, "qubit count") > MAX_QUBITS:
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
        try:
            with open(literal, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:  # a directory, a file that cannot be read, not UTF-8
            raise ValueError(f"bad state file {literal!r}: {exc}") from exc
        pairs = []
        for n, line in enumerate(lines, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            try:
                if len(fields) != 2:
                    raise ValueError("expected 're im'")
                pairs.append(complex(float(fields[0]), float(fields[1])))
            except ValueError as exc:
                raise ValueError(f"bad state file {literal!r}: line {n} {line.strip()!r}: {exc}") from None
        try:
            return pure_state(np.array(pairs, dtype=complex))
        except ValueError as exc:  # no amplitudes, a count that is not a power of two, not normalized
            raise ValueError(f"bad state file {literal!r}: {exc}") from None
    raise ValueError(f"unrecognized state literal {literal!r}")
