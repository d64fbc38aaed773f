"""Ground-truth simulation of invasive sequential projective measurements.

A chain of j dichotomic measurements is a ``(2^j, d, d)`` stack of
unnormalized branch states P_j ... P_1 rho P_1 ... P_j, one per outcome tuple
in ``itertools.product((1, -1), repeat=j)`` order (the first outcome varies
slowest). A branch's trace is the probability of its outcome tuple, so the
projection postulate's division by it is never taken and a zero-probability
branch is a zero matrix. For dichotomic observables the +-1 projectors are
(I +- O)/2 exactly, which sidesteps eigenvector phase ambiguity in degenerate
eigenspaces. The input state is validated where it enters, as a
``QuantumState``; the branches are not validated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, PRUNE_EPS, anticommutator, check_observable
from .states import QuantumState, density_of

# outcome value of index 0 (+1) and index 1 (-1) along each outcome axis
_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint distribution of a measurement sequence: ``probabilities`` has one
    axis per measurement, index 0 for outcome +1 and index 1 for -1."""

    observables: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        n = len(self.observables)
        p = np.array(self.probabilities, dtype=float)
        if p.shape != (2,) * n:
            raise ValueError(f"probabilities must have shape {(2,) * n}, got {p.shape}")
        if np.any(p < -PRUNE_EPS):
            raise ValueError("negative probability in outcome distribution")
        if abs(p.sum() - 1.0) > ATOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def correlator(self, axes=None) -> float:
        """Expectation of the product of the outcomes on ``axes`` (default: all)."""
        p = self.probabilities
        operands = [p, list(range(p.ndim))]
        for axis in range(p.ndim) if axes is None else axes:
            operands += [_SIGNS, [axis]]
        return float(np.einsum(*operands, []))


def luders_measure(branches: np.ndarray, obs) -> np.ndarray:
    """Measure one dichotomic observable on an ``(m, d, d)`` branch stack;
    returns the ``(2m, d, d)`` stack in which branch i splits into 2i (+1)
    and 2i + 1 (-1)."""
    m = obs.matrix if hasattr(obs, "matrix") else np.asarray(obs, dtype=complex)
    check_observable(m, "measured observable")
    if m.shape != branches.shape[1:]:
        raise ValueError("observable dimension does not match the state")
    eye = np.eye(m.shape[0])
    proj = np.stack([(eye + m) / 2, (eye - m) / 2])
    return (proj @ branches[:, None] @ proj).reshape(-1, *m.shape)


def joint_distribution(state: QuantumState, obs_seq) -> OutcomeDistribution:
    """Chain the measurements in sequence order; the final branch traces are
    the joint outcome probabilities."""
    obs_seq = tuple(obs_seq)
    branches = density_of(state)[None]
    for obs in obs_seq:
        branches = luders_measure(branches, obs)
    probs = np.trace(branches, axis1=1, axis2=2).real.reshape((2,) * len(obs_seq))
    return OutcomeDistribution(observables=obs_seq, probabilities=probs)


def correlator_sequential(state: QuantumState, obs_seq) -> float:
    """Expectation of the product of all outcomes of the chain."""
    return joint_distribution(state, obs_seq).correlator()


def two_time_formula(state: QuantumState, x_i, x_j) -> float:
    """Two-point correlator 0.5 * Re tr(rho {X_i, X_j})."""
    mi = x_i.matrix if hasattr(x_i, "matrix") else np.asarray(x_i)
    mj = x_j.matrix if hasattr(x_j, "matrix") else np.asarray(x_j)
    return float(0.5 * np.trace(density_of(state) @ anticommutator(mi, mj)).real)
