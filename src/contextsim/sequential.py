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

Chains carry leading batch axes. The observables of a chain are one complex
array of shape ``batch + (k, d, d)``: measurement k of every chain in the
batch sits at ``[..., k, :, :]``. All chains start from the same state, so
the branch stack has shape ``batch + (2^j, d, d)`` and the joint
distribution ``batch + (2,)*k``. A single chain is the batch of shape ``()``.
Each check runs on the whole stack at once, with the tolerances of a single
chain: at every step each observable must be finite, Hermitian and square to
I, and at the end each distribution must be non-negative and sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, PRUNE_EPS, check_observable
from .states import QuantumState, density_of

# outcome value of index 0 (+1) and index 1 (-1) along each outcome axis
_SIGNS = np.array([1.0, -1.0])


def _observable_stack(obs_seq) -> np.ndarray:
    """A chain's observables as one complex array of shape ``batch + (k, d, d)``.

    An array is taken as it is. A sequence of matrices or ``Observable``
    values (read through ``.matrix``) is stacked into a chain of batch ``()``.
    """
    if not isinstance(obs_seq, np.ndarray):
        obs_seq = [getattr(obs, "matrix", obs) for obs in obs_seq] or np.empty((0, 0, 0))
    stack = np.asarray(obs_seq, dtype=complex)
    if stack.ndim < 3:
        raise ValueError(f"observables must have shape batch + (k, d, d), got {stack.shape}")
    return stack


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint distribution of a batch of measurement sequences: ``observables``
    has shape ``batch + (k, d, d)`` and ``probabilities`` has shape
    ``batch + (2,)*k``, index 0 for outcome +1 and index 1 for -1 along each
    measurement axis."""

    observables: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        obs = _observable_stack(self.observables)
        shape = obs.shape[:-3] + (2,) * obs.shape[-3]
        p = np.array(self.probabilities, dtype=float)
        if p.shape != shape:
            raise ValueError(f"probabilities must have shape {shape}, got {p.shape}")
        # written so that NaN fails both checks
        sums = p.reshape(*obs.shape[:-3], -1).sum(axis=-1)
        if not np.abs(sums - 1.0).max() <= ATOL:
            raise ValueError(f"probabilities sum to {sums[~(np.abs(sums - 1.0) <= ATOL)][0]}, not 1")
        if not p.min() >= -PRUNE_EPS:
            raise ValueError("negative probability in outcome distribution")
        p.setflags(write=False)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "probabilities", p)

    def correlator(self, axes=None):
        """Expectation of the product of the outcomes on ``axes`` (default:
        all), one per chain: a float for a single chain, an array of shape
        ``batch`` for a batch."""
        p = self.probabilities
        b = self.observables.ndim - 3
        operands = [p, list(range(p.ndim))]
        for axis in range(p.ndim - b) if axes is None else axes:
            operands += [_SIGNS, [b + axis]]
        value = np.einsum(*operands, list(range(b)))
        return float(value) if b == 0 else value


def luders_measure(branches: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Measure one dichotomic observable per chain: ``obs`` has shape
    ``batch + (d, d)`` and ``branches`` a shape that broadcasts with
    ``batch + (m, d, d)``. Returns the ``batch + (2m, d, d)`` stack in which
    branch i splits into 2i (+1) and 2i + 1 (-1)."""
    m = np.asarray(obs, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("measured observable has non-finite entries")
    check_observable(m, "measured observable")
    if m.shape[-2:] != branches.shape[-2:]:
        raise ValueError("observable dimension does not match the state")
    # batch + (1, 2, d, d): the +1 and -1 projectors (I +- O)/2
    proj = (np.eye(m.shape[-1]) + _SIGNS[:, None, None] * m[..., None, None, :, :]) / 2
    split = proj @ branches[..., :, None, :, :] @ proj
    return split.reshape(split.shape[:-4] + (-1,) + m.shape[-2:])


def joint_distribution(state: QuantumState, obs_seq) -> OutcomeDistribution:
    """Chain the measurements in sequence order, every chain of the batch on
    ``state``; the final branch traces are the joint outcome probabilities."""
    obs = _observable_stack(obs_seq)
    batch, k = obs.shape[:-3], obs.shape[-3]
    rho = density_of(state)
    branches = rho.reshape((1,) * (obs.ndim - 2) + rho.shape)  # broadcasts against every chain
    for i in range(k):
        branches = luders_measure(branches, obs[..., i, :, :])
    probs = np.trace(branches, axis1=-2, axis2=-1).real.reshape(batch + (2,) * k)
    return OutcomeDistribution(observables=obs, probabilities=probs)


def correlator_sequential(state: QuantumState, obs_seq):
    """Expectation of the product of all outcomes of each chain."""
    return joint_distribution(state, obs_seq).correlator()
