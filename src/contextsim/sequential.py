"""Ground-truth simulation of invasive sequential projective measurements.

A chain of j dichotomic measurements is a ``(2^j, d, d)`` stack of
unnormalized branch states P_j ... P_1 rho P_1 ... P_j, one per outcome tuple
in ``itertools.product((1, -1), repeat=j)`` order (the first outcome varies
slowest). A branch's trace is the probability of its outcome tuple, so the
projection postulate's division by it is never taken and a zero-probability
branch is a zero matrix. For dichotomic observables the +-1 projectors are
(I +- O)/2 exactly, which sidesteps eigenvector phase ambiguity in degenerate
eigenspaces.

Chains carry leading batch axes. The observables of a chain are one complex
array of shape ``batch + (k, d, d)``: measurement k of every chain in the
batch sits at ``[..., k, :, :]``. All chains start from the same state, so
the branch stack has shape ``batch + (2^j, d, d)`` and the joint
distribution ``batch + (2,)*k``. A single chain is the batch of shape ``()``.

A chain is real when the state's density matrix and every observable of the
stack have zero imaginary part; it then runs on their float64 real parts, so
its branches are float64. Any other chain runs in complex128. It is one code
path: the dtype of the branches follows the inputs.

The state enters checked, as a ``QuantumState``. ``joint_distribution``
checks the whole observable stack once, before the first step: each
observable must be finite, Hermitian, square to I and match the state's
dimension, and builds each step's projector pair once. ``luders_measure`` is
the unchecked chain step, given one step's pair; the branches are never
checked. Each final distribution must sum to 1 within :func:`_sum_tolerance`,
and no probability may fall below 0 by more than :func:`_probability_floor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, ATOL_DICHOTOMIC, ATOL_STATE_PSD, check_observable, checked_count
from .states import QuantumState, density_of

# outcome value of index 0 (+1) and index 1 (-1) along each outcome axis
_SIGNS = np.array([1.0, -1.0])


def _sum_tolerance(d: int, k: int) -> float:
    """How far the probabilities of a chain of ``k`` measurements on a
    ``d``-dimensional state may sum from 1.

    The state's trace is 1 within ATOL. A Lüders step maps each branch B to
    P+ B P+ and P- B P- with P+- = (I +- O)/2; since P+^2 + P-^2 = (I + O^2)/2
    it adds tr((O^2 - I) B)/2 to the total trace. The boundary admits O when
    every entry of O^2 - I is within ATOL_DICHOTOMIC, so its operator norm is
    at most d * ATOL_DICHOTOMIC, and as the branches are positive (up to the
    state's eigenvalue floor, a second-order term) one step scales the total
    by a factor within 1 +- d * ATOL_DICHOTOMIC / 2. Of the two ends after k
    steps, the upper one lies farther from 1."""
    return (1 + ATOL) * (1 + d * ATOL_DICHOTOMIC / 2) ** k - 1


def _probability_floor(d: int, k: int) -> float:
    """How far below 0 a probability of a chain of ``k`` measurements on a
    ``d``-dimensional state may read.

    A branch's probability is tr(rho E) with E = P_1 ... P_k ... P_1, which is
    positive. The boundary admits a state with eigenvalues down to
    -ATOL_STATE_PSD, so its negative part has trace at most
    d * ATOL_STATE_PSD, and tr(rho E) >= -d * ATOL_STATE_PSD * ||E||. The
    eigenvalues of an admitted O have squares within d * ATOL_DICHOTOMIC of 1,
    so each (I +- O)/2 has norm at most 1 + d * ATOL_DICHOTOMIC / 4 and
    ||E|| <= (1 + d * ATOL_DICHOTOMIC) ** k."""
    return d * ATOL_STATE_PSD * (1 + d * ATOL_DICHOTOMIC) ** k


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
        tol = _sum_tolerance(obs.shape[-1], obs.shape[-3])
        if not np.abs(sums - 1.0).max() <= tol:
            raise ValueError(f"probabilities sum to {sums[~(np.abs(sums - 1.0) <= tol)][0]}, not 1")
        if not p.min() >= -_probability_floor(obs.shape[-1], obs.shape[-3]):
            raise ValueError("negative probability in outcome distribution")
        p.setflags(write=False)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "probabilities", p)

    def correlator(self, axes=None):
        """Expectation of the product of the outcomes on ``axes`` (default:
        all), one per chain: a float for a single chain, an array of shape
        ``batch`` for a batch. Each axis is an integer from 0 to k - 1."""
        b = self.observables.ndim - 3
        if axes is not None:
            k = self.observables.shape[-3]
            axes = [checked_count(axis, "outcome axis", 0, k - 1) for axis in axes]
        value = _product_mean(self.probabilities, b, axes)
        return float(value) if b == 0 else value


def _product_mean(p: np.ndarray, b: int, axes=None):
    """Mean of the product of the outcomes on ``axes`` (default: all) of the
    distributions ``p`` of shape ``batch + (2,)*k``, ``b`` the batch rank: one
    ``einsum`` over the whole batch."""
    operands = [p, list(range(p.ndim))]
    for axis in range(p.ndim - b) if axes is None else axes:
        operands += [_SIGNS, [b + axis]]
    return np.einsum(*operands, list(range(b)))


def luders_measure(branches: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Measure one dichotomic observable per chain, unchecked: ``proj`` is
    its projector pair (I + O)/2, (I - O)/2, of shape ``batch + (2, d, d)``,
    and ``branches`` has a shape that broadcasts with ``batch + (m, d, d)``.
    Returns the ``batch + (2m, d, d)`` stack in which branch i splits into
    2i (+1) and 2i + 1 (-1). The result has numpy's common dtype of the
    inputs: float64 for the real parts of a real chain, complex128
    otherwise."""
    split = proj[..., None, :, :, :] @ branches[..., :, None, :, :] @ proj[..., None, :, :, :]
    return split.reshape(split.shape[:-4] + (-1,) + proj.shape[-2:])


def joint_distribution(state: QuantumState, obs_seq) -> OutcomeDistribution:
    """Chain the measurements in sequence order, every chain of the batch on
    ``state``; the final branch traces are the joint outcome probabilities.
    A real chain (see the module docstring) runs in float64."""
    obs = _observable_stack(obs_seq)
    batch, k = obs.shape[:-3], obs.shape[-3]
    rho = density_of(state)
    # a real chain runs on the float64 real parts; NaN in an imaginary part
    # counts as nonzero, so the check below still sees it
    chain, rho = (obs, rho) if obs.imag.any() or rho.imag.any() else (obs.real, rho.real)
    if obs.size:  # an empty chain measures nothing and is certain
        check_observable(chain, "measured observable")
        if obs.shape[-2:] != rho.shape:
            raise ValueError("observable dimension does not match the state")
    branches = rho.reshape((1,) * (obs.ndim - 2) + rho.shape)  # broadcasts against every chain
    proj = (np.eye(obs.shape[-1]) + _SIGNS[:, None, None] * chain[..., None, :, :]) / 2  # (I +- O)/2
    for i in range(k):
        branches = luders_measure(branches, proj[..., i, :, :, :])
    probs = np.trace(branches, axis1=-2, axis2=-1).real.reshape(batch + (2,) * k)
    return OutcomeDistribution(observables=obs, probabilities=probs)


def correlator_sequential(state: QuantumState, obs_seq):
    """Expectation of the product of all outcomes of each chain."""
    return joint_distribution(state, obs_seq).correlator()


def stack_correlators_sequential(state: QuantumState, stack: np.ndarray) -> list[float]:
    """Expectation of the product of all outcomes of each chain of a
    ``(T, k, d, d)`` stack, from one joint distribution of the batch. Each
    chain's distribution is reduced on its own, as a lone chain's is: one
    ``einsum`` over the batch sums in another order and may move a last bit."""
    p = joint_distribution(state, stack).probabilities
    return [float(_product_mean(chain, 0)) for chain in p]
