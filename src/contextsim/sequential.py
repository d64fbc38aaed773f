"""Ground-truth simulation of invasive sequential projective measurements.

One checked chain of dichotomic Lüders measurements has two readings, both
stepped by ``luders_measure`` with the projectors (I +- O)/2, exact for a
dichotomic O and free of eigenvector phase ambiguity.

- **The branch stack**, for outcome distributions (``joint_distribution``).
  After j steps it holds the ``2^j`` unnormalized branch states
  P_j ... P_1 rho P_1 ... P_j in ``itertools.product((1, -1), repeat=j)``
  order (the first outcome varies slowest). A branch's trace is the
  probability of its outcome tuple, never divided by, so a zero-probability
  branch is a zero matrix.
- **The sign-contracted pair**, for the mean of the product of all k
  outcomes (``correlator_sequential``, ``stack_correlators_sequential``). A
  signed S and an unsigned U both start at rho and step to
  S -> P+ S P+ - P- S P- and U -> P+ U P+ + P- U P-: the branch sums weighted
  by the outcome product and by 1. Re tr(S) is the correlator and Re tr(U)
  the total probability; two matrices per step instead of 2^j. The signed
  step is the anticommutator {O, X}/2 (Fritz, NJP 12, 083055 (2010)).

Chains carry leading batch axes: the observables are one complex array of
shape ``batch + (k, d, d)``, all chains start from the same state, and the
joint distribution has shape ``batch + (2,)*k``. A single chain is the batch
``()``. A chain whose state and observables all have zero imaginary part runs
on their float64 real parts; any other chain runs in complex128.

The checks. The state enters checked, as a ``QuantumState``. The three
public readings check the whole observable stack once, before the first
step: each observable must be finite, Hermitian, square to I and match the
state's dimension. Their kernels, ``_distribution`` and ``_full_product``,
take the stack unchecked, and only stacks the package built from checked
input (the evaluators' block stacks, the pentagon readings' cycles) go to
them directly. ``luders_measure`` and the matrices it returns are
unchecked. Every reading keeps its result checks: each total probability
must lie within :func:`_sum_tolerance` of 1.
``OutcomeDistribution`` refuses a probability below 0 by more than
:func:`_probability_floor`; the pair has no outcome probabilities, so it
refuses a correlator whose modulus exceeds the total by more than 2^(k+1)
such floors, the most they can add.
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


@dataclass(frozen=True, eq=False)
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
        # one einsum over the whole batch
        p = self.probabilities
        operands = [p, list(range(p.ndim))]
        for axis in range(p.ndim - b) if axes is None else axes:
            operands += [_SIGNS, [b + axis]]
        value = np.einsum(*operands, list(range(b)))
        return float(value) if b == 0 else value


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


def _checked_stack(state: QuantumState, obs_seq) -> np.ndarray:
    """``obs_seq`` as a complex ``batch + (k, d, d)`` stack, checked for
    ``state`` (a stack with zero imaginary part on its float64 real parts)."""
    obs = _observable_stack(obs_seq)
    if obs.size:  # an empty chain measures nothing and is certain
        # NaN in an imaginary part counts as nonzero, so the check still sees it
        check_observable(obs if obs.imag.any() else obs.real, "measured observable")
        if obs.shape[-2:] != (2 ** state.qubits,) * 2:
            raise ValueError("observable dimension does not match the state")
    return obs


def _chain(state: QuantumState, obs: np.ndarray):
    """The chain of a complex stack ``obs`` on ``state``, unchecked: the
    density matrix it runs on (float64 for a real chain) and each step's
    projector pair (I + O)/2, (I - O)/2, of shape ``batch + (k, 2, d, d)``."""
    rho = density_of(state)
    chain, rho = (obs, rho) if obs.imag.any() or rho.imag.any() else (obs.real, rho.real)
    proj = (np.eye(obs.shape[-1]) + _SIGNS[:, None, None] * chain[..., None, :, :]) / 2  # (I +- O)/2
    return rho, proj


def _distribution(state: QuantumState, obs: np.ndarray) -> OutcomeDistribution:
    """The branch-stack reading of an unchecked complex stack ``obs``."""
    rho, proj = _chain(state, obs)
    batch, k = obs.shape[:-3], obs.shape[-3]
    # the state as each chain's one branch, widened to the batch by the first step (here when there is none)
    branches = rho.reshape((1,) * (obs.ndim - 2) + rho.shape) if k else np.broadcast_to(rho, batch + (1,) + rho.shape)
    for i in range(k):
        branches = luders_measure(branches, proj[..., i, :, :, :])
    probs = np.trace(branches, axis1=-2, axis2=-1).real.reshape(batch + (2,) * k)
    return OutcomeDistribution(observables=obs, probabilities=probs)


def joint_distribution(state: QuantumState, obs_seq) -> OutcomeDistribution:
    """Chain the measurements in sequence order, every chain of the batch on
    ``state``; the final branch traces are the joint outcome probabilities."""
    return _distribution(state, _checked_stack(state, obs_seq))


def _full_product(state: QuantumState, obs: np.ndarray):
    """Mean of the product of all outcomes of each chain of an unchecked
    complex stack ``obs``, shape ``batch``, off its sign-contracted pair."""
    rho, proj = _chain(state, obs)
    batch, k, d = obs.shape[:-3], obs.shape[-3], rho.shape[-1]
    pair = np.empty(batch + (2, d, d), rho.dtype)  # signed, unsigned
    pair[...] = rho
    for i in range(k):
        split = luders_measure(pair, proj[..., i, :, :, :])
        # signed: P+ S P+ - P- S P-; unsigned: P+ U P+ + P- U P-
        pair = split[..., 0::2, :, :] - _SIGNS[:, None, None] * split[..., 1::2, :, :]
    traces = np.trace(pair, axis1=-2, axis2=-1).real
    value, total = traces[..., 0], traces[..., 1]
    ok = np.abs(total - 1.0) <= _sum_tolerance(d, k)  # written so that NaN fails both checks
    if not ok.all():
        raise ValueError(f"probabilities sum to {total[~ok][0]}, not 1")
    if not (np.abs(value) <= total + 2 ** (k + 1) * _probability_floor(d, k)).all():
        raise ValueError("correlator exceeds the total probability of its outcomes")
    return value


def correlator_sequential(state: QuantumState, obs_seq):
    """Expectation of the product of all outcomes of each chain: a float for
    a single chain, an array of shape ``batch`` for a batch."""
    value = _full_product(state, _checked_stack(state, obs_seq))
    return float(value) if value.ndim == 0 else value


def stack_correlators_sequential(state: QuantumState, stack: np.ndarray) -> list[float]:
    """Expectation of the product of all outcomes of each chain of a
    ``(T, k, d, d)`` stack, from one batch of sign-contracted pairs."""
    return _full_product(state, _checked_stack(state, stack)).tolist()
