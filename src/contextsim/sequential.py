"""Ground-truth simulation of invasive sequential projective measurements.

One checked chain of dichotomic Lüders measurements has two readings. Both
step through all but the last measurement with ``luders_measure`` and the
projectors P+- = (I +- O)/2, exact for a dichotomic O and free of eigenvector
phase ambiguity, and read the last one by the Born rule, forming no branch
state after it.

- **The branch stack**, for outcome distributions (``joint_distribution``).
  After j steps it holds the ``2^j`` unnormalized branch states
  P_j ... P_1 rho P_1 ... P_j in ``itertools.product((1, -1), repeat=j)``
  order (the first outcome varies slowest). A branch X of the stack before
  the last measurement P reads its outcomes +-1 with probabilities
  tr(P+-^2 X), the traces of P+- X P+-. A zero-probability branch is a zero
  matrix, never divided by.
- **The sign-contracted pair**, for the mean of the product of all k
  outcomes (``correlator_sequential``). A signed S and an unsigned U both
  start at rho, which the first step splits once, and step to
  S -> P+ S P+ - P- S P- and U -> P+ U P+ + P- U P-: the branch sums
  weighted by the outcome product and by 1; two matrices per step instead
  of 2^j. The last measurement O reads the correlator as Re tr(O S), since
  P+^2 - P-^2 = O, and the total probability as Re tr(U) (Fritz, NJP 12,
  083055 (2010)).

Chains carry leading batch axes: the observables are one complex array of
shape ``batch + (k, d, d)``, all chains start from the same state, and the
joint distribution has shape ``batch + (2,)*k``. A single chain is the batch
``()``. A chain whose state and observables all have zero imaginary part runs
on their float64 real parts; any other chain runs in complex128.

The checks. The state enters checked, as a ``QuantumState``. The two
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
such floors, more than the negative parts of its outcome probabilities and
its unread last step can add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, ATOL_DICHOTOMIC, ATOL_STATE_PSD, _array, check_observable, checked_count
from .states import QuantumState, density_of

# outcome value of index 0 (+1) and index 1 (-1) along each outcome axis
_SIGNS = np.array([1.0, -1.0])


def _sum_tolerance(d: int, steps: int) -> float:
    """How far the probabilities of a chain on a ``d``-dimensional state may
    sum from 1 after ``steps`` Lüders steps.

    The state's trace is 1 within ATOL. A Lüders step maps each branch B to
    P+ B P+ and P- B P- with P+- = (I +- O)/2; since P+^2 + P-^2 = (I + O^2)/2
    it adds tr((O^2 - I) B)/2 to the total trace, and so does reading the
    last measurement's probabilities tr(P+-^2 B) off the branch stack. The
    pair reads its total as the trace of U before the last measurement, so a
    chain of k measurements takes k steps in its distribution and
    max(k - 1, 0) in its pair. The boundary admits O when every entry of
    O^2 - I is within ATOL_DICHOTOMIC, so its operator norm is at most
    d * ATOL_DICHOTOMIC, and as the branches are positive (up to the state's
    eigenvalue floor, a second-order term) one step scales the total by a
    factor within 1 +- d * ATOL_DICHOTOMIC / 2. Of the two ends after all
    steps, the upper one lies farther from 1."""
    return (1 + ATOL) * (1 + d * ATOL_DICHOTOMIC / 2) ** steps - 1


def _probability_floor(d: int, k: int) -> float:
    """How far below 0 a probability of a chain of ``k`` measurements on a
    ``d``-dimensional state may read.

    A branch's probability is tr(rho E) with E = P_1 ... P_k^2 ... P_1, which
    is positive: the Born rule reads the last measurement's effect P_k^2,
    the trace of P_k X P_k, off the branch X before it. The boundary admits
    a state with eigenvalues down to -ATOL_STATE_PSD, so its negative part
    has trace at most d * ATOL_STATE_PSD, and
    tr(rho E) >= -d * ATOL_STATE_PSD * ||E||. The eigenvalues of an admitted
    O have squares within d * ATOL_DICHOTOMIC of 1, so each (I +- O)/2 has
    norm at most 1 + d * ATOL_DICHOTOMIC / 4 and
    ||E|| <= (1 + d * ATOL_DICHOTOMIC) ** k. Reading the last outcome off
    (I +- O)/2 instead of its square would break this floor: (I +- O)/2 has
    eigenvalues down to -d * ATOL_DICHOTOMIC / 4, so E need not be positive."""
    return d * ATOL_STATE_PSD * (1 + d * ATOL_DICHOTOMIC) ** k


def _observable_stack(obs_seq) -> np.ndarray:
    """A chain's observables as one complex array of shape ``batch + (k, d, d)``.

    A list or tuple of matrices or ``Observable`` values (read through ``.matrix``) is
    stacked into a chain of batch ``()``, an empty one into the empty chain; ``_array``
    reads anything else, an array included, as it is.
    """
    if isinstance(obs_seq, (list, tuple)):
        obs_seq = [getattr(obs, "matrix", obs) for obs in obs_seq] or np.empty((0, 0, 0))
    stack = _array(obs_seq, "observables", complex)
    if stack.ndim < 3:
        raise ValueError(f"observables must have shape batch + (k, d, d), got {stack.shape if stack.ndim else obs_seq!r}")
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
        p = _array(self.probabilities, "probabilities", float, copy=True)
        if p.shape != shape:
            raise ValueError(f"probabilities must have shape {shape}, got {p.shape}")
        # written so that NaN fails both checks; an empty batch passes both
        sums = p.reshape(obs.shape[:-3] + (2 ** obs.shape[-3],)).sum(axis=-1)
        tol = _sum_tolerance(obs.shape[-1], obs.shape[-3])
        if not np.abs(sums - 1.0).max(initial=0.0) <= tol:
            raise ValueError(f"probabilities sum to {sums[~(np.abs(sums - 1.0) <= tol)][0]}, not 1")
        if not p.min(initial=0.0) >= -_probability_floor(obs.shape[-1], obs.shape[-3]):
            raise ValueError("negative probability in outcome distribution")
        p.setflags(write=False)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "probabilities", p)

    def correlator(self, axes=None):
        """Expectation of the product of the outcomes on ``axes`` (default:
        all), one per chain: a float for a single chain, an array of shape
        ``batch`` for a batch. ``axes`` is a sequence of integers from 0 to
        k - 1."""
        b = self.observables.ndim - 3
        if axes is not None:
            k = self.observables.shape[-3]
            try:
                axes = list(axes)
            except TypeError:
                raise ValueError(f"outcome axes must be a sequence of integers, got {axes!r}") from None
            axes = [checked_count(axis, "outcome axis", 0, k - 1) for axis in axes]
        # one einsum over the whole batch
        p = self.probabilities
        operands = [p, list(range(p.ndim))]
        for axis in range(p.ndim - b) if axes is None else axes:
            operands += [_SIGNS, [b + axis]]
        value = np.einsum(*operands, list(range(b)))
        return float(value) if b == 0 else value


def luders_measure(branches: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Measure one dichotomic observable per chain, unchecked, and keep the
    branch states; the readings step with it through all but the last
    measurement of a chain, which they read by the Born rule. ``proj`` is
    its projector pair (I + O)/2, (I - O)/2, of shape ``batch + (2, d, d)``,
    and ``branches`` has a shape that broadcasts with ``batch + (m, d, d)``.
    Returns the ``batch + (2m, d, d)`` stack in which branch i splits into
    2i (+1) and 2i + 1 (-1). The result has numpy's common dtype of the
    inputs: float64 for the real parts of a real chain, complex128
    otherwise."""
    split = proj[..., None, :, :, :] @ branches[..., :, None, :, :] @ proj[..., None, :, :, :]
    return split.reshape(split.shape[:-4] + (2 * split.shape[-4],) + proj.shape[-2:])


def _checked_stack(state: QuantumState, obs_seq) -> np.ndarray:
    """``obs_seq`` as a complex ``batch + (k, d, d)`` stack, checked for
    ``state`` (a stack with zero imaginary part on its float64 real parts)."""
    obs = _observable_stack(obs_seq)
    if obs.size:  # an empty chain measures nothing and is certain
        # NaN in an imaginary part counts as nonzero, so the check still sees it
        check_observable(obs if obs.imag.any() else obs.real, "measured observable")
    if obs.shape[-3] and obs.shape[-2:] != (2 ** state.qubits,) * 2:  # an empty batch too
        raise ValueError("observable dimension does not match the state")
    return obs


def _chain(state: QuantumState, obs: np.ndarray):
    """The chain of a complex stack ``obs`` on ``state``, unchecked: the
    density matrix it runs on and the observables (float64 for a real chain),
    and each step's projector pair (I + O)/2, (I - O)/2, of shape
    ``batch + (k, 2, d, d)``."""
    rho = density_of(state)
    chain, rho = (obs, rho) if obs.imag.any() or rho.imag.any() else (obs.real, rho.real)
    proj = (np.eye(obs.shape[-1]) + _SIGNS[:, None, None] * chain[..., None, :, :]) / 2  # (I +- O)/2
    return rho, chain, proj


def _trace_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A B) = Re sum_ij A_ij B_ji over broadcast stacks, elementwise."""
    return (a * b.swapaxes(-1, -2)).sum(axis=(-2, -1)).real


def _distribution(state: QuantumState, obs: np.ndarray) -> OutcomeDistribution:
    """The branch-stack reading of an unchecked complex stack ``obs``: Lüders
    steps through all but the last measurement, whose outcomes each branch X
    reads with probabilities tr(P+-^2 X)."""
    rho, _, proj = _chain(state, obs)
    batch, k = obs.shape[:-3], obs.shape[-3]
    if not k:  # an empty chain measures nothing and is certain
        return OutcomeDistribution(observables=obs, probabilities=np.full(batch, np.trace(rho).real))
    # the state as each chain's one branch, widened to the batch by the first step or the last reading
    branches = rho.reshape((1,) * (obs.ndim - 2) + rho.shape)
    for i in range(k - 1):
        branches = luders_measure(branches, proj[..., i, :, :, :])
    effects = proj[..., -1, :, :, :] @ proj[..., -1, :, :, :]  # P+^2, P-^2 of each chain
    # branch i reads outcome +1 at 2i and -1 at 2i + 1, as a last Lüders step would split it
    probs = _trace_of_product(effects[..., None, :, :, :], branches[..., :, None, :, :])
    return OutcomeDistribution(observables=obs, probabilities=probs.reshape(batch + (2,) * k))


def joint_distribution(state: QuantumState, obs_seq) -> OutcomeDistribution:
    """Chain the measurements in sequence order, every chain of the batch on
    ``state``; the final branch traces are the joint outcome probabilities."""
    return _distribution(state, _checked_stack(state, obs_seq))


def _full_product(state: QuantumState, obs: np.ndarray):
    """Mean of the product of all outcomes of each chain of an unchecked
    complex stack ``obs``, shape ``batch``, off its sign-contracted pair:
    Lüders steps through all but the last measurement O, then Re tr(O S)
    and Re tr(U)."""
    rho, chain, proj = _chain(state, obs)
    batch, k, d = obs.shape[:-3], obs.shape[-3], rho.shape[-1]
    # signed S and unsigned U are both rho, the one branch that the first step splits into a, b
    pair = rho[None]
    for i in range(k - 1):
        split = luders_measure(pair, proj[..., i, :, :, :])
        # signed: P+ S P+ - P- S P-; unsigned: P+ U P+ + P- U P- (at the first step a - b and a + b)
        pair = split[..., 0::2, :, :] - _SIGNS[:, None, None] * split[..., 1::2, :, :]
    total = np.trace(pair[..., -1, :, :], axis1=-2, axis2=-1).real
    if k < 2:  # the pair is still rho, one matrix for the whole batch
        total = np.full(batch, total)
    # the last measurement by the Born rule: tr(P+ S P+ - P- S P-) = tr(O S), and U's trace is the total
    value = _trace_of_product(chain[..., -1, :, :], pair[..., 0, :, :]) if k else total
    ok = np.abs(total - 1.0) <= _sum_tolerance(d, max(k - 1, 0))  # written so that NaN fails both checks
    if not ok.all():
        raise ValueError(f"probabilities sum to {total[~ok][0]}, not 1")
    # as P+^2 - P-^2 = O, value is the signed sum of the branch stack's 2^k outcome probabilities
    # tr(P+-^2 X): their negative parts let it exceed their total by at most two floors, and that total
    # exceeds tr U by at most d * ATOL_DICHOTOMIC / 2 of it; with ATOL_DICHOTOMIC <= 4 * ATOL_STATE_PSD
    # both fit in the 2^(k+1) >= 4 floors allowed
    if not (np.abs(value) <= total + 2 ** (k + 1) * _probability_floor(d, k)).all():
        raise ValueError("correlator exceeds the total probability of its outcomes")
    return value


def correlator_sequential(state: QuantumState, obs_seq):
    """Expectation of the product of all outcomes of each chain: a float for
    a single chain, an array of shape ``batch`` for a batch."""
    value = _full_product(state, _checked_stack(state, obs_seq))
    return float(value) if value.ndim == 0 else value
