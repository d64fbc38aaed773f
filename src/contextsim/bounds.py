"""Numerical recovery of the classical, contextual, temporal, and nonlocal
extrema of the five-cycle inequality family.

The Bell-side search respects the side condition <A_j B_j> = 1: states
satisfying it for two or more distinct directions are exactly the maximally
correlated pair state, so the searched objective is the minimum of the
five-term operator restricted to the common +1 eigenspace of the constraint
operators. Without that restriction the bare minimum eigenvalue reaches the
algebraic -5 (a local rotation on one side aligns all five terms at once),
which belongs to a different scenario than the constrained inequality.

Each angle search has one objective over a batch of 5-tuples (the
constrained minimum, the cyclic cosine sum) and one driver: a coarse grid
start, then cyclic line searches that move one angle at a time. The grid
reads its cycle sums off one r x r cosine table, bit for bit as the batch
objective rounds them; the Bell grid is screened by them first, and only
the kept rows are built as 5-tuples. Each line reads a closed form built
once per line: the temporal one sums its five cosines in the objective's
order, so each trial rounds as the objective would; the Bell one,
c0 + c1 cos x + c2 sin x, holds only where the kernel cannot change along
the line, and elsewhere the line calls the objective. The contextual seesaw
runs its lines in Python floats on 3-tuples. Every search's start, value
after each sweep and convergence test call the public objective, which
checks its input; the batch forms and the lines take it as given. Terms
accumulate one at a time in cycle order, never stacked, so a batch of one
rounds exactly as a scalar sum.

All searches are deterministic: seeded restarts, fixed sweep order, golden-
section line minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (PAULI_X, PAULI_Z, checked_angles, checked_count, checked_real, checked_reals,
                     sigma_theta_matrix)
from .inequalities import _PENTAGON_PAIRS, _kcbs_cycle
from .optimize import golden_section_minimize
from .sequential import correlator_sequential, joint_distribution
from .states import mixed_state

KERNEL_TOL = 1e-9
MAX_RESOLUTION = 16  # the grid holds resolution**4 5-tuples: a search peaks near 2.6 MB traced at 16
# a Bell grid row is screened out when its cosine sum is this far above the
# grid's lowest and its second penalty eigenvalue is at least this large
_SCREEN_MARGIN = 1e-6

TARGETS = ("bell-kcbs", "temporal-kcbs", "contextual-kcbs", "pentagon-lg")

_NEXT = np.array([1, 2, 3, 4, 0])  # successor of each angle around the cycle

# P x Q for P, Q in (Z, X), the operators whose expectations on the kernel
# vector make up the 2x2 matrix T of ``_bell_line``
_PAULI_PAIRS = np.array([[np.kron(p, q) for q in (PAULI_Z, PAULI_X)] for p in (PAULI_Z, PAULI_X)])
_PAULI_PAIRS.setflags(write=False)


@dataclass(frozen=True)
class BoundResult:
    target: str
    optimum: float
    argument: dict
    iterations: int
    converged: bool
    tolerance: float


def _five(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != (5,):
        raise ValueError("need exactly 5 angles")
    return angles


def _sigma_products(angles):
    """(r, s) -> sigma(a_r) x sigma(a_s) for a 5-tuple, shape (4, 4), or for
    each row of an (M, 5) stack, shape (M, 4, 4)."""
    sig = sigma_theta_matrix(_five(angles).T)
    left, right = sig[..., :, None, :, None], sig[..., None, :, None, :]
    return lambda r, s: (left[r] * right[s]).reshape(*sig.shape[1:-2], 4, 4)


def _cycle_operator(kron) -> np.ndarray:
    return sum(kron(r, (r + 1) % 5) for r in range(5))


def bell_operator(angles) -> np.ndarray:
    """Sum of the five cross terms sigma(a_r) x sigma(a_{r+1}) over the cycle."""
    return _cycle_operator(_sigma_products(checked_angles(angles, "angles")))


def _constrained_minima(angles) -> np.ndarray:
    """The constrained minimum of a 5-tuple or of each row of an (M, 5) stack.

    The admissible states span the common +1 eigenspace of the five
    sigma(a_j) x sigma(a_j) operators, i.e. the kernel of the positive sum
    of (I - sigma x sigma)/2 penalties; the operator is compressed onto that
    space, one stack per kernel dimension, before taking the smallest eigenvalue.
    """
    kron = _sigma_products(angles)
    eye = np.eye(4, dtype=complex)
    w, v = np.linalg.eigh(sum((eye - kron(j, j)) / 2 for j in range(5)))
    bop = _cycle_operator(kron)
    kdim = (w < KERNEL_TOL).sum(axis=-1)
    values = np.empty(kdim.shape)
    for d in set(kdim.flat):
        group = kdim == d
        kernel = v[group, :, :d]
        compressed = kernel.conj().swapaxes(-1, -2) @ bop[group] @ kernel
        values[group] = np.linalg.eigvalsh((compressed + compressed.conj().swapaxes(-1, -2)) / 2)[:, 0]
    return values


def bell_constrained_objective(angles) -> float:
    """Minimum of the five-term operator over states obeying <A_j B_j> = 1."""
    return float(_constrained_minima(checked_angles(angles, "angles")))


def _bell_line(angles, i: int):
    """``bell_constrained_objective`` along line i of the descent, where only
    a_i moves, as a scalar function of x; None where the kernel could change.

    The four fixed penalties, j != i, are diagonalized once. With k the
    lowest eigenvector, t(a) = (cos a, sin a) and T the 2x2 matrix of
    <k|P x Q|k> over P, Q in (Z, X), each term reads
    <k|sigma(a) x sigma(b)|k> = t(a).T t(b). The moving penalty on k is
    (1 - t(x).T t(x))/2 = p0 + p1 cos 2x + p2 sin 2x. The line is used only
    when the next eigenvalue is above 1e-2 and the lowest one plus
    |p0| + |p1| + |p2| is below KERNEL_TOL. A positive semidefinite term
    lowers no eigenvalue, so every trial's penalty then has a one-dimensional
    kernel, k, and the compressed operator is
    <k|B(x)|k> = c0 + c1 cos x + c2 sin x: c0 sums the three terms without
    a_i, and (c1, c2) = T^T t(a_{i-1}) + T t(a_{i+1}).
    """
    kron = _sigma_products(angles)
    eye = np.eye(4, dtype=complex)
    w, v = np.linalg.eigh(sum((eye - kron(j, j)) / 2 for j in range(5) if j != i))
    k = v[:, 0]
    corr = np.array([[(k.conj() @ pq @ k).real for pq in row] for row in _PAULI_PAIRS])
    (zz, zx), (xz, xx) = corr.tolist()
    moving = abs(0.5 - (zz + xx) / 4) + abs(zz - xx) / 4 + abs(zx + xz) / 4
    if not (w[1] > 1e-2 and w[0] + moving < KERNEL_TOL):
        return None
    t = np.array([np.cos(angles), np.sin(angles)])
    c0 = float(sum(t[:, r] @ corr @ t[:, (r + 1) % 5] for r in range(5) if r not in ((i - 1) % 5, i)))
    c1, c2 = (corr.T @ t[:, (i - 1) % 5] + corr @ t[:, (i + 1) % 5]).tolist()
    return lambda x: c0 + c1 * math.cos(x) + c2 * math.sin(x)


def _cycle_cosines(angles) -> np.ndarray:
    """The cyclic cosine sum of a 5-tuple or of each row of an (M, 5) stack."""
    angles = _five(angles)
    return sum(np.cos(angles - angles.take(_NEXT, axis=-1)).T)


def temporal_objective(angles) -> float:
    """Sum of the five cyclic two-time correlators, cos(a_i - a_{i+1}); the
    anticommutator form makes each term state independent."""
    return float(_cycle_cosines(checked_angles(angles, "angles")))


def _temporal_line(angles, i: int):
    """``temporal_objective`` along line i of the descent, where only a_i
    moves, as a scalar function of x that equals it bit for bit.

    The terms cos(a_r - a_{r+1}) are taken once per line; each call rewrites
    the two that move, cos(a_{i-1} - x) and cos(x - a_{i+1}), in their slots
    (line 0 wraps to the last slot) and adds the five left to right in cycle
    order, as ``_cycle_cosines`` does: a precomputed sum of the three fixed
    terms would round differently.
    """
    a = _five(angles).tolist()
    terms = [math.cos(a[r] - a[(r + 1) % 5]) for r in range(5)]
    before, after = a[(i - 1) % 5], a[(i + 1) % 5]

    def value(x: float) -> float:
        terms[i - 1], terms[i] = math.cos(before - x), math.cos(x - after)
        return terms[0] + terms[1] + terms[2] + terms[3] + terms[4]

    return value


def _positive_tol(tol) -> float:
    tol = checked_real(tol, "tol")
    if not tol > 0:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return tol


def _checked_resolution(resolution) -> int:
    return checked_count(resolution, "resolution", 1, MAX_RESOLUTION)


def _grid(resolution) -> np.ndarray:
    return np.linspace(0.0, 2 * np.pi, _checked_resolution(resolution), endpoint=False)


def _coarse_grid_tuples(resolution: int, rows=None) -> np.ndarray:
    """The angle 5-tuples over the grid, one per row in grid order (the four
    free angles in C order), with the first angle pinned to 0; a global angle
    shift changes neither spectra nor constraints. ``rows`` picks tuples by
    flat grid index; by default all resolution**4 of them."""
    grid = _grid(resolution)
    rows = np.arange(grid.size**4) if rows is None else np.asarray(rows)
    free = np.unravel_index(rows, (grid.size,) * 4)
    return np.stack([np.zeros(rows.size)] + [grid[i] for i in free], axis=1)


def _grid_cosines(grid: np.ndarray) -> np.ndarray:
    """``_cycle_cosines`` of every grid tuple, shape (r, r, r, r) in grid
    order, bit for bit: each term cos(a_j - a_{j+1}) is read off one r x r
    table (the pinned a_0 = 0 enters as 0.0 - g and g - 0.0) and the five
    are added in cycle order from 0, as the builtin ``sum`` adds them."""
    table = np.cos(grid[:, None] - grid)
    return (0 + np.cos(0.0 - grid)[:, None, None, None] + table[:, :, None, None]
            + table[:, :, None] + table + np.cos(grid - 0.0))


def _grid_second_eigenvalues(grid: np.ndarray) -> np.ndarray:
    """The second penalty eigenvalue, (5 - |sum_j exp(2i a_j)|)/2, of every
    grid tuple, shape (r, r, r, r) in grid order, bit for bit as numpy's sum
    over a row of five groups it: ((e_0 + e_1) + (e_2 + e_3)) + e_4."""
    phase = np.exp(2j * grid)
    sums = (np.exp(2j * 0.0) + phase)[:, None, None, None] + (phase[:, None] + phase)[:, :, None] + phase
    return (5 - np.abs(sums)) / 2


def _coarse_bell_minimum(resolution: int) -> np.ndarray:
    """The grid 5-tuple where ``_constrained_minima`` is lowest (first in grid
    order), screened. A row whose second penalty eigenvalue is at least
    _SCREEN_MARGIN has the pair state as its kernel, where the constrained
    minimum is the cosine sum to 1e-12; so only rows within _SCREEN_MARGIN of
    the lowest sum, or below that eigenvalue, can win. Both screens are read
    off r-sized tables, and only the kept rows are built as 5-tuples."""
    grid = _grid(resolution)
    cosines = _grid_cosines(grid).ravel()
    second = _grid_second_eigenvalues(grid).ravel()
    rows = np.flatnonzero((cosines <= cosines.min() + _SCREEN_MARGIN) | (second < _SCREEN_MARGIN))
    kept = _coarse_grid_tuples(resolution, rows)
    return kept[int(np.argmin(_constrained_minima(kept)))]


def _coarse_temporal_minimum(resolution: int) -> np.ndarray:
    """The grid 5-tuple with the lowest cyclic cosine sum (first in grid order)."""
    return _coarse_grid_tuples(resolution, [np.argmin(_grid_cosines(_grid(resolution)))])[0]


def _descend(objective, line, angles: np.ndarray, sweeps: int, tol: float):
    """Cyclic coordinate descent with golden-section line searches.

    ``line(angles, i)`` gives the objective along angle i as a scalar closed
    form, or None where it has none; the temporal lines are summed in the
    objective's order and always given. On a None line each trial calls
    ``objective`` on the trial tuple. The start, the value after each sweep
    and the convergence test always call ``objective``."""
    angles = np.array(angles, dtype=float)
    previous = objective(angles)
    for performed in range(1, sweeps + 1):
        for i in range(5):
            along = line(angles, i)
            if along is None:
                def along(x, i=i):
                    trial = angles.copy()
                    trial[i] = x
                    return objective(trial)

            angles[i] = golden_section_minimize(along, angles[i] - np.pi, angles[i] + np.pi, tol=min(tol, 1e-9))
        current = objective(angles)
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return angles, float(previous), performed, converged


def _angle_search(target: str, coarse, objective, line, resolution, sweeps, tol) -> BoundResult:
    """Start at ``coarse(resolution)``, then descend on the scalar ``objective``
    along the lines that ``line`` builds (see ``_descend``)."""
    sweeps, tol = checked_count(sweeps, "sweeps", 1), _positive_tol(tol)
    angles, value, performed, converged = _descend(objective, line, coarse(resolution), sweeps, tol)
    return BoundResult(target=target, optimum=value, argument={"angles": [float(a) for a in angles]},
                       iterations=performed, converged=converged, tolerance=tol)


def tsirelson_search_bell(resolution: int = 8, sweeps: int = 40, tol: float = 1e-9) -> BoundResult:
    """Minimize the constrained five-term objective over angle 5-tuples.

    Coarse grid first, then cyclic golden-section descent whose line
    searches read the closed form of ``_bell_line`` where it holds and the
    objective elsewhere; the reported optimum is the objective's value. The
    optimum sits at equal angle steps of 4*pi/5 with value -5 cos(pi/5).
    """
    return _angle_search("bell-kcbs", _coarse_bell_minimum, bell_constrained_objective, _bell_line,
                         resolution, sweeps, tol)


def temporal_bound_kcbs(resolution: int = 8, tol: float = 1e-9, sweeps: int = 40) -> BoundResult:
    """Minimize the cyclic cosine sum over angle 5-tuples; same optimum as the
    constrained Bell search, recovered through an independent objective.

    Coarse grid first, then cyclic golden-section descent whose line searches
    read ``_temporal_line``, the closed form summed in the objective's order;
    the search therefore takes the steps it would take calling the objective
    on every trial.
    """
    return _angle_search("temporal-kcbs", _coarse_temporal_minimum, temporal_objective, _temporal_line,
                         resolution, sweeps, tol)


def contextual_objective(vectors, psi) -> float:
    """5 - 4 * sum_i <psi|u_i><u_i|psi> for projective X_i = 2|u_i><u_i| - I
    with adjacent orthogonality; minimized at 5 - 4*sqrt(5)."""
    vectors = checked_reals(vectors, "vectors", (5, 3), "five finite real 3-vectors")
    psi = checked_reals(psi, "state", (3,), "a finite real 3-vector")
    return float(5.0 - 4.0 * sum(float(np.dot(u, psi)) ** 2 for u in vectors))


def _dot(a, b) -> float:
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a0 * b0 + a1 * b1 + a2 * b2


def _cross(a, b) -> tuple:
    """``np.cross`` of two 3-vectors as a tuple, bit for bit (each product
    rounded, then the difference); on one pair of Python floats ``np.cross``
    spends some 30 times as long in call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _feasible_start(rng: np.random.Generator):
    """Five unit 3-vectors, adjacent ones orthogonal, as tuples of floats:
    four drawn and each projected off the one before, the fifth u_3 x u_0."""
    for _ in range(200):
        u = []
        for i in range(5):
            v = rng.standard_normal(3) if i < 4 else np.array(_cross(u[3], u[0]))
            if 0 < i < 4:
                v -= (v @ u[i - 1]) * u[i - 1]
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                break
            u.append(v / norm)
        else:
            return [tuple(ui.tolist()) for ui in u]
    raise RuntimeError("could not draw a feasible five-cycle start")


def _state_step(u):
    """The top eigenvector psi of sum_i u_i u_i^T = U^T U, U the 5 x 3 stack,
    as a tuple, and the public objective at (u, psi)."""
    stack = np.array(u)
    psi = np.linalg.eigh(stack.T @ stack)[1][:, -1]
    return tuple(psi.tolist()), contextual_objective(stack, psi)


def _seesaw_line(u, psi, i: int):
    """The circle that u_i moves on and the seesaw's objective along it.

    u_i turns to cand(phi) = cos(phi) e1 + sin(phi) e2 in the plane
    orthogonal to u_{i-1}, and u_{i+1} is re-pinned to the direction of
    cand x w with w = u_{i+2}. With t = (cos phi, sin phi) the three inner
    products that move are linear in t: cand.psi = a.t,
    (cand x w).psi = cand.(w x psi) = b.t and cand.w = c.t. So the value is
    5 - 4 (rest + (a.t)^2 + (b.t)^2 / |cand x w|^2), where
    |cand x w|^2 = 1 - (c.t)^2 is taken as (w.u_{i-1})^2 + (c1 sin phi -
    c2 cos phi)^2, a sum of squares that does not cancel near a degenerate
    pin. The trial is +inf where |cand x w| < 1e-12. All of it is Python
    float arithmetic on 3-tuples, where numpy would spend most of its time in
    call overhead. Returns (e1, e2, value), or None when u_i is parallel to
    u_{i-1}.
    """
    prev, w = u[(i - 1) % 5], u[(i + 2) % 5]
    along = _dot(u[i], prev)
    e1 = tuple(x - along * p for x, p in zip(u[i], prev))
    n1 = math.hypot(*e1)
    if n1 < 1e-10:
        return None
    e1 = tuple(x / n1 for x in e1)
    e2 = _cross(prev, e1)
    w_psi = _cross(w, psi)
    a1, b1, c1 = _dot(e1, psi), _dot(e1, w_psi), _dot(e1, w)
    a2, b2, c2 = _dot(e2, psi), _dot(e2, w_psi), _dot(e2, w)
    off_plane = _dot(w, prev) ** 2
    rest = sum(_dot(u[j], psi) ** 2 for j in range(5) if j not in (i, (i + 1) % 5))

    def value(phi: float) -> float:
        cos, sin = math.cos(phi), math.sin(phi)
        pinned_sq = off_plane + (c1 * sin - c2 * cos) ** 2
        if pinned_sq < 1e-24:
            return math.inf
        moved = (a1 * cos + a2 * sin) ** 2 + (b1 * cos + b2 * sin) ** 2 / pinned_sq
        return 5.0 - 4.0 * (rest + moved)

    return e1, e2, value


def _contextual_seesaw(seed: int, iterations: int, tol: float):
    """Alternate a state step (top eigenvector of sum u_i u_i^T) with local
    vector moves. Single vectors are rigid inside the cycle, so each move
    rotates u_i on the circle orthogonal to u_{i-1} and re-pins u_{i+1} as the
    cross product with u_{i+2}; degenerate cross products abort the restart.
    Each line's golden-section search reads the closed form of
    ``_seesaw_line``, and only the accepted step builds the moved vectors.
    The vectors and the state stay 3-tuples of floats: numpy runs only the
    random start and one ``eigh`` per sweep, and the start and the value
    after each sweep are the public objective's."""
    u = _feasible_start(np.random.default_rng(seed))
    psi, previous = _state_step(u)
    for performed in range(1, iterations + 1):
        for i in range(5):
            line = _seesaw_line(u, psi, i)
            if line is None:
                continue
            e1, e2, value = line
            phi = golden_section_minimize(value, -np.pi, np.pi, tol=1e-11)
            cos, sin = math.cos(phi), math.sin(phi)
            cand = tuple(cos * x + sin * y for x, y in zip(e1, e2))
            cross = _cross(cand, u[(i + 2) % 5])
            norm = math.hypot(*cross)
            if norm < 1e-12:
                return None
            u[i], u[(i + 1) % 5] = cand, tuple(x / norm for x in cross)
        psi, current = _state_step(u)
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return float(previous), u, psi, performed, converged


def contextual_bound_kcbs(iterations: int = 200, restarts: int = 8, tol: float = 1e-9) -> BoundResult:
    """Seesaw over five exclusive rank-one tests and a state in R^3; the
    optimum 5 - 4*sqrt(5) sits strictly above the temporal extremum."""
    restarts, iterations = checked_count(restarts, "restarts", 1), checked_count(iterations, "iterations", 1)
    tol = _positive_tol(tol)
    # the result when every restart aborts; each strictly better restart replaces it
    result = BoundResult(target="contextual-kcbs", optimum=float("inf"), argument={}, iterations=0,
                         converged=False, tolerance=tol)
    for seed in range(restarts):
        outcome = _contextual_seesaw(seed, iterations, tol)
        if outcome is None:
            continue
        value, u, psi, performed, converged = outcome
        if value < result.optimum - 1e-15:
            argument = {"vectors": [[float(x) for x in ui] for ui in u], "state": [float(x) for x in psi],
                        "seed": seed}
            result = replace(result, optimum=value, argument=argument, iterations=performed,
                             converged=converged)
    return result


def _one_or_many(theta, values):
    return float(values) if np.ndim(theta) == 0 else values


def pentagon_pairwise_value(theta):
    """Ten-pair sum under the two-point anticommutator reading, one
    two-measurement chain per pair on I/2; equals 4 + 6 cos(theta) for any
    input state. An array of angles gives an array of sums."""
    theta = checked_angles(theta, "theta")
    pairs = _kcbs_cycle(theta)[..., np.array(_PENTAGON_PAIRS), :, :]  # theta.shape + (10, 2, 2, 2)
    values = correlator_sequential(mixed_state(np.eye(2) / 2), pairs)
    # summed in pair order, as the evaluator sums its terms
    return _one_or_many(theta, sum(values[..., k] for k in range(len(_PENTAGON_PAIRS))))


def pentagon_invasive_value(theta):
    """Ten-pair sum read off one invasive five-measurement chain: all five
    observables measured in order on I/2, pair correlators taken from the
    joint outcome distribution. An array of angles gives an array of sums."""
    theta = checked_angles(theta, "theta")
    dist = joint_distribution(mixed_state(np.eye(2) / 2), _kcbs_cycle(theta))
    return _one_or_many(theta, sum(dist.correlator(pair) for pair in _PENTAGON_PAIRS))


def default_pentagon_grid() -> np.ndarray:
    """Even theta grid over [0, 2*pi] plus the exact points of interest."""
    base = np.linspace(0.0, 2 * np.pi, 181)
    return np.unique(np.concatenate([base, [np.pi, float(np.arccos(-0.75))]]))


def pentagon_scan(theta_grid=None) -> BoundResult:
    """Scan both readings of the ten-pair sum over a theta grid.

    The grid and cos(theta) = -3/4 form one batch: the pairwise reading is one
    batch of ten two-measurement chains per angle, and the invasive reading
    one batch of five-measurement chains, one per angle. Both read the
    evaluators' cycle, one ``(5, 2, 2)`` block stack per angle from
    ``inequalities._kcbs_cycle``, which the kcbs and pentagon reports index
    for their pairs; the grid is checked here, before the cycle is built.

    Neither reading attains the quoted extremum -9/4 for this observable
    family: the two-point reading bottoms out at -2 (theta = pi) and the
    invasive chain also at -2 (cos theta = -1), while at cos(theta) = -3/4
    they give -1/2 and about -1.8398. The result records both readings side
    by side together with that discrepancy.
    """
    grid = default_pentagon_grid() if theta_grid is None else checked_angles(list(theta_grid), "theta grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta grid must be a nonempty sequence of angles")
    special = float(np.arccos(-0.75))
    thetas = np.append(grid, special)
    pairwise, invasive = pentagon_pairwise_value(thetas), pentagon_invasive_value(thetas)
    i_p, i_v = int(np.argmin(pairwise[:-1])), int(np.argmin(invasive[:-1]))
    argument = {
        "pairwise": {"minimum": float(pairwise[i_p]), "argmin_theta": float(grid[i_p])},
        "invasive": {"minimum": float(invasive[i_v]), "argmin_theta": float(grid[i_v])},
        "at_cos_theta_-0.75": {
            "theta": special,
            "pairwise": float(pairwise[-1]),
            "invasive": float(invasive[-1]),
        },
        "unreproduced_reference_minimum": -2.25,
        "note": (
            "the quoted extremum -9/4 for this five-measurement family is not "
            "attained by either reading; both readings are reported side by side"
        ),
    }
    return BoundResult(
        target="pentagon-lg",
        optimum=float(min(pairwise[i_p], invasive[i_v])),
        argument=argument,
        iterations=int(grid.size),
        converged=True,
        tolerance=0.0,
    )
