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
constrained minimum, the cyclic cosine sum) and one driver: the coarse grid
evaluates all its tuples in one call, then cyclic line searches move one
angle at a time. The temporal lines read a closed form: the three fixed
cosines are taken once per line, the two moving ones per trial, and the five
are summed in the public objective's order, so each trial rounds exactly as
the objective would. The Bell lines use a closed form, c0 + c1 cos x +
c2 sin x, built once per line from one eigensolve of the four fixed
penalties; a line whose kernel could change along it calls the public
objective instead. The start, the value after each sweep and the convergence
test always call the public objective. Terms accumulate one at a time in
cycle order, never stacked, so a batch of one rounds exactly as a scalar sum.
The Bell grid is screened by its cosine sums first: the constrained
objective runs only on the few rows that can hold its minimum.

All searches are deterministic: seeded restarts, fixed sweep order, golden-
section line minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Z, checked_count, sigma_theta_matrix
from .optimize import golden_section_minimize
from .scattering import sigma_theta_evolution
from .sequential import correlator_sequential, joint_distribution
from .states import mixed_state

KERNEL_TOL = 1e-9
MAX_RESOLUTION = 16  # the grid holds resolution**4 5-tuples: about 14 MB traced at 16
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
    return _cycle_operator(_sigma_products(angles))


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
    return float(_constrained_minima(angles))


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
    return float(_cycle_cosines(angles))


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
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return tol


def _coarse_grid_tuples(resolution: int) -> np.ndarray:
    """All angle 5-tuples over the grid, one per row, with the first angle
    pinned to 0; a global angle shift changes neither spectra nor constraints."""
    resolution = checked_count(resolution, "resolution", 1)
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, got {resolution}")
    grid = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    mesh = np.meshgrid(*([grid] * 4), indexing="ij")
    return np.stack([np.zeros(mesh[0].size)] + [m.reshape(-1) for m in mesh], axis=1)


def _coarse_minimum(batch_objective, resolution: int) -> np.ndarray:
    """The grid 5-tuple where ``batch_objective`` is lowest (first in grid order)."""
    angles = _coarse_grid_tuples(resolution)
    return angles[int(np.argmin(batch_objective(angles)))]


def _coarse_bell_minimum(resolution: int) -> np.ndarray:
    """``_coarse_minimum(_constrained_minima, resolution)``, screened. A row
    whose second penalty eigenvalue, (5 - |sum_j exp(2i a_j)|)/2, is at least
    _SCREEN_MARGIN has the pair state as its kernel, where the constrained
    minimum is the cosine sum to 1e-12; so only rows within _SCREEN_MARGIN of
    the lowest sum, or below that eigenvalue, can win, and keep their values."""
    angles = _coarse_grid_tuples(resolution)
    cosines = _cycle_cosines(angles)
    second = (5 - np.abs(np.exp(2j * angles).sum(axis=-1))) / 2
    kept = angles[(cosines <= cosines.min() + _SCREEN_MARGIN) | (second < _SCREEN_MARGIN)]
    return kept[int(np.argmin(_constrained_minima(kept)))]


def _coarse_temporal_minimum(resolution: int) -> np.ndarray:
    return _coarse_minimum(_cycle_cosines, resolution)


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

            angles[i] = golden_section_minimize(
                along, angles[i] - np.pi, angles[i] + np.pi, tol=min(tol, 1e-9)
            )
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
    return BoundResult(
        target=target,
        optimum=value,
        argument={"angles": [float(a) for a in angles]},
        iterations=performed,
        converged=converged,
        tolerance=tol,
    )


def tsirelson_search_bell(resolution: int = 8, sweeps: int = 40, tol: float = 1e-9) -> BoundResult:
    """Minimize the constrained five-term objective over angle 5-tuples.

    Coarse grid first, then cyclic golden-section descent whose line
    searches read the closed form of ``_bell_line`` where it holds and the
    objective elsewhere; the reported optimum is the objective's value. The
    optimum sits at equal angle steps of 4*pi/5 with value -5 cos(pi/5).
    """
    return _angle_search(
        "bell-kcbs", _coarse_bell_minimum, bell_constrained_objective, _bell_line,
        resolution, sweeps, tol,
    )


def temporal_bound_kcbs(resolution: int = 8, tol: float = 1e-9, sweeps: int = 40) -> BoundResult:
    """Minimize the cyclic cosine sum over angle 5-tuples; same optimum as the
    constrained Bell search, recovered through an independent objective.

    Coarse grid first, then cyclic golden-section descent whose line searches
    read ``_temporal_line``, the closed form summed in the objective's order;
    the search therefore takes the steps it would take calling the objective
    on every trial.
    """
    return _angle_search(
        "temporal-kcbs", _coarse_temporal_minimum, temporal_objective, _temporal_line,
        resolution, sweeps, tol,
    )


def contextual_objective(vectors, psi) -> float:
    """5 - 4 * sum_i <psi|u_i><u_i|psi> for projective X_i = 2|u_i><u_i| - I
    with adjacent orthogonality; minimized at 5 - 4*sqrt(5)."""
    psi = np.asarray(psi, dtype=float)
    return float(5.0 - 4.0 * sum(float(np.dot(u, psi)) ** 2 for u in vectors))


def _cross(a, b) -> np.ndarray:
    """``np.cross`` of two 3-vectors, bit for bit (each product rounded, then
    the difference), on Python floats: one seesaw search takes about 800, and
    on a single pair ``np.cross`` pays some 30 times this in call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _feasible_start(rng: np.random.Generator):
    for _ in range(200):
        u = [None] * 5
        v = rng.standard_normal(3)
        u[0] = v / np.linalg.norm(v)
        ok = True
        for i in range(1, 4):
            v = rng.standard_normal(3)
            v -= (v @ u[i - 1]) * u[i - 1]
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                ok = False
                break
            u[i] = v / norm
        if not ok:
            continue
        v = _cross(u[3], u[0])
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        u[4] = v / norm
        return u
    raise RuntimeError("could not draw a feasible five-cycle start")


def _top_state(u) -> np.ndarray:
    _, vecs = np.linalg.eigh(sum(np.outer(ui, ui) for ui in u))
    return vecs[:, -1]


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
    pin. The trial is +inf where |cand x w| < 1e-12. Returns (e1, e2, value),
    or None when u_i is parallel to u_{i-1}.
    """
    im1, ip1, ip2 = (i - 1) % 5, (i + 1) % 5, (i + 2) % 5
    e1 = u[i] - (u[i] @ u[im1]) * u[im1]
    n1 = np.linalg.norm(e1)
    if n1 < 1e-10:
        return None
    e1 /= n1
    e2 = _cross(u[im1], e1)
    w = u[ip2]
    products = np.array([e1, e2]) @ np.array([psi, _cross(w, psi), w]).T
    (a1, b1, c1), (a2, b2, c2) = products.tolist()
    off_plane = float(w @ u[im1]) ** 2
    rest = sum(float(np.dot(u[j], psi)) ** 2 for j in range(5) if j not in (i, ip1))

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
    Along each line the golden-section search reads the closed form
    5 - 4 (rest + (a.t)^2 + (b.t)^2 / (1 - (c.t)^2)), t = (cos phi, sin phi),
    whose scalars and rest ``_seesaw_line`` computes once per line; only the
    accepted step builds the moved vectors."""
    rng = np.random.default_rng(seed)
    u = _feasible_start(rng)
    previous = np.inf
    psi = _top_state(u)
    for performed in range(1, iterations + 1):
        for i in range(5):
            line = _seesaw_line(u, psi, i)
            if line is None:
                continue
            e1, e2, value = line
            phi = golden_section_minimize(value, -np.pi, np.pi, tol=1e-11)
            cand = np.cos(phi) * e1 + np.sin(phi) * e2
            cross = _cross(cand, u[(i + 2) % 5])
            norm = np.linalg.norm(cross)
            if norm < 1e-12:
                return None
            u[i], u[(i + 1) % 5] = cand, cross / norm
        psi = _top_state(u)
        current = contextual_objective(u, psi)
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return float(previous), u, psi, performed, converged


def contextual_bound_kcbs(iterations: int = 200, restarts: int = 8, tol: float = 1e-9) -> BoundResult:
    """Seesaw over five exclusive rank-one tests and a state in R^3; the
    optimum 5 - 4*sqrt(5) sits strictly above the temporal extremum."""
    restarts = checked_count(restarts, "restarts", 1)
    iterations = checked_count(iterations, "iterations", 1)
    tol = _positive_tol(tol)
    best = None
    for seed in range(restarts):
        outcome = _contextual_seesaw(seed, iterations, tol)
        if outcome is None:
            continue
        value, u, psi, performed, converged = outcome
        if best is None or value < best[0] - 1e-15:
            best = (value, u, psi, performed, converged, seed)
    if best is None:
        return BoundResult(
            target="contextual-kcbs",
            optimum=float("inf"),
            argument={},
            iterations=0,
            converged=False,
            tolerance=tol,
        )
    value, u, psi, performed, converged, seed = best
    return BoundResult(
        target="contextual-kcbs",
        optimum=value,
        argument={
            "vectors": [[float(x) for x in ui] for ui in u],
            "state": [float(x) for x in psi],
            "seed": seed,
        },
        iterations=performed,
        converged=converged,
        tolerance=tol,
    )


# the ten pairs (i, j), i < j, of the five-measurement cycle, in report order
_PENTAGON_PAIRS = tuple((i, j) for i in range(5) for j in range(i + 1, 5))


def _pentagon_cycle(theta) -> np.ndarray:
    """The five Heisenberg observables (Z, th, Z, th, Z) of the alternating
    cycle, shape ``theta.shape + (5, 2, 2)``: U^dag Z U with
    U = sigma_theta_evolution(theta) on the odd slots, the product that
    ``heisenberg_observable`` takes of the evaluators' slots."""
    u = sigma_theta_evolution(theta)
    th = u.conj().swapaxes(-1, -2) @ PAULI_Z @ u
    z = np.broadcast_to(PAULI_Z, th.shape)
    return np.stack([z, th, z, th, z], axis=-3)


def _one_or_many(theta, values):
    return float(values) if np.ndim(theta) == 0 else values


def pentagon_pairwise_value(theta):
    """Ten-pair sum under the two-point anticommutator reading, one
    two-measurement chain per pair on I/2; equals 4 + 6 cos(theta) for any
    input state. An array of angles gives an array of sums."""
    pairs = _pentagon_cycle(theta)[..., np.array(_PENTAGON_PAIRS), :, :]  # theta.shape + (10, 2, 2, 2)
    values = correlator_sequential(mixed_state(np.eye(2) / 2), pairs)
    # summed in pair order, as the evaluator sums its terms
    return _one_or_many(theta, sum(values[..., k] for k in range(len(_PENTAGON_PAIRS))))


def pentagon_invasive_value(theta):
    """Ten-pair sum read off one invasive five-measurement chain: all five
    observables measured in order on I/2, pair correlators taken from the
    joint outcome distribution. An array of angles gives an array of sums."""
    dist = joint_distribution(mixed_state(np.eye(2) / 2), _pentagon_cycle(theta))
    return _one_or_many(theta, sum(dist.correlator(pair) for pair in _PENTAGON_PAIRS))


def default_pentagon_grid() -> np.ndarray:
    """Even theta grid over [0, 2*pi] plus the exact points of interest."""
    base = np.linspace(0.0, 2 * np.pi, 181)
    return np.unique(np.concatenate([base, [np.pi, float(np.arccos(-0.75))]]))


def pentagon_scan(theta_grid=None) -> BoundResult:
    """Scan both readings of the ten-pair sum over a theta grid.

    The grid and cos(theta) = -3/4 form one batch: the pairwise reading is one
    batch of ten two-measurement chains per angle, and the invasive reading
    one batch of five-measurement chains, one per angle.

    Neither reading attains the quoted extremum -9/4 for this observable
    family: the two-point reading bottoms out at -2 (theta = pi) and the
    invasive chain also at -2 (cos theta = -1), while at cos(theta) = -3/4
    they give -1/2 and about -1.8398. The result records both readings side
    by side together with that discrepancy.
    """
    grid = default_pentagon_grid() if theta_grid is None else np.asarray(list(theta_grid), dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta grid must be a nonempty sequence of angles")
    bad = grid[~np.isfinite(grid)]
    if bad.size:
        raise ValueError(f"theta grid holds a non-finite angle: {bad[0]}")
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
