"""Numerical recovery of the contextual, temporal, and nonlocal extrema of
the five-cycle inequality family; ``inequalities.classical_bound`` computes
the classical ones from each evaluator's terms.

The Bell-side search respects the side condition <A_j B_j> = 1: the states
obeying it are the maximally correlated pair state |Phi+>, so the searched
objective is the five-term operator's expectation there, which is the cyclic
cosine sum (see ``bell_constrained_objective``). Without that restriction the
bare minimum eigenvalue reaches the algebraic -5 (a local rotation on one
side aligns all five terms at once), which belongs to a different scenario
than the constrained inequality. What this gives up: the Bell and temporal
bounds are equal because the two objectives are, an identity the tests
check, not the outcome of two independent searches.

The Bell and temporal searches share one descent: the grid 5-tuple with the
lowest cyclic cosine sum, read off one r x r cosine table bit for bit as the
batch objective rounds it, then cyclic line searches that move one angle at
a time. Each line is one golden-section loop written out in Python floats,
the generic loop's steps with no function call per trial: the fixed cosines
are taken once per line, and each trial adds its five terms in the temporal
objective's order, so it rounds as that objective would. Each search's
start, value after each sweep and convergence test call its own public
objective, which checks its input; the batch forms and the lines take it as
given. Terms accumulate one at a time in cycle order, never stacked, so a
batch of one rounds exactly as a scalar sum.

The contextual search runs such sweeps on the two angles of ``_cycle_vectors``,
through the generic loop on a closed form in Python floats (``_cycle_value``),
with ``contextual_objective`` at the start and after each sweep. That state and
objective are Python floats too (``_state_step``): the search calls no LAPACK or
BLAS kernel, so its result does not depend on which ones the host picks.

All searches are deterministic: seeded restarts, fixed sweep order, golden-
section line minimization. The contextual restarts stop at the first
converged one within tol of CONTEXTUAL_OPTIMUM, which none can beat. The
pentagon scan's pairwise reading runs the four distinct chains of its ten
pairs and reads each pair from them. Both pentagon readings run the branch
chain of ``sequential.joint_distribution`` unchecked, on cycles built from
checked angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import PIN_FLOOR, REPLACE_MARGIN, SEARCH_TOL, checked_count, checked_reals, sigma_theta_matrix
from .inequalities import _KCBS_PAIRS, _PENTAGON_PAIRS, BELL_TERM, _kcbs_cycle
from . import optimize
from .optimize import _INV_GOLDEN, golden_section_minimize
from .sequential import _distribution
from .states import bell_phi_plus, mixed_state

_ANGLE_LIMIT = float(np.finfo(float).max) / 2  # no difference of two angles this large in magnitude overflows
MAX_RESOLUTION = 16  # the grid holds resolution**4 5-tuples: a search peaks near 1.1 MB traced at 16

TSIRELSON_OPTIMUM = 5 * BELL_TERM  # the Bell and temporal optimum, -5 cos(pi/5)
CONTEXTUAL_OPTIMUM = 5 - 4 * math.sqrt(5)  # 5 - 4 theta(C5), the Lovász number theta(C5) = sqrt(5)
ACOS_MINUS_3_4 = float(np.arccos(-0.75))  # the angle with cos(theta) = -3/4, read by the pentagon scan

TARGETS = ("bell-kcbs", "temporal-kcbs", "contextual-kcbs", "pentagon-lg")

_NEXT = np.array([s for _, s in _KCBS_PAIRS])  # successor of each angle around the cycle

_PHI_PLUS = bell_phi_plus().amplitudes  # (|00> + |11>)/sqrt(2), the pair state of the side condition
_HALF_IDENTITY = mixed_state(np.eye(2) / 2)  # I/2, the state both pentagon readings measure


@dataclass(frozen=True)
class BoundResult:
    target: str
    optimum: float
    argument: dict = field(hash=False)  # a dict has no hash; equal results still hash equal
    iterations: int
    converged: bool
    tolerance: float


def _one_tuple(angles) -> np.ndarray:
    """A public objective's angles, checked: one 5-tuple, never a stack, each within +-_ANGLE_LIMIT."""
    angles = checked_reals(angles, "angles", (5,))
    if max(map(abs, angles.tolist())) > _ANGLE_LIMIT:
        raise ValueError(f"angles must be at most {_ANGLE_LIMIT:.6g} in magnitude, got {angles.tolist()}")
    return angles


def bell_operator(angles) -> np.ndarray:
    """Sum of the five cross terms sigma(a_r) x sigma(a_{r+1}) over the cycle."""
    sig = sigma_theta_matrix(_one_tuple(angles))
    left, right = sig[:, :, None, :, None], sig[:, None, :, None, :]
    return sum((left[r] * right[s]).reshape(4, 4) for r, s in _KCBS_PAIRS)


def bell_constrained_objective(angles) -> float:
    """Minimum of the five-term operator over states obeying <A_j B_j> = 1,
    read as its expectation on the pair state |Phi+>.

    For an x-z angle a the +1 eigenspace of sigma(a) x sigma(a) is spanned by
    |Phi+> and by a second vector that turns with 2a, so the admissible
    states, the common +1 eigenspace of the five constraints, are |Phi+>
    alone unless all five angles agree mod pi. Then every term is +-1 times
    the identity on that two-dimensional space, so B is one value there.
    Either way the constrained minimum is <Phi+|B(a)|Phi+>, which is the
    cyclic cosine sum, as sigma(a) x sigma(b) reads cos(a - b) on |Phi+>.
    """
    return float((_PHI_PLUS @ bell_operator(angles) @ _PHI_PLUS).real)


def _cycle_cosines(angles: np.ndarray) -> np.ndarray:
    """The cyclic cosine sum of a float 5-tuple or of each row of an (M, 5)
    stack, unchecked: the public objectives check their angles first."""
    return sum(np.cos(angles - angles.take(_NEXT, axis=-1)).T)


def temporal_objective(angles) -> float:
    """Sum of the five cyclic two-time correlators, cos(a_i - a_{i+1}); the
    anticommutator form makes each term state independent."""
    return float(_cycle_cosines(_one_tuple(angles)))


def _positive_tol(tol) -> float:
    tol = checked_reals(tol, "tol", ())
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


def _coarse_bell_minimum(resolution: int) -> np.ndarray:
    """The grid 5-tuple with the lowest cyclic cosine sum (first in grid
    order), the start of both angle searches; only that row is built as a
    5-tuple. It keeps a Bell-search name because the benchmark's tracer
    (``TARGETS`` in ``perfbench/tracing.py``) books the grid under
    ``bounds.coarse_grid`` by this name."""
    return _coarse_grid_tuples(resolution, [np.argmin(_grid_cosines(_grid(resolution)))])[0]


def _line_argmin(angles: list, i: int, tol: float) -> float:
    """The golden-section argmin of ``temporal_objective`` on line i of the
    descent, where only a_i moves, over [a_i - pi, a_i + pi].

    The loop is ``golden_section_minimize``'s step for step: its trial
    points, its fc <= fd rule, its stops and its midpoint. Each trial
    writes the line's value out instead of calling a function, and adds its
    five terms in cycle order, as ``_cycle_cosines`` does, so it equals the
    objective bit for bit. The fixed terms t_r = cos(a_r - a_{r+1}) are taken
    once. Line 0 moves the first and the last term: cos(x - a_1) + t_1 + t_2 +
    t_3 + cos(a_4 - x). Lines 1 to 4 move two adjacent terms: the fixed ones
    ahead of them are summed into ``head`` first, and the ones after are added
    one at a time, a missing one as 0.0, which adds exactly. Summing the later
    fixed terms ahead would round differently, as (x + t3) + t4 need not be
    x + (t3 + t4).
    """
    t = [math.cos(angles[r] - angles[s]) for r, s in _KCBS_PAIRS]
    before, after, cos = angles[i - 1], angles[(i + 1) % 5], math.cos
    wrap = i == 0
    head = 0.0 if wrap else sum(t[:i - 1], 0.0)
    u, v, w = t[1:4] if wrap else (t[i + 1:] + [0.0, 0.0, 0.0])[:3]
    lo, hi = angles[i] - math.pi, angles[i] + math.pi
    c, d = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
    fc = (cos(c - after) + u + v + w + cos(before - c) if wrap
          else head + cos(before - c) + cos(c - after) + u + v + w)
    fd = (cos(d - after) + u + v + w + cos(before - d) if wrap
          else head + cos(before - d) + cos(d - after) + u + v + w)
    for _ in range(optimize.MAX_STEPS):
        if hi - lo <= tol or (d == hi if fc <= fd else c == lo):
            break
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = (cos(c - after) + u + v + w + cos(before - c) if wrap
                  else head + cos(before - c) + cos(c - after) + u + v + w)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = (cos(d - after) + u + v + w + cos(before - d) if wrap
                  else head + cos(before - d) + cos(d - after) + u + v + w)
    return (lo + hi) / 2


def _descend(objective, angles: np.ndarray, sweeps: int, tol: float):
    """Cyclic coordinate descent, one ``_line_argmin`` per angle and sweep.

    The lines read the cyclic cosine sum, which is ``objective`` up to
    round-off (bit for bit for the temporal one); the start, the value after
    each sweep and the convergence test call ``objective``."""
    angles, line_tol = np.array(angles, dtype=float), min(tol, SEARCH_TOL)
    previous = objective(angles)
    for performed in range(1, sweeps + 1):
        for i in range(5):
            angles[i] = _line_argmin(angles.tolist(), i, line_tol)
        current = objective(angles)
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return angles, float(previous), performed, converged


def _angle_search(target: str, objective, resolution, sweeps, tol) -> BoundResult:
    """Start at the grid's lowest cyclic cosine sum, then descend on the scalar
    ``objective`` (see ``_descend``)."""
    sweeps, tol = checked_count(sweeps, "sweeps", 1), _positive_tol(tol)
    angles, value, performed, converged = _descend(objective, _coarse_bell_minimum(resolution), sweeps, tol)
    return BoundResult(target=target, optimum=value, argument={"angles": [float(a) for a in angles]},
                       iterations=performed, converged=converged, tolerance=tol)


def tsirelson_search_bell(resolution: int = 8, sweeps: int = 40, tol: float = SEARCH_TOL) -> BoundResult:
    """Minimize the constrained five-term objective over angle 5-tuples.

    The constrained objective is the cyclic cosine sum (see
    ``bell_constrained_objective``), so the search runs the temporal one's
    grid start and lines; its start, value after each sweep and convergence
    test are the Bell objective's, read off the Bell operator, and so is the
    reported optimum. The optimum sits at equal angle steps of 4*pi/5 with
    value -5 cos(pi/5).
    """
    return _angle_search("bell-kcbs", bell_constrained_objective, resolution, sweeps, tol)


def temporal_bound_kcbs(resolution: int = 8, tol: float = SEARCH_TOL, sweeps: int = 40) -> BoundResult:
    """Minimize the cyclic cosine sum over angle 5-tuples.

    Coarse grid first, then cyclic golden-section descent whose lines
    (``_line_argmin``) write the objective out in each trial, summed in its
    order; the search therefore takes the steps it would take calling the
    objective on every trial.
    """
    return _angle_search("temporal-kcbs", temporal_objective, resolution, sweeps, tol)


def contextual_objective(vectors, psi) -> float:
    """5 - 4 * sum_i <psi|u_i><u_i|psi> for projective X_i = 2|u_i><u_i| - I
    with adjacent orthogonality, summed in Python floats; minimized at 5 - 4*sqrt(5)."""
    vectors = checked_reals(vectors, "vectors", (5, 3)).tolist()
    x, y, z = checked_reals(psi, "state", (3,)).tolist()
    return 5.0 - 4.0 * sum((u[0] * x + u[1] * y + u[2] * z) ** 2 for u in vectors)


def _cycle_vectors(a: float, b: float):
    """The family's five-cycle at (a, b) as 3-tuples: u_0 = e_z, u_1 = e_x,
    u_2 = (0, cos a, sin a), u_3 = (cos b, sin b sin a, -sin b cos a), u_4 =
    u_0 x u_3 / |u_0 x u_3|; None where |u_0 x u_3| < PIN_FLOOR. A five-cycle
    has 10 - 5 = 5 degrees of freedom; the 3 of a rotation leave the spectrum
    of sum_i u_i u_i^T, so every one is a rotation of a member (up to u_4's sign)."""
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    pin = math.hypot(sb * sa, cb)
    if pin < PIN_FLOOR:
        return None
    return [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, ca, sa), (cb, sb * sa, -sb * ca), (-sb * sa / pin, cb / pin, 0.0)]


def _cycle_value(a: float, b: float) -> float:
    """5 - 4 lambda_max(M), M = sum_i u_i u_i^T of ``_cycle_vectors(a, b)``
    written out in Python floats (the tuples would double its time), +inf at a
    degenerate pin. M has trace 5, so with q = 5/3, p^2 = tr((M - qI)^2)/6 > 0
    and r = det(M - qI)/(2 p^3) its eigenvalues are q + 2 p cos((acos(r) + 2 pi k)/3).
    For r > -1/2 the top one (k = 0) is read directly. Nearer -1 the top two may
    meet, where the cubic fixes them only to sqrt(eps), so the lowest (k = 1) is
    deflated: A = M - lambda_min I has adj(A) = mu_1 mu_2 v v^T, and
    N = A - (tr A / 2)(I - v v^T) has |N|_F = (mu_1 - mu_2) / sqrt(2)."""
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    pin = math.hypot(sb * sa, cb)
    if pin < PIN_FLOOR:
        return math.inf
    y2, z2, x3, y3, z3, x4, y4 = ca, sa, cb, sb * sa, -sb * ca, -sb * sa / pin, cb / pin
    q = 5.0 / 3.0
    dx, dy, dz = 1.0 + x3 * x3 + x4 * x4 - q, y2 * y2 + y3 * y3 + y4 * y4 - q, 1.0 + z2 * z2 + z3 * z3 - q
    xy, xz, yz = x3 * y3 + x4 * y4, x3 * z3, y2 * z2 + y3 * z3
    p = math.sqrt((dx * dx + dy * dy + dz * dz + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    r = (dx * (dy * dz - yz * yz) - xy * (xy * dz - yz * xz) + xz * (xy * yz - dy * xz)) / (2.0 * p * p * p)
    if r > -0.5:
        return 5.0 - 4.0 * (q + 2.0 * p * math.cos(math.acos(min(r, 1.0)) / 3.0))
    low = 2.0 * p * math.cos((math.acos(max(r, -1.0)) + 2.0 * math.pi) / 3.0)  # lambda_min - q
    ax, ay, az = dx - low, dy - low, dz - low
    cxx, cyy, czz = ay * az - yz * yz, ax * az - xz * xz, ax * ay - xy * xy
    cxy, cxz, cyz = xz * yz - xy * az, xy * yz - xz * ay, xy * xz - ax * yz
    m = (ax + ay + az) / 2.0
    k = m / (cxx + cyy + czz)
    spread = ((ax - m + k * cxx) ** 2 + (ay - m + k * cyy) ** 2 + (az - m + k * czz) ** 2
              + 2.0 * ((xy + k * cxy) ** 2 + (xz + k * cxz) ** 2 + (yz + k * cyz) ** 2))
    return 5.0 - 4.0 * (q + low + m + math.sqrt(spread / 2.0))


def _state_step(u, value: float):
    """The top eigenvector psi of M = sum_i u_i u_i^T, as a tuple, and the
    public objective at (u, psi), in Python floats. With lambda = (5 - value)/4
    from ``_cycle_value``, psi is the longest cross product of two rows of
    M - lambda I, normalized, with its largest-magnitude entry positive."""
    lam = (5.0 - value) / 4.0
    m = [[sum(v[r] * v[c] for v in u) - (lam if r == c else 0.0) for c in range(3)] for r in range(3)]
    psi = max(((p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
               for p, q in ((m[0], m[1]), (m[0], m[2]), (m[1], m[2]))), key=lambda w: math.hypot(*w))
    norm = math.copysign(math.hypot(*psi), max(psi, key=abs))
    psi = tuple(x / norm for x in psi)
    return psi, contextual_objective(u, psi)


def _contextual_seesaw(seed: int, iterations: int, tol: float):
    """One seeded restart: (a, b) uniform on [-pi, pi)^2, then sweeps of two
    lines on ``_cycle_value``, a then b, each over [x - pi, x + pi], with
    ``_descend``'s line tolerance and convergence test, on the public objective
    (``_state_step``); None when the start or an accepted point is a degenerate
    pin. The benchmark's tracer (``TARGETS`` in ``perfbench/tracing.py``) books
    it as ``bounds.seesaw`` by this name."""
    a, b = np.random.default_rng(seed).uniform(-math.pi, math.pi, 2).tolist()
    line_tol = min(tol, SEARCH_TOL)
    u = _cycle_vectors(a, b)
    if u is None:
        return None
    psi, previous = _state_step(u, _cycle_value(a, b))
    for performed in range(1, iterations + 1):
        a = golden_section_minimize(lambda x: _cycle_value(x, b), a - math.pi, a + math.pi, tol=line_tol)
        if _cycle_vectors(a, b) is None:
            return None
        b = golden_section_minimize(lambda x: _cycle_value(a, x), b - math.pi, b + math.pi, tol=line_tol)
        u = _cycle_vectors(a, b)
        if u is None:
            return None
        psi, current = _state_step(u, _cycle_value(a, b))
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return float(previous), u, psi, performed, converged


def contextual_bound_kcbs(iterations: int = 200, restarts: int = 8, tol: float = SEARCH_TOL) -> BoundResult:
    """Minimize over five exclusive rank-one tests and a state in R^3 by
    seeded restarts of ``_contextual_seesaw``; the optimum 5 - 4*sqrt(5) sits
    strictly above the temporal extremum.

    ``restarts`` is an upper limit: the search stops after the first converged
    restart whose kept optimum lies within ``tol`` of CONTEXTUAL_OPTIMUM. The
    argument records why it stopped, also when every restart aborts:
    ``restarts_run``, the seeds tried, and ``stopped_at_certificate``."""
    restarts, iterations = checked_count(restarts, "restarts", 1), checked_count(iterations, "iterations", 1)
    tol = _positive_tol(tol)
    # the result when every restart aborts; each strictly better restart replaces it
    result = BoundResult(target="contextual-kcbs", optimum=float("inf"), argument={}, iterations=0,
                         converged=False, tolerance=tol)
    stopped = False
    for seed in range(restarts):
        outcome = _contextual_seesaw(seed, iterations, tol)
        if outcome is None:
            continue
        value, u, psi, performed, converged = outcome
        if value < result.optimum - REPLACE_MARGIN:
            argument = {"vectors": [[float(x) for x in ui] for ui in u], "state": [float(x) for x in psi],
                        "seed": seed}
            result = replace(result, optimum=value, argument=argument, iterations=performed,
                             converged=converged)
        stopped = result.converged and result.optimum - CONTEXTUAL_OPTIMUM < tol
        if stopped:
            break
    why = {"restarts_run": seed + 1, "stopped_at_certificate": stopped}
    return replace(result, argument={**result.argument, **why})


# the slot parities (i % 2, j % 2) of a pair's two measurements, and for each
# pair of _PENTAGON_PAIRS, in its order, the index of its parities here
_PARITY_PAIRS = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
_PAIR_PARITY = tuple(2 * (i % 2) + j % 2 for i, j in _PENTAGON_PAIRS)


def _checked_theta(theta):
    """theta by the evaluators' one-number rule; a list, tuple or array of one or more dimensions by the array rule."""
    return checked_reals(theta, "theta", None if isinstance(theta, (list, tuple)) or getattr(theta, "ndim", 0) else ())


def _one_or_many(theta, values):
    return float(values) if np.ndim(theta) == 0 else values


def pentagon_pairwise_value(theta):
    """Ten-pair sum under the two-point anticommutator reading, one
    two-measurement chain per pair on I/2; equals 4 + 6 cos(theta) for any
    input state. An array of angles gives an array of sums.

    The cycle holds the same Z block at every even slot and the same theta
    block at every odd one, so a pair's chain depends only on the parities of
    its two slots: the four distinct chains run as one batch, and each pair
    reads its parities' value."""
    theta = _checked_theta(theta)
    chains = _kcbs_cycle(theta)[..., _PARITY_PAIRS, :, :]  # theta.shape + (4, 2, 2, 2)
    values = _distribution(_HALF_IDENTITY, chains).correlator()
    # summed in pair order, as the evaluator sums its terms
    return _one_or_many(theta, sum(values[..., m] for m in _PAIR_PARITY))


def pentagon_invasive_value(theta):
    """Ten-pair sum read off one invasive five-measurement chain: all five
    observables measured in order on I/2, pair correlators taken from the
    joint outcome distribution. An array of angles gives an array of sums."""
    theta = _checked_theta(theta)
    dist = _distribution(_HALF_IDENTITY, _kcbs_cycle(theta))
    return _one_or_many(theta, sum(dist.correlator(pair) for pair in _PENTAGON_PAIRS))


def default_pentagon_grid() -> np.ndarray:
    """Even theta grid over [0, 2*pi] plus the exact points of interest."""
    base = np.linspace(0.0, 2 * np.pi, 181)
    return np.unique(np.concatenate([base, [np.pi, ACOS_MINUS_3_4]]))


def pentagon_scan(theta_grid=None) -> BoundResult:
    """Scan both readings of the ten-pair sum over a theta grid.

    The grid and cos(theta) = -3/4 form one batch: the pairwise reading is one
    batch of four two-measurement chains per angle, one per pair of slot
    parities, read back into the ten pair terms, and the invasive reading one
    batch of five-measurement chains, one per angle. Both read the
    evaluators' cycle, one ``(5, 2, 2)`` block stack per angle from
    ``inequalities._kcbs_cycle``, which the kcbs and pentagon reports index
    for their pairs; the grid is checked here, before the cycle is built.

    Neither reading attains the quoted extremum -9/4 for this observable
    family: the two-point reading bottoms out at -2 (theta = pi) and the
    invasive chain also at -2 (cos theta = -1), while at cos(theta) = -3/4
    they give -1/2 and about -1.8398. The result records both readings side
    by side together with that discrepancy. The property tests hold both to
    closed forms: a qubit Lüders chain has E[s_i s_j] = prod n_m . n_{m+1}, so
    with c = cos(theta) they are 4 + 6c and 4c + 3c^2 + 2c^3 + c^4, and the
    invasive sum is at least -2 for every qubit family, at a sign vertex.
    """
    grid = default_pentagon_grid() if theta_grid is None else checked_reals(theta_grid, "theta grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta grid must be a nonempty sequence of angles")
    thetas = np.append(grid, ACOS_MINUS_3_4)
    pairwise, invasive = pentagon_pairwise_value(thetas), pentagon_invasive_value(thetas)
    i_p, i_v = int(np.argmin(pairwise[:-1])), int(np.argmin(invasive[:-1]))
    argument = {
        "pairwise": {"minimum": float(pairwise[i_p]), "argmin_theta": float(grid[i_p])},
        "invasive": {"minimum": float(invasive[i_v]), "argmin_theta": float(grid[i_v])},
        "at_cos_theta_-0.75": {
            "theta": ACOS_MINUS_3_4,
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
