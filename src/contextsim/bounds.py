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
given. The contextual seesaw runs its lines through the generic loop, in
Python floats on 3-tuples. Terms accumulate one at a time in cycle order,
never stacked, so a batch of one rounds exactly as a scalar sum.

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
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (PIN_FLOOR, PLANE_FLOOR, REPLACE_MARGIN, SEARCH_TOL, SEESAW_LINE_TOL, START_FLOOR, checked_angles,
                     checked_count, checked_real, checked_reals, sigma_theta_matrix)
from .inequalities import _KCBS_PAIRS, _PENTAGON_PAIRS, BELL_TERM, _kcbs_cycle
from . import optimize
from .optimize import _INV_GOLDEN, golden_section_minimize
from .sequential import _distribution
from .states import bell_phi_plus, mixed_state

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
    argument: dict
    iterations: int
    converged: bool
    tolerance: float


def _one_tuple(angles) -> np.ndarray:
    """A public objective's angles, checked: one 5-tuple, never a stack."""
    angles = checked_angles(angles, "angles")
    if np.shape(angles) != (5,):
        raise ValueError(f"need exactly 5 angles, got shape {np.shape(angles)}")
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
    points, its fc <= fd rule, its ``MAX_STEPS`` cap and its midpoint. Each trial
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
        if hi - lo <= tol:
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
            if norm < START_FLOOR:
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
    pin. The trial is +inf where |cand x w| < PIN_FLOOR. All of it is Python
    float arithmetic on 3-tuples, where numpy would spend most of its time in
    call overhead. Returns (e1, e2, value), or None when u_i is parallel to
    u_{i-1}.
    """
    prev, w = u[(i - 1) % 5], u[(i + 2) % 5]
    along = _dot(u[i], prev)
    e1 = tuple(x - along * p for x, p in zip(u[i], prev))
    n1 = math.hypot(*e1)
    if n1 < PLANE_FLOOR:
        return None
    e1 = tuple(x / n1 for x in e1)
    e2 = _cross(prev, e1)
    w_psi = _cross(w, psi)
    a1, b1, c1 = _dot(e1, psi), _dot(e1, w_psi), _dot(e1, w)
    a2, b2, c2 = _dot(e2, psi), _dot(e2, w_psi), _dot(e2, w)
    # the squares stay powers: float ** 2 goes through libm's pow, and
    # x ** 2 != x * x in the last bit for about 1 float in 1,200 (1,660 of
    # 2,000,000 standard normal draws, Python 3.11.7 on glibc), enough to
    # move the pinned contextual digits
    off_plane = _dot(w, prev) ** 2
    rest = sum(_dot(u[j], psi) ** 2 for j in range(5) if j not in (i, (i + 1) % 5))
    pin_floor_sq = PIN_FLOOR ** 2

    def value(phi: float) -> float:
        cos, sin = math.cos(phi), math.sin(phi)
        pinned_sq = off_plane + (c1 * sin - c2 * cos) ** 2
        if pinned_sq < pin_floor_sq:
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
            phi = golden_section_minimize(value, -np.pi, np.pi, tol=SEESAW_LINE_TOL)
            cos, sin = math.cos(phi), math.sin(phi)
            cand = tuple(cos * x + sin * y for x, y in zip(e1, e2))
            cross = _cross(cand, u[(i + 2) % 5])
            norm = math.hypot(*cross)
            if norm < PIN_FLOOR:
                return None
            u[i], u[(i + 1) % 5] = cand, tuple(x / norm for x in cross)
        psi, current = _state_step(u)
        converged = performed >= 3 and previous - current < tol
        previous = current
        if converged:
            break
    return float(previous), u, psi, performed, converged


def contextual_bound_kcbs(iterations: int = 200, restarts: int = 8, tol: float = SEARCH_TOL) -> BoundResult:
    """Seesaw over five exclusive rank-one tests and a state in R^3; the
    optimum 5 - 4*sqrt(5) sits strictly above the temporal extremum.

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
    theta = checked_angles(theta, "theta")
    chains = _kcbs_cycle(theta)[..., _PARITY_PAIRS, :, :]  # theta.shape + (4, 2, 2, 2)
    values = _distribution(_HALF_IDENTITY, chains).correlator()
    # summed in pair order, as the evaluator sums its terms
    return _one_or_many(theta, sum(values[..., m] for m in _PAIR_PARITY))


def pentagon_invasive_value(theta):
    """Ten-pair sum read off one invasive five-measurement chain: all five
    observables measured in order on I/2, pair correlators taken from the
    joint outcome distribution. An array of angles gives an array of sums."""
    theta = checked_angles(theta, "theta")
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
    if theta_grid is None:
        grid = default_pentagon_grid()
    else:
        try:
            values = list(theta_grid)
        except TypeError:  # a number, or another value that is not iterable
            values = []
        grid = checked_angles(values, "theta grid")
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
