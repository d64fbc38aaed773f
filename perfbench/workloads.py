"""The three seeded workloads: input generation, one operation, and its check.

Every workload turns a seed into an endless sequence of blocks of operations.
Blocks are balanced designs (each combination of the properties that set an
operation's cost appears a fixed number of times per block, in shuffled
order), so two seeds differ in their random inputs but not in their cost mix.
Inputs are generated before the block runs and never inside a timed call.

Import this module only after ``bootstrap.load_contextsim()``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from contextsim import bounds, cli, scattering, sequential, states

ROUTES = ("scattering", "direct", "sequential")
FORMATS = ("table", "json", "csv")

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Reports print six decimals in table and CSV form; JSON keeps every digit.
PRINT_PRECISION = 5e-7
SUM_ATOL = 1e-9
ROUTE_ATOL = 1e-10

BELL_OPTIMUM = -5 * math.cos(math.pi / 5)
CONTEXTUAL_OPTIMUM = 5 - 4 * math.sqrt(5)


@dataclass
class OpResult:
    """One finished operation. ``sections`` are its timed calls as
    (route or search name, items computed, start, end), times from
    ``time.perf_counter``."""

    ok: bool
    sections: list = field(default_factory=list)
    error: str = ""


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dichotomic(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return v[0] * _X + v[1] * _Y + v[2] * _Z


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- evaluate


@dataclass(frozen=True)
class EvalRequest:
    argv: tuple[str, ...]
    state_text: str | None  # amplitude file content when --state names a file
    route: str
    fmt: str
    terms: int  # correlator values the request computes
    expected: float  # closed form of the reported sum

    def describe(self):
        argv = tuple(Path(a).name if a.endswith(".txt") else a for a in self.argv)
        return argv, self.state_text


_EVAL_COMMANDS = {"pm": 6, "kcbs": 5, "pentagon": 10, "bell": 10}  # terms per evaluation


def _angle(rng: np.random.Generator) -> tuple[str, float]:
    r = rng.random()
    if r < 0.1:
        return "pi", math.pi
    if r < 0.2:
        x = float(rng.uniform(-1.0, 1.0))
        return f"acos({x!r})", math.acos(x)
    theta = float(rng.uniform(0.0, 2 * math.pi))
    return repr(theta), theta


def _closed_form(command: str, theta: float, p: float, v: float) -> float:
    if command == "pm":
        return 6 * v ** 3
    if command == "kcbs":
        return (1 + 4 * math.cos(theta)) * v ** 2
    if command == "pentagon":
        return (4 + 6 * math.cos(theta)) * v ** 2
    return (1 - p) * 5 * math.cos(4 * math.pi / 5) * v


def _reported_sum(text: str, fmt: str) -> float:
    if fmt == "json":
        return float(json.loads(text)["sum"])
    if fmt == "csv":
        return float(text.strip().splitlines()[-1].split(",")[3])
    for line in text.splitlines():
        if line.startswith("sum: "):
            return float(line.split()[1])
    raise ValueError("no sum line in the table")


class Evaluate:
    """In-process ``cli.main(argv)`` requests with stdout captured in memory."""

    name = "evaluate"
    trace_ops = 432
    warmup_ops = 12

    def blocks(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        # two clean requests and one noisy one per command x route x format
        design = [
            (c, m, f, noisy)
            for c in _EVAL_COMMANDS
            for m in ROUTES
            for f in FORMATS
            for noisy in (False, False, True)
        ]
        index = 0
        while True:
            block = []
            for k in rng.permutation(len(design)):
                command, route, fmt, noisy = design[k]
                block.append(self._request(rng, workdir, index, command, route, fmt, noisy))
                index += 1
            yield block

    def _request(self, rng, workdir, index, command, route, fmt, noisy) -> EvalRequest:
        argv = [command]
        state_text = None
        if command == "bell":
            state = "bell"
        else:
            n = 2 if command == "pm" else 1
            if rng.random() < 0.5:
                state = "".join(rng.choice(["0", "1"], size=n))
            else:
                amps = _haar_vector(2 ** n, rng)
                state_text = "".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in amps)
                path = workdir / f"state_{index:06d}.txt"
                path.write_text(state_text, encoding="utf-8")
                state = str(path)
        argv += ["--state", state, "--method", route, "--format", fmt]
        theta = 0.0
        if command in ("kcbs", "pentagon"):
            token, theta = _angle(rng)
            argv += ["--theta", token]
        p, v = 0.0, 1.0
        if noisy:
            kind = int(rng.integers(3))
            if kind in (0, 2):
                p = float(rng.uniform(0.0, 0.3))
                argv += ["--noise-p", repr(p)]
            if kind in (1, 2):
                v = float(rng.uniform(0.8, 1.0))
                argv += ["--visibility", repr(v)]
        terms = _EVAL_COMMANDS[command] * (2 if noisy else 1)
        return EvalRequest(tuple(argv), state_text, route, fmt, terms, _closed_form(command, theta, p, v))

    def execute(self, req: EvalRequest, between=None) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(req.argv))
            except (Exception, SystemExit) as exc:  # argparse rejects by SystemExit
                sections = [(req.route, req.terms, start, time.perf_counter())]
                return OpResult(False, sections, repr(exc))
            sections = [(req.route, req.terms, start, time.perf_counter())]
        if code != 0:
            return OpResult(False, sections, f"exit code {code}: {err.getvalue().strip()}")
        try:
            value = _reported_sum(out.getvalue(), req.fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return OpResult(False, sections, f"unparsable report: {exc!r}")
        tol = SUM_ATOL + (0.0 if req.fmt == "json" else PRINT_PRECISION)
        if not abs(value - req.expected) <= tol:
            return OpResult(False, sections, f"sum {value!r} != closed form {req.expected!r}")
        return OpResult(True, sections)


# ------------------------------------------------------------------ correlators


@dataclass(frozen=True)
class CorrelatorInput:
    spec: object
    state: object
    heisenberg: tuple  # U^dag (O_1 x ... x O_n) U per slot: the sequential route's input
    two_time: float | None  # 0.5 Re tr(rho {H_1, H_2}) when there are two slots
    digest: str

    def describe(self):
        return self.digest


class Correlators:
    """Random specs through the three routes, bypassing cli, report and terms."""

    name = "correlators"
    trace_ops = 240
    warmup_ops = 8

    def blocks(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        # three-qubit registers weigh double: they are where the kernels dominate
        design = [(n, k, mixed) for n in (1, 2, 3, 3) for k in range(2, 7) for mixed in (False, True)]
        while True:
            yield [self._input(rng, *design[i]) for i in rng.permutation(len(design))]

    def _input(self, rng, n, n_slots, mixed) -> CorrelatorInput:
        dim = 2 ** n
        slots, heisenberg, raw = [], [], []
        for _ in range(n_slots):
            obs = tuple(_dichotomic(rng) for _ in range(n))
            u = _haar_unitary(dim, rng)
            slots.append(scattering.TimeSlot(observables=obs, evolution=u))
            full = obs[0]
            for o in obs[1:]:
                full = np.kron(full, o)
            heisenberg.append(u.conj().T @ full @ u)
            raw += [*obs, u]
        spec = scattering.TemporalCorrelationSpec(system_qubits=n, slots=tuple(slots))
        amps = _haar_vector(dim, rng)
        if mixed:
            p = float(rng.uniform(0.05, 0.5))
            rho = (1 - p) * np.outer(amps, amps.conj()) + p * np.eye(dim) / dim
            rho = (rho + rho.conj().T) / 2
            state = states.QuantumState(qubits=n, rho=rho)
        else:
            rho = np.outer(amps, amps.conj())
            state = states.QuantumState(qubits=n, amplitudes=amps)
        two_time = None
        if n_slots == 2:
            h1, h2 = heisenberg
            two_time = float(0.5 * np.trace(rho @ (h1 @ h2 + h2 @ h1)).real)
        return CorrelatorInput(spec, state, tuple(heisenberg), two_time, _digest(amps, *raw))

    def execute(self, inp: CorrelatorInput, between=None) -> OpResult:
        t0 = time.perf_counter()
        try:
            s = scattering.correlator_scattering(inp.state, inp.spec)
            t1 = time.perf_counter()
            d = scattering.correlator_direct(inp.state, inp.spec)
            t2 = time.perf_counter()
            q = sequential.correlator_sequential(inp.state, inp.heisenberg)
            t3 = time.perf_counter()
        except Exception as exc:
            return OpResult(False, [("failed", 0, t0, time.perf_counter())], repr(exc))
        sections = [("scattering", 1, t0, t1), ("direct", 1, t1, t2), ("sequential", 1, t2, t3)]
        problems = []
        if not abs(s - d) <= ROUTE_ATOL:
            problems.append(f"scattering {s!r} != direct {d!r}")
        if inp.two_time is not None and not abs(q - inp.two_time) <= ROUTE_ATOL:
            problems.append(f"sequential {q!r} != two-time formula {inp.two_time!r}")
        if not all(math.isfinite(x) and abs(x) <= 1 + ROUTE_ATOL for x in (s, d, q)):
            problems.append(f"correlator outside [-1, 1]: {s!r}, {d!r}, {q!r}")
        return OpResult(not problems, sections, "; ".join(problems))


# ----------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundsRound:
    grid: tuple[float, ...]

    def describe(self):
        return self.grid


# The temporal search takes about 20 ms; a round repeats it to time it steadily.
TEMPORAL_REPEATS = 10

# search -> (expected optimum, tolerance); the pentagon entry is the pairwise minimum
_BOUNDS_EXPECTED = {
    "bell": (BELL_OPTIMUM, 1e-5),
    "temporal": (BELL_OPTIMUM, 1e-4),
    "contextual": (CONTEXTUAL_OPTIMUM, 1e-4),
    "pentagon": (-2.0, 1e-6),
}


class Bounds:
    """One round is the four extremum searches at CLI defaults."""

    name = "bounds"
    trace_ops = 1
    warmup_ops = 0

    def blocks(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        fixed = [math.pi, math.acos(-0.75)]
        while True:
            draws = rng.uniform(0.0, 2 * math.pi, size=181 - len(fixed))
            yield [BoundsRound(tuple(sorted(float(t) for t in [*draws, *fixed])))]

    def execute(self, rnd: BoundsRound, between=None) -> OpResult:
        """``between`` is called before each search, outside its timing."""
        sections, results = [], []

        def timed(key, call, repeats=1):
            if between is not None:
                between()
            start = time.perf_counter()
            for _ in range(repeats):
                results.append((key, call()))
            sections.append((key, repeats, start, time.perf_counter()))

        try:
            # positional arguments in the order and with the defaults the CLI uses
            timed("bell", lambda: bounds.tsirelson_search_bell(8, 40, 1e-9))
            timed("temporal", lambda: bounds.temporal_bound_kcbs(8, 1e-9), TEMPORAL_REPEATS)
            timed("contextual", lambda: bounds.contextual_bound_kcbs(200, 8, 1e-9))
            timed("pentagon", lambda: bounds.pentagon_scan(rnd.grid))
        except Exception as exc:
            return OpResult(False, sections, repr(exc))
        problems = []
        for key, result in results:
            value = result.argument["pairwise"]["minimum"] if key == "pentagon" else result.optimum
            target, tol = _BOUNDS_EXPECTED[key]
            if not result.converged:
                problems.append(f"{key} search did not converge")
            if not abs(value - target) <= tol:
                problems.append(f"{key} optimum {value!r} != {target!r}")
        return OpResult(not problems, sections, "; ".join(problems))


WORKLOADS = {w.name: w for w in (Evaluate(), Correlators(), Bounds())}


def route_and_search_figures(results: list[OpResult], duration) -> dict:
    """Correlator values per second on each route, and the median time of one
    call of each search, over the given operations; ``duration(start, end)``
    gives the time a section counts for."""
    items, seconds, per_call = {}, {}, {}
    for r in results:
        for key, n, start, end in r.sections:
            t = duration(start, end)
            items[key] = items.get(key, 0) + n
            seconds[key] = seconds.get(key, 0.0) + t
            if n:
                per_call.setdefault(key, []).append(t / n)
    figures = {f"{route}_terms_per_s": items[route] / seconds[route] for route in ROUTES if route in items}
    for key, metric in (("bell", "bell_search_s"), ("temporal", "temporal_search_s"),
                        ("contextual", "contextual_search_s"), ("pentagon", "pentagon_scan_s")):
        if key in per_call:
            figures[metric] = statistics.median(per_call[key])
    return figures
