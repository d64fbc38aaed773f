"""Command-line entry point.

Commands: pm, kcbs, pentagon, bell (inequality evaluations), bounds
(extremum searches), selftest (acceptance checks). Each evaluation builds one
correlation spec per term; ``--method`` picks the route that reads it: the
probe circuit, the trace closed form, or the invasive Lüders chain over the
slots' Heisenberg observables. ``--noise-p`` depolarizes the state for a
second evaluation, whose values ``--visibility`` then rescales; a request with
no depolarization (a visibility-only request) rescales the ideal values and
evaluates once. ``--config`` names a JSON object of settings
for the chosen command; its keys must be option names of that command
(``noise_p`` for ``--noise-p``) and its values strings or numbers. Each setting
is parsed as an ``--option=value`` token placed before the command-line flags,
so it passes the same checks as a flag, and flags still win. Exit codes:
0 success, 1 selftest check failed, 2 invalid configuration, 3 bound search
did not converge, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

from . import bounds as bounds_mod
from .inequalities import (
    METHODS,
    eval_kcbs_temporal,
    eval_pentagon_lg,
    eval_pm,
    eval_transformed_bell,
)
from .linalg import checked_count
from .noise import NoiseModel, depolarize
from .report import FORMATS, emit_bounds, emit_report, with_noise
from .scattering import parse_angle
from .selftest import selftest_text
from .states import state_from_literal

OUTPUT_DIR_ENV = "CONTEXTSIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


# options whose value is a literal or a path, so a JSON number there is a mistake
_TEXT_OPTIONS = ("state", "output")

# Each evaluation command: its help, default --state, whether it takes --theta,
# and its evaluator of (state, options). Evaluators and searches look their
# functions up at call time, so a rebinding of those names reaches them.
_EVALUATIONS = {
    "pm": ("six-context state-independent combination", "00", False,
           lambda st, c: eval_pm(st, c.method)),
    "kcbs": ("five-term cyclic two-time combination", "0", True,
             lambda st, c: eval_kcbs_temporal(st, c.theta, c.method)),
    "pentagon": ("ten-pair two-time combination", "0", True,
                 lambda st, c: eval_pentagon_lg(st, c.theta, c.method)),
    "bell": ("five cross correlators with side conditions", "bell", False,
             lambda st, c: eval_transformed_bell(st, c.method)),
}

# each bound target's search, in bounds.TARGETS order
_SEARCHES = {
    "bell-kcbs": lambda c: bounds_mod.tsirelson_search_bell(c.resolution, c.sweeps, c.tol),
    "temporal-kcbs": lambda c: bounds_mod.temporal_bound_kcbs(c.resolution, c.tol, c.sweeps),
    "contextual-kcbs": lambda c: bounds_mod.contextual_bound_kcbs(c.iterations, c.restarts, c.tol),
    "pentagon-lg": lambda c: bounds_mod.pentagon_scan(),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="contextsim",
        description="Evaluate contextuality and temporal-correlation inequalities "
        "on small qubit registers.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    output_help = "write the report here instead of stdout"

    for command, (help_text, default_state, takes_theta, _) in _EVALUATIONS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--state", default=default_state,
                       help='bitstring, "bell", or a file of "re im" amplitude lines')
        p.add_argument("--method", default="direct", choices=METHODS)
        p.add_argument("--noise-p", type=float, default=None,
                       help="state depolarizing probability")
        p.add_argument("--visibility", type=float, default=None,
                       help="per-block readout visibility")
        p.add_argument("--format", default="table", choices=FORMATS)
        p.add_argument("--output", default=None, help=output_help)
        if takes_theta:
            p.add_argument("--theta", help='angle in radians, required; accepts floats, "pi", "acos(-0.75)"')

    # the searches' own defaults, so each is written once, in its signature
    defaults = {name: arg.default for f in (bounds_mod.tsirelson_search_bell, bounds_mod.contextual_bound_kcbs)
                for name, arg in inspect.signature(f).parameters.items()}
    bounds_p = sub.add_parser("bounds", help="extremum searches for the five-cycle family")
    bounds_p.add_argument("--target", default="all", choices=(*_SEARCHES, "all"))
    bounds_p.add_argument("--resolution", type=int, default=defaults["resolution"],
                          help=f"coarse angle grid points per axis, 1 to {bounds_mod.MAX_RESOLUTION}")
    bounds_p.add_argument("--sweeps", type=int, default=defaults["sweeps"],
                          help="descent sweeps for bell-kcbs and temporal-kcbs")
    bounds_p.add_argument("--restarts", type=int, default=defaults["restarts"],
                          help="upper limit on seeded restarts for contextual-kcbs; the search stops "
                               "at the first converged restart within --tol of 5 - 4*sqrt(5)")
    bounds_p.add_argument("--iterations", type=int, default=defaults["iterations"],
                          help="two-angle sweeps per contextual-kcbs restart")
    bounds_p.add_argument("--tol", type=float, default=defaults["tol"],
                          help="convergence tolerance of the three sweep searches")
    bounds_p.add_argument("--format", default="table", choices=FORMATS)
    bounds_p.add_argument("--output", default=None, help=output_help)

    sub.add_parser("selftest", help="run the acceptance checks")
    return parser


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The settings of the ``--config`` file as ``--option=value`` tokens of
    the chosen command."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad config file {args.config!r}: {exc}") from exc
    if not isinstance(settings, dict):
        raise ValueError(f"config file {args.config!r} must hold a JSON object")
    # besides command and config, args holds the chosen command's option dests
    unknown = sorted(set(settings) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ValueError(f"config file {args.config!r} sets {', '.join(unknown)}, "
                         f"which {args.command!r} has no option for")
    tokens = []
    for dest, value in settings.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (isinstance(value, str) or (number and dest not in _TEXT_OPTIONS)):
            kind = "a string" if dest in _TEXT_OPTIONS else "a string or a number"
            raise ValueError(f"config file {args.config!r} sets {dest} to "
                             f"{json.dumps(value)}, which is not {kind}")
        tokens.append(f"--{dest.replace('_', '-')}={value}")
    return tokens


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed options, with ``theta`` read as an angle and, for the
    evaluation commands, ``noise`` set to one ``NoiseModel`` built from
    ``noise_p`` and ``visibility`` (None when neither is given)."""
    if "theta" in args:
        if args.theta is None:
            raise ValueError("the following arguments are required: --theta")
        args.theta = parse_angle(args.theta)
    if "noise_p" in args:
        args.noise = None
        if args.noise_p is not None or args.visibility is not None:
            args.noise = NoiseModel(
                state_depolarizing_p=args.noise_p if args.noise_p is not None else 0.0,
                block_visibility_v=args.visibility if args.visibility is not None else 1.0,
            )
    return args


def _evaluate(config: argparse.Namespace):
    if config.command not in _EVALUATIONS:
        raise ValueError(f"unknown command {config.command!r}")
    evaluate = _EVALUATIONS[config.command][-1]
    state = state_from_literal(config.state)
    ideal = evaluate(state, config)
    if config.noise is None:
        return ideal
    p = config.noise.state_depolarizing_p
    noisy = ideal if p == 0 else evaluate(depolarize(state, p), config)
    return with_noise(ideal, noisy, config.noise)


def _run_bounds(config: argparse.Namespace):
    # every search option is checked before any search runs, read or not
    bounds_mod._checked_resolution(config.resolution)
    for option in ("sweeps", "restarts", "iterations"):
        checked_count(getattr(config, option), option, 1)
    bounds_mod._positive_tol(config.tol)
    targets = _SEARCHES if config.target == "all" else (config.target,)
    return [_SEARCHES[target](config) for target in targets]


def _write(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    if not os.path.isabs(path) and os.environ.get(OUTPUT_DIR_ENV):
        path = os.path.join(os.environ[OUTPUT_DIR_ENV], path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path!r}: {exc}\n")
        return EXIT_IO
    return EXIT_OK


def run(config: argparse.Namespace) -> int:
    if config.command == "selftest":
        text, ok = selftest_text()
        sys.stdout.write(text)
        return EXIT_OK if ok else 1
    if config.command == "bounds":
        results = _run_bounds(config)
        status = _write(emit_bounds(results, config.format), config.output)
        if status != EXIT_OK:
            return status
        unconverged = [r for r in results if not r.converged]
        for r in unconverged:
            sys.stderr.write(f"{r.target}: no convergence in {r.iterations} iterations at tol {r.tolerance}\n")
        return EXIT_NO_CONVERGENCE if unconverged else EXIT_OK
    report = _evaluate(config)
    return _write(emit_report(report, config.format), config.output)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            tokens = _config_tokens(args)
            # only --config options precede the command name; the config's
            # tokens go right after it, so the command-line flags win
            at = 0
            while argv[at].startswith("-"):
                at += 1 if "=" in argv[at] else 2
            args = parser.parse_args(argv[:at + 1] + tokens + argv[at + 1:])
        config = _config_from_args(args)
        return run(config)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
