"""Golden-report check: re-emit the CLI reports for a fixed set of commands
and compare them with the copies stored in ``golden.json``.

Table and CSV reports must match byte for byte. In JSON reports every number
must match to 1e-12 and everything else byte for byte, so that a change in the
last bit of a float does not count as a different report.

Regenerate the stored reports from the current checkout with
``python3 perfbench/golden.py --write``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import bootstrap

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
NUMBER_ATOL = 1e-12

_STATES = {"pm": "01", "kcbs": "1", "pentagon": "0", "bell": "bell"}
_THETA = {"kcbs": ["--theta", "2.5132741228718345"], "pentagon": ["--theta", "acos(-0.75)"]}
_NOISE = ["--noise-p", "0.1", "--visibility", "0.9"]


def commands() -> list[list[str]]:
    """Each evaluator on each route in each format, each evaluator once more
    under one noise model, and two bound targets."""
    out = []
    for command, state in _STATES.items():
        base = [command, "--state", state, *_THETA.get(command, [])]
        for method in ("scattering", "direct", "sequential"):
            for fmt in ("table", "json", "csv"):
                out.append([*base, "--method", method, "--format", fmt])
        out.append([*base, "--method", "direct", "--format", "json", *_NOISE])
    for fmt in ("table", "json", "csv"):
        out.append(["bounds", "--target", "temporal-kcbs", "--format", fmt])
    for fmt in ("table", "json"):
        out.append(["bounds", "--target", "pentagon-lg", "--format", fmt])
    return out


def render(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


# a JSON string literal, or a JSON number
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


def _split_numbers(text: str) -> tuple[str, list[float]]:
    numbers = []

    def mask(match):
        token = match.group(0)
        if token.startswith('"'):
            return token
        numbers.append(float(token))
        return "#"

    return _TOKEN.sub(mask, text), numbers


def same_report(expected: str, actual: str, argv: list[str]) -> bool:
    if "json" not in argv:
        return expected == actual
    skeleton_e, numbers_e = _split_numbers(expected)
    skeleton_a, numbers_a = _split_numbers(actual)
    return (
        skeleton_e == skeleton_a
        and len(numbers_e) == len(numbers_a)
        and all(abs(e - a) <= NUMBER_ATOL for e, a in zip(numbers_e, numbers_a))
    )


def check(cli) -> list[str]:
    """The commands whose report differs from the stored one."""
    stored = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    failures = []
    for entry in stored:
        try:
            actual = render(cli, entry["argv"])
        except (Exception, SystemExit) as exc:
            failures.append(f"{' '.join(entry['argv'])}: {exc!r}")
            continue
        if not same_report(entry["output"], actual, entry["argv"]):
            failures.append(" ".join(entry["argv"]))
    return failures


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        sys.stderr.write("usage: python3 perfbench/golden.py --write\n")
        return 2
    bootstrap.load_contextsim()
    from contextsim import cli

    entries = [{"argv": a, "output": render(cli, a)} for a in commands()]
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} reports to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
