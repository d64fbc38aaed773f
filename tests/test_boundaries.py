"""Property tests at the two boundaries where outside text enters: a spec
document and the command line. Drawn input mixes valid tokens with junk
types, angles and nesting; a spec document may only parse or raise
ValueError, and a CLI call may only return 0 (success), 2 (invalid
configuration) or 3 (no convergence), or exit through argparse with status 2.
No call writes a file: the CLI runs without ``--output`` and ``--config``."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from contextsim.bounds import TARGETS
from contextsim.cli import main
from contextsim.inequalities import METHODS
from contextsim.scattering import TemporalCorrelationSpec, parse_spec_document

junk = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400), st.floats(),
    st.text(max_size=6), st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
angle_texts = st.one_of(
    st.sampled_from(["pi", "-pi", "acos(-0.75)", "acos(2)", "acos(x)", "nan", "inf", "-inf", "1e400", "", "x"]),
    st.floats().map(repr),
)


def mostly(valid):
    """``valid`` three draws in four, junk otherwise."""
    return st.sampled_from((valid, valid, valid, junk)).flatmap(lambda drawn: drawn)


angles = mostly(st.one_of(angle_texts, st.floats()))
tokens = mostly(st.one_of(
    st.sampled_from(["I", "X", "Y", "Z", "pm:A", "pm:gamma", "pm:D", "pentagram:0", "pentagram:4",
                     "pentagram:5", "pentagram:x", "sigma_theta()", "W"]),
    angles.map(lambda a: f"sigma_theta({a})"),
))
rotations = mostly(st.fixed_dictionaries({
    "axis": mostly(st.sampled_from(["x", "y", "z", "Y", "w"])),
    "qubit": mostly(st.integers(-1, 3)),
    "angle": angles,
}))
slots = mostly(st.fixed_dictionaries(
    {"observables": mostly(st.lists(tokens, max_size=3))},
    optional={"evolution": mostly(st.lists(rotations, max_size=3))},
))
documents = mostly(st.fixed_dictionaries(
    {"system_qubits": mostly(st.integers(1, 3))},
    optional={"slots": mostly(st.lists(slots, max_size=4))},
))


@given(doc=documents, depth=st.sampled_from([0, 1, 100_000]), cut=st.booleans())
def test_spec_document_parses_or_raises_value_error(doc, depth, cut):
    # the drawn tree, optionally wrapped in deep list nesting and optionally
    # cut short, so the JSON layer sees malformed text as well
    text = "[" * depth + json.dumps(doc) + "]" * depth
    if cut:
        text = text[:len(text) // 2]
    try:
        spec = parse_spec_document(text)
    except ValueError:
        return
    assert isinstance(spec, TemporalCorrelationSpec)


numbers = st.one_of(st.floats().map(repr), st.sampled_from(["0", "0.5", "1", "-1", "2", "x", ""]))
counts = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["1.5", "x", ""]))
EVALUATION_OPTIONS = {
    "--state": st.one_of(st.text(alphabet="01", max_size=4), st.just("bell")),
    "--method": st.one_of(st.sampled_from(METHODS), st.just("probe")),
    "--noise-p": numbers,
    "--visibility": numbers,
    "--format": st.sampled_from(["table", "json", "csv", "xml"]),
}
THETA_OPTIONS = {**EVALUATION_OPTIONS, "--theta": angle_texts}
BOUNDS_OPTIONS = {
    "--target": st.sampled_from(TARGETS + ("all", "none")),
    "--resolution": st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["2.0", "x"])),
    "--sweeps": counts,
    "--restarts": counts,
    "--iterations": counts,
    "--tol": st.one_of(st.sampled_from(["1e-9", "1e-3", "0", "-1e-9", "nan", "inf", "x"])),
    "--format": st.sampled_from(["table", "json", "csv"]),
}
COMMANDS = {"pm": EVALUATION_OPTIONS, "kcbs": THETA_OPTIONS, "pentagon": THETA_OPTIONS,
            "bell": EVALUATION_OPTIONS, "bounds": BOUNDS_OPTIONS}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
        value = draw(options[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@given(argv=argvs())
def test_cli_returns_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
            assert code == 2 and "usage:" in err.getvalue()
    assert code in (0, 2, 3)
    if code == 2 and "usage:" not in err.getvalue():
        assert err.getvalue().startswith("error: ")
