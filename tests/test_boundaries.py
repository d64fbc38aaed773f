"""Property tests at the boundary where outside text enters: the command
line. Drawn options mix valid values with junk numbers, angles and choices;
a CLI call may only return 0 (success), 2 (invalid configuration) or 3 (no
convergence), or exit through argparse with status 2. No call writes a file:
the CLI runs without ``--output`` and ``--config``."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from contextsim.bounds import TARGETS
from contextsim.cli import main
from contextsim.inequalities import METHODS

angle_texts = st.one_of(
    st.sampled_from(["pi", "-pi", "acos(-0.75)", "acos(2)", "acos(x)", "nan", "inf", "-inf", "1e400", "", "x"]),
    st.floats().map(repr),
)
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
