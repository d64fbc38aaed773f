import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contextsim
from contextsim import bounds, cli, inequalities, states
from contextsim.cli import main
from contextsim.inequalities import (
    eval_kcbs_temporal,
    eval_pentagon_lg,
    eval_pm,
    eval_transformed_bell,
)
from contextsim.report import (
    FORMATS,
    emit_bound_json,
    emit_bounds,
    emit_csv,
    emit_json,
    emit_report,
    with_noise,
)
from contextsim.noise import NoiseModel, depolarize
from contextsim.states import basis_state, bell_phi_plus


class TestCsvContract:
    def test_pm_row_census(self, capsys):
        assert main(["pm", "--state", "00", "--method", "direct", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "inequality,term,theory,value,method"
        assert len(lines) == 8  # header + 6 terms + SUM
        assert lines[1] == "pm,A.B.C,1.000000,1.000000,direct"
        assert lines[-1] == "pm,SUM,4.000000,6.000000,direct"

    def test_bell_sum_row(self, capsys):
        assert main(["bell", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == "bell,SUM,-3.000000,-4.045085,direct"
        assert len(lines) == 7

    def test_empty_report_refused(self):
        rep = eval_pm(basis_state(2, "00"), "direct")
        hollow = dataclasses.replace(rep, terms=(), term_predictions=(), term_signs=())
        assert hollow.sum == 0.0  # derived from the (empty) terms
        with pytest.raises(ValueError):
            emit_csv(hollow)


class TestJsonRoundTrip:
    @staticmethod
    def assert_every_field_written(rep):
        assert json.loads(emit_json(rep)) == json.loads(json.dumps(dataclasses.asdict(rep)))

    def test_field_for_field(self):
        for method in ("scattering", "direct", "sequential"):
            for rep in (
                eval_pm(basis_state(2, "00"), method),
                eval_kcbs_temporal(basis_state(1, "1"), 4 * np.pi / 5, method),
                eval_pentagon_lg(basis_state(1, "0"), float(np.arccos(-0.75)), method),
                eval_transformed_bell(bell_phi_plus(), method),
            ):
                self.assert_every_field_written(rep)

    def test_noise_degraded_round_trip(self):
        model = NoiseModel(state_depolarizing_p=0.1, block_visibility_v=0.92)
        ideal = eval_pm(basis_state(2, "00"), "direct")
        noisy = eval_pm(depolarize(basis_state(2, "00"), 0.1), "direct")
        degraded = with_noise(ideal, noisy, model)
        self.assert_every_field_written(degraded)
        assert degraded.sum == pytest.approx(6 * 0.92 ** 3, abs=1e-9)
        assert degraded.term_predictions == tuple(v for _, v in ideal.terms)

    def test_shallow_payload_renders_as_the_deep_copy(self):
        # the JSON emitters read each field without copying it; the text must
        # equal the dataclasses.asdict rendering byte for byte
        def render(payload):
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"

        model = NoiseModel(state_depolarizing_p=0.1, block_visibility_v=0.92)
        reports = []
        for method in ("scattering", "direct", "sequential"):
            for evaluate, state in (
                (eval_pm, basis_state(2, "01")),
                (lambda s, m: eval_kcbs_temporal(s, 2.5, m), basis_state(1, "1")),
                (lambda s, m: eval_pentagon_lg(s, 2.5, m), basis_state(1, "0")),
                (eval_transformed_bell, bell_phi_plus()),
            ):
                ideal = evaluate(state, method)
                reports += [ideal, with_noise(ideal, evaluate(depolarize(state, 0.1), method), model)]
        for rep in reports:
            assert emit_json(rep) == render(dataclasses.asdict(rep))
        results = [bounds.tsirelson_search_bell(), bounds.temporal_bound_kcbs(),
                   bounds.contextual_bound_kcbs(), bounds.pentagon_scan()]
        assert emit_bound_json(results) == render([dataclasses.asdict(r) for r in results])


class TestCommands:
    @pytest.mark.parametrize("search", [bounds.tsirelson_search_bell, bounds.temporal_bound_kcbs,
                                        bounds.contextual_bound_kcbs])
    def test_bounds_defaults_are_the_search_defaults(self, search):
        args = cli._build_parser().parse_args(["bounds"])
        for name, param in inspect.signature(search).parameters.items():
            assert type(getattr(args, name)) is type(param.default) and getattr(args, name) == param.default

    def test_bad_state_literal(self, capsys):
        assert main(["pm", "--state", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_wrong_register_size(self, capsys):
        assert main(["pm", "--state", "0"]) == 2

    def test_kcbs_with_acos_token(self, capsys):
        assert main(
            ["kcbs", "--state", "0", "--theta", "acos(-0.75)", "--method", "sequential",
             "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == "kcbs,SUM,-3.000000,-2.000000,sequential"

    def test_pentagon_theta_pi(self, capsys):
        assert main(["pentagon", "--theta", "pi", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == "pentagon,SUM,-2.000000,-2.000000,direct"
        assert len(lines) == 12  # header + 10 pairs + SUM

    def test_bell_table_shows_verdict(self, capsys):
        assert main(["bell"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "side conditions satisfied: True" in out

    def test_noise_flags(self, capsys):
        assert main(["pm", "--noise-p", "0.2", "--visibility", "0.92", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum"] == pytest.approx(6 * 0.92 ** 3, abs=1e-9)
        assert payload["term_predictions"][0] == pytest.approx(1.0, abs=1e-12)

    def test_visibility_only_request_evaluates_once(self, capsys, monkeypatch):
        calls = {"eval_pm": 0, "depolarize": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        assert main(["pm", "--visibility", "0.9", "--format", "json"]) == 0
        assert calls == {"eval_pm": 1, "depolarize": 0}
        assert json.loads(capsys.readouterr().out)["sum"] == pytest.approx(6 * 0.9 ** 3, abs=1e-12)

    def test_zero_visibility_prints_unsigned_zeros(self, capsys):
        # gamma.c.C reads -1, and -1.0 * 0.0 is -0.0; JSON keeps the sign
        assert main(["pm", "--visibility", "0", "--format", "csv"]) == 0
        csv = capsys.readouterr().out
        assert "pm,gamma.c.C,-1.000000,0.000000,direct" in csv.splitlines()
        assert main(["pm", "--visibility", "0"]) == 0
        table = capsys.readouterr().out
        assert ["gamma.c.C", "-1.000000", "0.000000"] in [row.split() for row in table.splitlines()]
        assert "-0.000000" not in csv + table
        assert main(["pm", "--visibility", "0", "--format", "json"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert terms[-1] == ["gamma.c.C", 0.0] and np.signbit(terms[-1][1])

    def test_bounds_single_target_csv(self, capsys):
        assert main(["bounds", "--target", "temporal-kcbs", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "target,optimum,converged,iterations,tolerance"
        assert lines[1].startswith("temporal-kcbs,-4.045085,True")

    def test_contextual_report_pinned(self, capsys):
        # the contextual target has no entry in the benchmark's golden reports
        assert main(["bounds", "--target", "contextual-kcbs", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "target,optimum,converged,iterations,tolerance\n"
            "contextual-kcbs,-3.944272,True,7,1e-09\n"
        )
        assert main(["bounds", "--target", "contextual-kcbs"]) == 0
        assert capsys.readouterr().out == (
            "target                 optimum  converged  iterations\n"
            "contextual-kcbs      -3.944272       True           7\n"
        )

    def test_contextual_json_says_why_the_search_stopped(self, capsys):
        # the defaults stop at the certificate after one restart; two sweeps
        # are too few to converge, so all eight restarts run (exit code 3)
        assert main(["bounds", "--target", "contextual-kcbs", "--format", "json"]) == 0
        (default,) = json.loads(capsys.readouterr().out)
        assert main(["bounds", "--target", "contextual-kcbs", "--iterations", "2", "--format", "json"]) == 3
        (limited,) = json.loads(capsys.readouterr().out)
        assert [(r["argument"]["restarts_run"], r["argument"]["stopped_at_certificate"])
                for r in (default, limited)] == [(1, True), (8, False)]

    def test_temporal_search_runs_the_given_sweeps(self, capsys):
        # two sweeps are too few to test convergence, hence exit code 3
        assert main(["bounds", "--target", "temporal-kcbs", "--sweeps", "2", "--format", "csv"]) == 3
        captured = capsys.readouterr()
        row = captured.out.strip().split("\n")[1].split(",")
        assert row[0] == "temporal-kcbs" and row[2:4] == ["False", "2"]
        # exit code 3 says which target did not converge, and how far it got
        (line,) = captured.err.splitlines()
        assert "temporal-kcbs" in line and " 2 " in line and "1e-09" in line
        assert main(["bounds", "--target", "temporal-kcbs", "--format", "csv"]) == 0
        assert capsys.readouterr().err == ""

    def test_output_file_and_determinism(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["bell", "--format", "json", "--output", str(first)]) == 0
        assert main(["bell", "--format", "json", "--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONTEXTSIM_OUTPUT_DIR", str(tmp_path))
        assert main(["pm", "--format", "csv", "--output", "report.csv"]) == 0
        capsys.readouterr()
        assert (tmp_path / "report.csv").exists()

    def test_unwritable_output(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["pm", "--format", "csv", "--output", str(missing)]) == 4

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "sequential", "format": "csv"}))
        assert main(["--config", str(cfg), "pm"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1].endswith(",sequential")

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "sequential"}))
        assert main(["--config", str(cfg), "pm", "--method", "direct", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1].endswith(",direct")

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg), "pm"]) == 2

    def test_deeply_nested_config_file(self, tmp_path, capsys):
        # the JSON decoder raises RecursionError past the interpreter's depth
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        assert main(["--config", str(cfg), "pm"]) == 2
        assert capsys.readouterr().err.startswith("error: bad config file")

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["method", "sequential"]))
        assert main(["--config", str(cfg), "pm"]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, settings, offending",
        [(["bounds"], {"sweps": 0}, "sweps"),
         (["bounds", "--target", "temporal-kcbs"], {"visibility": 0.5}, "visibility"),
         (["pm"], {"command": "selftest"}, "command"),
         (["pm"], {"method": "direct", "config": "other.json"}, "config")],
    )
    def test_config_key_without_option_rejected(self, argv, settings, offending, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        assert main(["--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert offending in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, settings",
        [(["bounds"], {"target": "bogus"}),
         (["pm"], {"state": 5}),
         (["pm"], {"noise_p": [1]}),
         (["pm"], {"output": 3}),
         (["bounds", "--target", "temporal-kcbs"], {"resolution": 2.5}),
         (["bounds", "--target", "temporal-kcbs"], {"sweeps": True})],
    )
    def test_config_value_checked_like_a_flag(self, argv, settings, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        try:
            code = main(["--config", str(cfg), *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert next(iter(settings)) in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_theta_satisfies_the_option(self, tmp_path, capsys):
        assert main(["kcbs", "--theta", "1.0", "--format", "csv"]) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "1.0", "format": "csv"}))
        assert main(["--config", str(cfg), "kcbs"]) == 0
        assert capsys.readouterr().out == expected
        cfg.write_text(json.dumps({"theta": 2.0, "format": "csv"}))
        assert main(["--config=" + str(cfg), "kcbs", "--theta", "1.0"]) == 0
        assert capsys.readouterr().out == expected

    def test_missing_theta(self, capsys):
        assert main(["pentagon"]) == 2
        captured = capsys.readouterr()
        assert "--theta" in captured.err and captured.out == ""

    @pytest.mark.parametrize("first", ["rejected", "config"])
    def test_earlier_call_leaves_the_shared_parser_unchanged(self, first, tmp_path, capsys):
        # the parser is built once per process; what one call parsed must not
        # reach the next
        second = ["kcbs", "--theta", "1.0", "--format", "csv"]
        cli._build_parser.cache_clear()
        assert main(second) == 0
        alone = capsys.readouterr()
        if first == "rejected":
            with pytest.raises(SystemExit):
                main(["kcbs", "--method", "bogus", "--theta", "2.0"])
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"method": "sequential", "format": "json", "state": "1"}))
            assert main(["--config", str(cfg), "kcbs", "--theta", "2.0"]) == 0
        capsys.readouterr()
        assert main(second) == 0
        assert capsys.readouterr() == alone

    def test_config_keys_are_option_dests(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise_p": 0.0, "visibility": 0.5, "format": "json"}))
        assert main(["--config", str(cfg), "pm"]) == 0
        assert json.loads(capsys.readouterr().out)["sum"] < 6.0 - 1e-6


class TestRejectedValues:
    @pytest.mark.parametrize(
        "target, flag",
        [("bell-kcbs", "--resolution"), ("contextual-kcbs", "--restarts"),
         ("contextual-kcbs", "--iterations")],
    )
    def test_search_size_below_one(self, target, flag, capsys):
        assert main(["bounds", "--target", target, flag, "0"]) == 2
        captured = capsys.readouterr()
        assert flag[2:] in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "target, flag, value",
        [("bell-kcbs", "--sweeps", "0"), ("bell-kcbs", "--sweeps", "-3"),
         ("temporal-kcbs", "--sweeps", "0"),
         ("bell-kcbs", "--tol", "inf"), ("temporal-kcbs", "--tol", "nan"),
         ("contextual-kcbs", "--tol", "-1"), ("temporal-kcbs", "--tol", "0")],
    )
    def test_bad_sweeps_or_tol(self, target, flag, value, capsys):
        assert main(["bounds", "--target", target, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert flag[2:] in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "target, flag, value",
        [("pentagon-lg", "--tol", "-1"), ("pentagon-lg", "--resolution", "99"),
         ("pentagon-lg", "--sweeps", "0"), ("temporal-kcbs", "--restarts", "0"),
         ("contextual-kcbs", "--resolution", "99"), ("bell-kcbs", "--iterations", "0"),
         ("contextual-kcbs", "--sweeps", "-2"), ("pentagon-lg", "--tol", "nan"),
         ("all", "--restarts", "0")],
    )
    def test_option_the_target_does_not_read(self, target, flag, value, monkeypatch, capsys):
        # every search option is checked before any search runs
        for search in ("tsirelson_search_bell", "temporal_bound_kcbs", "contextual_bound_kcbs",
                       "pentagon_scan"):
            monkeypatch.setattr(bounds, search, lambda *args, search=search: pytest.fail(search))
        assert main(["bounds", "--target", target, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert flag[2:] in captured.err and captured.out == ""

    @pytest.mark.parametrize("target", ["bell-kcbs", "temporal-kcbs"])
    def test_resolution_above_cap(self, target, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("built an angle grid")

        monkeypatch.setattr(bounds.np, "linspace", refuse)
        assert main(["bounds", "--target", target, "--resolution", "100"]) == 2
        captured = capsys.readouterr()
        assert f"at most {bounds.MAX_RESOLUTION}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta(self, theta, capsys):
        assert main(["kcbs", f"--theta={theta}"]) == 2
        assert "angle" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", [4, 64])
    def test_oversized_bitstring_state(self, bits, monkeypatch, capsys):
        def refuse(n, label):
            raise AssertionError(f"allocated a {n}-qubit basis state")

        monkeypatch.setattr(states, "basis_state", refuse)
        assert main(["pm", "--state", "1" * bits]) == 2
        captured = capsys.readouterr()
        assert "more than 3" in captured.err and captured.out == ""

    @pytest.mark.parametrize("text", ["", "# no amplitudes\n\n"])
    def test_state_file_without_amplitudes(self, text, tmp_path, capsys):
        path = tmp_path / "state.txt"
        path.write_text(text)
        assert main(["kcbs", "--theta", "1", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert "power of two" in captured.err and captured.out == ""

    def test_directory_as_state(self, tmp_path, capsys):
        # opening a directory raises IsADirectoryError, an OSError
        assert main(["pm", "--state", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert repr(str(tmp_path)) in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [(["kcbs", "--theta", "pi/2"], """error: angle 'pi/2' is not a float, "pi", "-pi" or "acos(x)"\n"""),
         (["kcbs", "--theta", "acos(half)"],
          """error: angle 'acos(half)' is not a float, "pi", "-pi" or "acos(x)"\n"""),
         (["pm", "--noise-p", "2"], "error: depolarizing probability 2.0 out of [0, 1]\n"),
         (["pm", "--visibility", "-0.5"], "error: visibility -0.5 out of [0, 1]\n")],
    )
    def test_message_names_the_value(self, argv, message, capsys):
        # the angle used to read "could not convert string to float: 'pi/2'"
        # and the noise values "depolarizing probability out of [0, 1]"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)

    def test_state_file_that_is_not_utf8(self, tmp_path, capsys):
        # the decoding error used to be printed without the path
        path = tmp_path / "state.txt"
        path.write_bytes(b"\xff\xfe1 0\n")
        assert main(["pm", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: bad state file {str(path)!r}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "text, message",
        [("1 0\nabc 0\n", "line 2 'abc 0': could not convert string to float: 'abc'"),
         ("# amplitudes\n1 0\n\n0 0 0\n", "line 4 '0 0 0': expected 're im'")],
        ids=["number", "field-count"],
    )
    def test_state_file_line_that_does_not_parse(self, tmp_path, capsys, text, message):
        # a bad number used to be printed with no path or line
        path = tmp_path / "state.txt"
        path.write_text(text)
        assert main(["pm", "--state", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: bad state file {str(path)!r}: {message}\n")

    def test_seed_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pm", "--seed", "1"])
        assert exc.value.code == 2


class TestConsoleScript:
    def test_pm_via_interpreter(self):
        # the child imports the same sources as this process, installed or not
        src = str(Path(contextsim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "contextsim.cli", "pm", "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().split("\n")[-1] == "pm,SUM,4.000000,6.000000,direct"


class TestTableFormat:
    def test_table_contains_bound_and_prediction(self):
        text = emit_report(eval_pm(basis_state(2, "00"), "direct"), "table")
        assert "classical bound: <= 4.000000" in text
        assert "quantum prediction: 6.000000" in text
        assert "VIOLATED" in text


class TestAxisTables:
    """Each CLI axis (commands, bound targets, formats, routes) is listed in
    one table, which the parser, the dispatch and the errors all read."""

    def test_tables_list_the_documented_values_in_order(self):
        assert tuple(cli._EVALUATIONS) == ("pm", "kcbs", "pentagon", "bell")
        assert tuple(cli._SEARCHES) == bounds.TARGETS
        assert FORMATS == ("table", "json", "csv")
        assert inequalities.METHODS == tuple(inequalities._ROUTES) == ("scattering", "direct", "sequential")

    @pytest.mark.parametrize("command", ["pm", "kcbs", "pentagon", "bell", "bounds"])
    def test_parser_choices_come_from_the_tables(self, command):
        sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
        choices = {a.dest: a.choices for a in sub._actions if a.choices is not None}
        assert choices["format"] == FORMATS
        if command == "bounds":
            assert choices["target"] == (*bounds.TARGETS, "all")
        else:
            assert choices["method"] == inequalities.METHODS
            assert any(a.dest == "theta" for a in sub._actions) == cli._EVALUATIONS[command][2]

    @pytest.mark.parametrize("fmt", ["xml", None, ["csv"]])
    def test_unknown_format_refused(self, fmt):
        report = eval_pm(basis_state(2, "00"), "direct")
        for emit, payload in ((emit_report, report), (emit_bounds, [])):
            with pytest.raises(ValueError, match=rf"^unknown format {re.escape(repr(fmt))}$"):
                emit(payload, fmt)

    @pytest.mark.parametrize("method", ["teleport", None, ["direct"]])
    def test_unknown_method_refused(self, method):
        with pytest.raises(ValueError, match=rf"^unknown method {re.escape(repr(method))}; expected one of"):
            eval_pm(basis_state(2, "00"), method)

    def test_unknown_command_refused(self):
        config = cli._build_parser().parse_args(["pm"])
        config.command = "spam"
        with pytest.raises(ValueError, match="^unknown command 'spam'$"):
            cli._evaluate(config)

    @pytest.mark.parametrize("target", [*bounds.TARGETS, "all"])
    def test_each_target_runs_its_search_with_its_options(self, target, monkeypatch):
        calls = []
        for search in ("tsirelson_search_bell", "temporal_bound_kcbs", "contextual_bound_kcbs",
                       "pentagon_scan"):
            monkeypatch.setattr(bounds, search, lambda *args, search=search: calls.append((search, args)))
        config = cli._build_parser().parse_args(
            ["bounds", "--target", target, "--resolution", "3", "--sweeps", "5", "--restarts", "2",
             "--iterations", "7", "--tol", "1e-4"])
        cli._run_bounds(config)
        expected = {"bell-kcbs": ("tsirelson_search_bell", (3, 5, 1e-4)),
                    "temporal-kcbs": ("temporal_bound_kcbs", (3, 1e-4, 5)),
                    "contextual-kcbs": ("contextual_bound_kcbs", (7, 2, 1e-4)),
                    "pentagon-lg": ("pentagon_scan", ())}
        assert calls == [expected[t] for t in (bounds.TARGETS if target == "all" else (target,))]
