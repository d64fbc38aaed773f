import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contextsim
from contextsim import bounds, states
from contextsim.cli import main
from contextsim.inequalities import eval_pm, eval_transformed_bell
from contextsim.report import (
    emit_csv,
    emit_json,
    emit_report,
    parse_report_json,
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
        import dataclasses

        hollow = dataclasses.replace(rep, terms=(), term_predictions=(), term_signs=())
        with pytest.raises(ValueError):
            emit_csv(hollow)


class TestJsonRoundTrip:
    def test_field_for_field(self):
        for rep in (
            eval_pm(basis_state(2, "00"), "scattering"),
            eval_transformed_bell(bell_phi_plus(), "direct"),
        ):
            assert parse_report_json(emit_json(rep)) == rep

    def test_noise_degraded_round_trip(self):
        model = NoiseModel(state_depolarizing_p=0.1, block_visibility_v=0.92)
        ideal = eval_pm(basis_state(2, "00"), "direct")
        noisy = eval_pm(depolarize(basis_state(2, "00"), 0.1), "direct")
        degraded = with_noise(ideal, noisy, model)
        assert parse_report_json(emit_json(degraded)) == degraded
        assert degraded.sum == pytest.approx(6 * 0.92 ** 3, abs=1e-9)
        assert degraded.term_predictions == tuple(v for _, v in ideal.terms)


class TestCommands:
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

    def test_temporal_search_runs_the_given_sweeps(self, capsys):
        # two sweeps are too few to test convergence, hence exit code 3
        assert main(["bounds", "--target", "temporal-kcbs", "--sweeps", "2", "--format", "csv"]) == 3
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[0] == "temporal-kcbs" and row[2:4] == ["False", "2"]

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

    def test_config_keys_are_option_dests(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise_p": 0.0, "visibility": 0.5, "format": "json"}))
        assert main(["--config", str(cfg), "pm"]) == 0
        assert parse_report_json(capsys.readouterr().out).sum < 6.0 - 1e-6


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

    @pytest.mark.parametrize("target", ["bell-kcbs", "temporal-kcbs"])
    def test_resolution_above_cap(self, target, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("built an angle grid")

        monkeypatch.setattr(bounds.np, "meshgrid", refuse)
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
