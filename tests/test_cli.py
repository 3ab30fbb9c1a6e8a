"""Tests for the command-line front end: dispatch, formats, exit codes."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from pstlab.cli import _build_parser, _run_command, main
from pstlab.errors import ToleranceError
from pstlab.experiments import Table1Config
from pstlab.liouville import matrix_from_json
from pstlab.pst_core import calibrate_tau, pst_channel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--bogus")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "table1" in out


class TestTable1Command:
    def test_default_json(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        payload = json.loads(out)
        assert payload["pst"]["ZX"] == pytest.approx(1.0207, abs=1e-3)
        assert payload["no_pst"]["YY"] == pytest.approx(0.6, abs=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "word,no_pst,pst"

    def test_flag_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--error", "XX=0.0", "--error", "YY=0.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pst"]["ZX"] == pytest.approx(1.0, abs=1e-9)

    def test_bad_error_flag(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--error", "XX:0.2")
        assert code == 1
        assert "LABEL=AMPLITUDE" in err

    def test_output_file_and_channel_dump(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        channel_path = tmp_path / "channel.json"
        code, out, _ = run_cli(
            capsys,
            "table1",
            "--output", str(report_path),
            "--dump-channel", str(channel_path),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(report_path.read_text())
        assert payload["pst"]["ZX"] == pytest.approx(1.0207, abs=1e-3)
        channel = json.loads(channel_path.read_text())["channel"]
        assert len(channel) == 16 and len(channel[0]) == 16
        assert len(channel[0][0]) == 2

    def test_dumped_channel_is_the_ensemble_channel(self, tmp_path, capsys):
        channel_path = tmp_path / "channel.json"
        code, _, _ = run_cli(
            capsys, "table1", "--drive", "XZ", "--error", "YY=0.3", "--error", "ZI=0.2",
            "--dump-channel", str(channel_path),
        )
        assert code == 0
        config = Table1Config(drive="XZ", errors=(("YY", 0.3), ("ZI", 0.2)))
        dumped = matrix_from_json(json.loads(channel_path.read_text())["channel"])
        np.testing.assert_array_equal(
            dumped, pst_channel(config.drive_spec(), config.error_spec())
        )

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "table1")
        _, second, _ = run_cli(capsys, "table1")
        assert first == second


class TestScalarCommands:
    def test_overrotation_prints_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "overrotation", "--tau", "0.5", "--sum-h2", "0.24")
        assert code == 0
        assert out.strip() == "1.019023"

    def test_overrotation_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "overrotation", "--tau", "0.5", "--sum-h2", "0.24",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["factor"] == pytest.approx(1.0190234818230525)

    def test_overrotation_missing_flag(self, capsys):
        code, _, err = run_cli(capsys, "overrotation", "--tau", "0.5")
        assert code == 1
        assert "sum-h2" in err

    def test_calibrate_trivial_half_angle(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--theta", "1.0", "--sum-h2", "0")
        assert code == 0
        assert out.strip() == "0.5"

    def test_calibrate_with_errors(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--theta", "1.0", "--sum-h2", "0.24")
        assert code == 0
        assert float(out) == pytest.approx(calibrate_tau(1.0, 0.24), abs=1e-6)

    def test_calibrate_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--theta", "7.0", "--sum-h2", "0")
        assert code == 1
        assert "config error" in err


class TestSignTableCommand:
    def test_default_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "sign-table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("label,II,IX,IY,IZ,XI")
        assert len(lines) == 17

    def test_single_qubit_json(self, capsys):
        code, out, _ = run_cli(capsys, "sign-table", "--qubits", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == ["I", "X", "Y", "Z"]
        assert payload["table"][1] == [1, 1, -1, -1]

    def test_resource_bound_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sign-table", "--qubits", "9")
        assert code == 1
        assert "resource bound" in err

    def test_env_var_overrides_resource_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("PSTLAB_MAX_QUBITS", "1")
        code, _, err = run_cli(capsys, "sign-table", "--qubits", "2")
        assert code == 1
        assert "PSTLAB_MAX_QUBITS" in err
        monkeypatch.setenv("PSTLAB_MAX_QUBITS", "5")
        code, out, _ = run_cli(capsys, "sign-table", "--qubits", "2")
        assert code == 0


class TestParitySweepCommand:
    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "parity-sweep",
            "--deltas=-0.5,0,0.5",
            "--noise-kinds", "pauli_z",
            "--output", str(out_path),
        )
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "delta,error,symmetrized,noise_kind"
        assert len(lines) == 4
        assert lines[1].endswith("pauli_z")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "parity-sweep", "--deltas=-1,0,1", "--noise-kinds", "none",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["tau"] == 2.5
        assert len(payload["rows"]) == 3

    def test_unpaired_grid_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "parity-sweep", "--deltas", "0.5,1.0")
        assert code == 1
        assert "mirror" in err


class TestMagnusCheckCommand:
    def test_quick_json_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "magnus-check",
            "--taus", "0.5",
            "--error-set", "XX=0.2;YY=0.6",
            "--quad-tolerance", "1e-8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_within_tolerance"] is True
        assert payload["rows"][0]["discrepancy"] <= 1e-6

    def test_budget_exhaustion_is_numerical_failure(self, capsys):
        code, out, err = run_cli(
            capsys,
            "magnus-check",
            "--taus", "0.5",
            "--error-set", "XX=0.2",
            "--max-evaluations", "50",
        )
        assert code == 2
        assert "numerical failure" in err
        payload = json.loads(out)  # report still emitted for triage
        assert payload["rows"][0]["note"] != ""

    def test_tolerance_failure_is_typed(self, capsys):
        argv = ["magnus-check", "--taus", "0.5", "--error-set", "XX=0.2",
                "--tolerance", "1e-30"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "exceeded tolerance" in err
        assert json.loads(out)["all_within_tolerance"] is False
        with pytest.raises(ToleranceError, match="1 crosscheck row"):
            _run_command(_build_parser().parse_args(argv))

    @pytest.mark.parametrize("flag, value, name", [
        ("--quad-tolerance", "nan", "quadrature_tol"),
        ("--tolerance", "nan", "tolerance"),
        ("--omega1-tolerance", "0", "omega1_tolerance"),
        ("--max-amplitude", "0.01", "max_amplitude"),
        ("--max-amplitude", "inf", "max_amplitude"),
    ])
    def test_bad_tolerance_or_amplitude_is_config_error(self, flag, value, name, capsys):
        code, out, err = run_cli(capsys, "magnus-check", "--taus", "0.5",
                                 "--error-set", "XX=0.2", flag, value)
        assert code == 1
        assert out == ""
        assert f"config error: {name} must be finite" in err


class TestConfigFiles:
    def test_dump_config_round_trip(self, tmp_path, capsys):
        code, dumped, _ = run_cli(
            capsys, "table1", "--tau", "0.4", "--error", "XX=0.1", "--dump-config"
        )
        assert code == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(dumped)

        code, direct, _ = run_cli(capsys, "table1", "--tau", "0.4", "--error", "XX=0.1")
        code2, via_config, _ = run_cli(capsys, "table1", "--config", str(config_path))
        assert code == 0 and code2 == 0
        assert direct == via_config

        code, redumped, _ = run_cli(
            capsys, "table1", "--config", str(config_path), "--dump-config"
        )
        assert redumped == dumped

    def test_flags_override_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"command": "calibrate", "theta": 1.0,
                                           "sum_h2": 0.0}))
        code, out, _ = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--theta", "2.0"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_wrong_command_config_rejected(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"command": "table1"}))
        code, _, err = run_cli(capsys, "calibrate", "--config", str(config_path))
        assert code == 1
        assert "table1" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"tua": 0.5}))
        code, _, err = run_cli(capsys, "table1", "--config", str(config_path))
        assert code == 1
        assert "unknown config" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--config", "/nonexistent.json")
        assert code == 1
        assert "cannot read" in err


# Flags of a quick run of every subcommand.
QUICK_ARGV = {
    "table1": ["--tau", "0.4", "--error", "XX=0.1"],
    "parity-sweep": ["--deltas=-0.5,0,0.5", "--noise-kinds", "pauli_z",
                     "--noise-targets", "0"],
    "magnus-check": ["--taus", "0.5", "--error-set", "XX=0.2;YY=0.6",
                     "--quad-tolerance", "1e-8"],
    "sign-table": ["--qubits", "1"],
    "overrotation": ["--tau", "0.5", "--sum-h2", "0.24"],
    "calibrate": ["--theta", "1.0", "--sum-h2", "0.24"],
}

COMMON_OPTIONS = {"-h", "--help", "--config", "--dump-config", "--output", "--format"}


class TestConfigSchema:
    @pytest.mark.parametrize("command", sorted(QUICK_ARGV))
    def test_dump_config_round_trips(self, command, tmp_path, capsys):
        argv = [command, *QUICK_ARGV[command]]
        code, dumped, _ = run_cli(capsys, *argv, "--dump-config")
        assert code == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(dumped)

        code, direct, _ = run_cli(capsys, *argv)
        code2, via_config, _ = run_cli(capsys, command, "--config", str(config_path))
        assert code == 0 and code2 == 0
        assert direct == via_config

        _, redumped, _ = run_cli(
            capsys, command, "--config", str(config_path), "--dump-config"
        )
        assert redumped == dumped

    @pytest.mark.parametrize("command", sorted(QUICK_ARGV))
    def test_unknown_field_rejected(self, command, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        code, out, err = run_cli(
            capsys, command, *QUICK_ARGV[command], "--config", str(config_path)
        )
        assert code == 1
        assert out == ""
        assert "unknown config fields" in err and "bogus" in err

    @pytest.mark.parametrize("command, data, name", [
        ("overrotation", {"tau": None, "sum_h2": 0.24}, "tau"),
        ("table1", {"tau": "abc"}, "tau"),
        ("sign-table", {"qubits": 2.7}, "qubits"),
        ("calibrate", {"theta": True, "sum_h2": 0.0}, "theta"),
    ])
    def test_uncoercible_value_is_config_error(self, command, data, name, tmp_path,
                                               capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, "--config", str(config_path))
        assert code == 1
        assert out == ""
        assert err.startswith("pstlab: config error:")
        assert repr(name) in err

    def test_file_values_take_the_field_type(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"tau": 1, "errors": [["XX", "0.5"]]}))
        _, from_file, _ = run_cli(
            capsys, "table1", "--config", str(config_path), "--dump-config"
        )
        _, from_flags, _ = run_cli(
            capsys, "table1", "--tau", "1", "--error", "XX=0.5", "--dump-config"
        )
        assert from_file == from_flags
        assert json.loads(from_file)["tau"] == 1.0

    @pytest.mark.parametrize("command, flags, data, normalized", [
        ("table1", ["--drive", "zx", "--error", "xx=0.1", "--error", " yx =0.3"],
         {"drive": "zx", "errors": [["xx", 0.1], [" yx ", 0.3]]},
         {"errors": [["XX", 0.1], ["YX", 0.3]]}),
        ("parity-sweep", ["--drive", "zx", "--error", "yy=0.6", "--deltas=-0.5,0,0.5",
                          "--noise-kinds", "pauli_z"],
         {"drive": "zx", "errors": [["yy", 0.6]], "deltas": [-0.5, 0, 0.5],
          "noise_kinds": ["pauli_z"]},
         {"errors": [["YY", 0.6]], "noise_kinds": ["pauli_z"]}),
        ("magnus-check", ["--drive", "zx", "--taus", "0.5", "--error-set", "xx=0.2;yy=0.6",
                          "--quad-tolerance", "1e-8"],
         {"drive": "zx", "taus": [0.5], "error_sets": [[["xx", 0.2], ["yy", 0.6]]],
          "quadrature_tol": 1e-8},
         {"error_sets": [[["XX", 0.2], ["YY", 0.6]]]}),
    ], ids=["table1", "parity-sweep", "magnus-check"])
    def test_lower_case_labels_agree_between_flag_and_file(self, command, flags, data,
                                                           normalized, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        from_flags = [run_cli(capsys, command, *flags, *extra)
                      for extra in ([], ["--dump-config"])]
        from_file = [run_cli(capsys, command, "--config", str(config_path), *extra)
                     for extra in ([], ["--dump-config"])]
        assert all(code == 0 for code, _, _ in from_flags + from_file)
        assert from_flags == from_file
        dumped = json.loads(from_flags[1][1])
        assert dumped["drive"] == "ZX"
        assert {key: dumped[key] for key in normalized} == normalized

    def test_lower_case_error_flag_report_unchanged(self, capsys):
        assert run_cli(capsys, "table1", "--error", "xx=0.1") == run_cli(
            capsys, "table1", "--error", "XX=0.1"
        )

    def test_option_strings(self):
        parser = _build_parser()
        commands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            name: set(sub._option_string_actions) - COMMON_OPTIONS
            for name, sub in commands.choices.items()
        }
        assert options == {
            "table1": {"--drive", "--tau", "--error", "--scale", "--dump-channel"},
            "parity-sweep": {"--drive", "--tau", "--zeta", "--error", "--noise-kinds",
                             "--noise-targets", "--delta-max", "--delta-points",
                             "--deltas"},
            "magnus-check": {"--drive", "--taus", "--error-set", "--random-sets",
                             "--seed", "--max-amplitude", "--tolerance",
                             "--omega1-tolerance", "--quad-tolerance",
                             "--max-evaluations"},
            "sign-table": {"--qubits"},
            "overrotation": {"--tau", "--sum-h2"},
            "calibrate": {"--theta", "--sum-h2"},
        }
        for sub in commands.choices.values():
            assert COMMON_OPTIONS <= set(sub._option_string_actions)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pstlab", "overrotation", "--tau", "0.5",
         "--sum-h2", "0.24"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1.019023"
