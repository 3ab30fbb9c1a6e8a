"""Tests for the command-line front end: dispatch, formats, exit codes."""

import argparse
import ast
import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pstlab.cli import _build_parser, _run_command, main
from pstlab.errors import ConfigError, ToleranceError
from pstlab.experiments import MagnusCheckConfig, ParitySweepConfig, Table1Config
from pstlab.liouville import matrix_from_json
from pstlab.pst_core import calibrate_tau, pst_channel
from pstlab.schema import CalibrateConfig, OverRotationConfig, SignTableConfig, fields

ROOT = Path(__file__).resolve().parents[1]


def _subparsers(parser) -> dict:
    """Subcommand name -> its parser, from a top-level parser."""
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands.choices


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

    def test_branch_cut_is_numerical_failure(self, capsys):
        # At tau 3 the twirled channel has real negative eigenvalues (one of
        # them about -0.575); the block log rejects them as the dense log did.
        code, out, err = run_cli(capsys, "table1", "--tau", "3.0")
        assert code == 2
        assert out == ""
        assert "numerical failure" in err and "branch cut" in err
        named = complex(re.search(r"eigenvalue (\S+) lies", err).group(1))
        config = Table1Config(tau=3.0)
        eigvals = np.linalg.eigvals(pst_channel(config.drive_spec(), config.error_spec()))
        on_cut = eigvals[(eigvals.real < 0) & (np.abs(eigvals.imag) <= 1e-8)]
        assert np.abs(on_cut + 0.575).min() <= 1e-3
        assert np.abs(on_cut - named).min() <= 1e-6

    @pytest.mark.parametrize("tau", ["1.5707963267948966", "2.0"])
    def test_aliased_drive_weight_is_numerical_failure(self, capsys, tau):
        # The log is accepted, but the twirled drive rotates the eigenphases
        # by 2 tau f >= pi, so it reads an aliased branch (-1.2895 at pi/2).
        code, out, err = run_cli(capsys, "table1", "--drive", "X", "--error", "Z=0.1",
                                 "--tau", tau)
        assert code == 2
        assert out == ""
        assert "numerical failure" in err and "branch cut" in err

    @pytest.mark.parametrize("tau", ["1.54", "1.555"])
    def test_drive_rotation_below_pi_prints(self, capsys, tau):
        code, out, _ = run_cli(capsys, "table1", "--drive", "X", "--error", "Z=0.1",
                               "--tau", tau)
        assert code == 0
        payload = json.loads(out)
        assert 2 * float(tau) * payload["theoretical_drive_coeff"] < math.pi

    @pytest.mark.parametrize("tau", ["1e-300", "1e-20"])
    def test_unresolvable_duration_is_numerical_failure(self, tau, capsys):
        code, out, err = run_cli(capsys, "table1", "--tau", tau)
        assert (code, out) == (2, "")
        assert err.startswith(f"pstlab: numerical failure: tau={float(tau)!r} is too short")

    @pytest.mark.parametrize("amplitude, norm, squarings", [
        ("1e10", "1.000e+10", 31), ("1e20", "1.000e+20", 65),
    ])
    def test_unresolvable_error_scale_is_numerical_failure(self, amplitude, norm, squarings,
                                                             capsys):
        # The noiseless twirl used to print a twirled ZX weight of -5.2e-11
        # at XX = 1e10, and to read it as 0.0 at 1e20.
        code, out, err = run_cli(capsys, "table1", "--error", f"XX={amplitude}")
        assert (code, out) == (2, "")
        assert err.startswith("pstlab: numerical failure: a drive-sign pattern's"
                              f" Hamiltonian part has 1-norm {norm}, which takes"
                              f" {squarings} squarings")


class TestOverflowingAmplitudes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, norm, scale", [
        (("table1", "--error", "XX=1e308"), "inf", "1.0"),
        (("table1", "--error", "XX=1e308", "--scale", "10"), "nan", "10.0"),
        (("parity-sweep", "--error", "XX=1e307", "--delta-points", "3",
          "--delta-max", "100"), "nan", "-100.0"),
    ], ids=["table1", "table1-scaled", "parity-sweep"])
    def test_overflowing_norm_is_numerical_failure(self, argv, norm, scale, capsys):
        # Finite inputs whose scaled amplitudes overflow a pattern's 1-norm
        # (to nan where an inf meets a 0) used to exit 1 as "matrix entries
        # must be finite", or 2 with an OverflowError, after numpy
        # RuntimeWarnings; a warning now raises here.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "Warning" not in err
        assert err == ("pstlab: numerical failure: a drive-sign pattern's Hamiltonian part"
                       f" overflows double precision (its 1-norm reads {norm}; the first"
                       f" refused spec has error scale {scale}); reduce the error scale"
                       " or tau\n")


class TestUnwritablePaths:
    @pytest.mark.parametrize("argv", [
        ("table1", "--output"),
        ("overrotation", "--tau", "0.5", "--sum-h2", "0.24", "--output"),
        ("table1", "--dump-config", "--output"),
        ("table1", "--dump-channel"),
    ], ids=["table1-output", "overrotation-output", "dump-config-output", "dump-channel"])
    def test_write_failure_is_one_line_config_error(self, argv, tmp_path, capsys):
        missing = tmp_path / "absent" / "file"
        code, out, err = run_cli(capsys, *argv, str(missing))
        assert code == 1
        assert "Warning" not in err
        assert err == f"pstlab: config error: cannot write {missing}: No such file or directory\n"
        # The channel dump follows the report, which still reaches stdout.
        assert (out != "") == ("--dump-channel" in argv)


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

    def test_overrotation_at_tiny_tau_keeps_its_digits(self, capsys):
        # 1 + (2 tau)^2 / 12 * sum_h2 to rounding; (1 - sinc(2 tau)) / 2 taken
        # by subtraction gives 333067.9 here.
        assert run_cli(capsys, "overrotation", "--tau", "1e-7", "--sum-h2", "1e20") == (
            0, "333334.3\n", "")

    def test_calibrate_at_huge_error_weight(self, capsys):
        # The root; a coefficient taken by subtraction puts it at 3.612187e-07.
        assert run_cli(capsys, "calibrate", "--theta", "3.141592653589793",
                       "--sum-h2", "1e20") == (0, "3.611994e-07\n", "")

    def test_overrotation_at_overflowing_tau_reads_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "overrotation", "--tau", "1e308",
                                 "--sum-h2", "1")
        assert (code, out, err) == (0, "1.5\n", "")

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

    def test_expm_overflow_is_one_line_numerical_failure(self):
        # Under warnings as errors: the overflow is typed, and no numpy
        # RuntimeWarning escapes before it.
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pstlab", "parity-sweep",
             "--delta-points", "3", "--delta-max", "1e20"],
            capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("pstlab: numerical failure: exponential of a"
                                        " matrix with 1-norm 6.000e+20 overflows in its")

    @pytest.mark.parametrize("targets", [(), ("--noise-targets", "0")], ids=["all", "one"])
    def test_overflowing_noise_rate_is_one_line_numerical_failure(self, targets):
        # The config accepts the rate, but its dissipator overflows; under
        # warnings as errors no numpy RuntimeWarning escapes before the refusal.
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pstlab", "parity-sweep",
             "--zeta", "1e308", "--delta-points", "3", *targets],
            capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == ("pstlab: numerical failure: the pauli_z dissipator at rate"
                                 " 1e+308 overflows double precision; reduce the noise rate\n")

    def test_unresolvable_error_scale_is_numerical_failure(self, capsys):
        # A Hamiltonian part of 1-norm 6e17 takes 57 squarings: the
        # exponential stays finite but has lost every digit (the sweep used
        # to report an operator-norm distance of 478409).
        code, out, err = run_cli(capsys, "parity-sweep", "--delta-points", "3",
                                 "--delta-max", "1e17", "--noise-kinds", "pauli_z")
        assert (code, out) == (2, "")
        assert err.startswith("pstlab: numerical failure: a drive-sign pattern's"
                              " Hamiltonian part has 1-norm 6.000e+17, which takes 57"
                              " squarings")

    @pytest.mark.parametrize("delta_max, norm, squarings", [
        ("1e8", "6.000e+08", 27), ("1e9", "6.000e+09", 31),
    ])
    def test_unresolvable_noiseless_scale_is_numerical_failure(self, delta_max, norm,
                                                               squarings, capsys):
        # The noiseless sweep is even in delta, but its +-delta rows used to
        # differ by 1.0e-8 at 1e8 and by 1.4e-7 at 1e9, with exit code 0.
        code, out, err = run_cli(capsys, "parity-sweep", "--noise-kinds", "none",
                                 "--delta-points", "3", "--delta-max", delta_max)
        assert (code, out) == (2, "")
        assert err.startswith("pstlab: numerical failure: a drive-sign pattern's"
                              f" Hamiltonian part has 1-norm {norm}, which takes"
                              f" {squarings} squarings")

    def test_noiseless_scale_at_the_bound_resolves(self, capsys):
        # 26 squarings: the +-delta rows agree to one rounding.
        code, out, err = run_cli(capsys, "parity-sweep", "--noise-kinds", "none",
                                 "--delta-points", "3", "--delta-max", "5e7")
        assert (code, err) == (0, "")
        minus, _, plus = (float(line.split(",")[1]) for line in out.splitlines()[1:])
        assert abs(plus - minus) <= 2.3e-16

    def test_strong_noise_still_resolves(self, capsys):
        # A dissipative part of any size squares without loss: at rate 1e14
        # the generators take 47 squarings, and the channel reaches its
        # dephased limit.
        code, out, err = run_cli(capsys, "parity-sweep", "--zeta", "1e14",
                                 "--delta-points", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:4] == [
            f"{delta},1.4830248290540895,1.4830248290540895,pauli_z"
            for delta in ("-1.0", "0.0", "1.0")
        ]


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

    @pytest.mark.parametrize("amplitude, overflowing", [
        ("1e150", "discrepancy norm"), ("1e160", "second-order term"),
    ])
    def test_overflow_is_recorded_as_numerical_failure(self, amplitude, overflowing,
                                                       capsys):
        # XX = 1e160 used to exit 1 as a config error after numpy
        # RuntimeWarnings, and XX = 1e150 to write "discrepancy": Infinity.
        code, out, err = run_cli(capsys, "magnus-check", "--taus", "0.5",
                                 "--error-set", f"XX={amplitude};YY=0.2")
        assert code == 2
        assert "Warning" not in err
        assert err == ("pstlab: numerical failure: 1 crosscheck row(s) exceeded"
                       " tolerance or failed to converge\n")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        (row,) = json.loads(out, parse_constant=refuse)["rows"]
        assert (row["discrepancy"], row["omega1_norm"]) == (None, None)
        assert row["note"] == (f"the {overflowing} overflows double precision; the"
                               " error amplitudes are too large to resolve")

    def test_overflowing_triangle_jacobian_is_recorded(self, capsys):
        # tau^2 overflows: the row records the refusal instead of spending
        # the whole evaluation budget on nan levels.
        code, out, err = run_cli(capsys, "magnus-check", "--taus", "1e300",
                                 "--error-set", "XX=0.2")
        assert code == 2
        assert "Warning" not in err
        (row,) = json.loads(out)["rows"]
        assert (row["discrepancy"], row["omega1_norm"]) == (None, None)
        assert row["note"] == ("tau=1e+300 is too long: the triangle's Jacobian tau^2"
                               " overflows double precision")

    def test_huge_tau_budget_failure_names_a_finite_estimate(self, capsys):
        # tau^2 fits, but the level differences are too large to square.
        code, out, err = run_cli(capsys, "magnus-check", "--taus", "1e100",
                                 "--error-set", "XX=0.2")
        assert code == 2
        assert "Warning" not in err
        (row,) = json.loads(out)["rows"]
        estimate = re.fullmatch(r"triangle quadrature did not reach tol=1e-09 within"
                                r" 1048576 evaluations \(best estimate (\S+)\)", row["note"])
        assert math.isfinite(float(estimate.group(1)))

    def test_negative_seed_is_refused_by_name(self, capsys):
        # random.Random would draw seed -1 as seed 1; the refusal names the field.
        code, out, err = run_cli(capsys, "magnus-check", "--seed=-1", "--dump-config")
        assert (code, out) == (1, "")
        assert err == "pstlab: config error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv, refusal", [
        (["--taus", "0.5,0.5"], "taus repeats [0.5]"),
        (["--error-set", "XX=0.2;YY=0.6", "--error-set", "XX=0.2;YY=0.6"],
         "error_sets repeats [(('XX', 0.2), ('YY', 0.6))]"),
    ], ids=["taus", "error-sets"])
    @pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
    def test_repeated_value_is_refused_by_name(self, argv, refusal, dump, capsys):
        # A repeated value would run again and print its rows twice.
        code, out, err = run_cli(capsys, "magnus-check", *argv, *dump)
        assert (code, out) == (1, "")
        assert err == f"pstlab: config error: {refusal}; each value must appear once\n"

    def test_reports_are_identical_across_hash_seeds(self):
        # The draw must not depend on a hash-ordered set, so interpreters
        # with different string hashing print the same bytes.
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "pstlab", "magnus-check", "--seed", "3",
                 "--taus", "0.5"],
                capture_output=True, timeout=120, check=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["rows"]) == 1 + 5

    def test_tolerance_failure_is_typed(self, capsys):
        argv = ["magnus-check", "--taus", "0.5", "--error-set", "XX=0.2",
                "--tolerance", "1e-30"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "exceeded tolerance" in err
        assert json.loads(out)["all_within_tolerance"] is False
        with pytest.raises(ToleranceError, match="1 crosscheck row"):
            _run_command(_build_parser(argv).parse_args(argv))

    @pytest.mark.parametrize("flag, value, name", [
        ("--quad-tolerance", "nan", "quadrature_tol"),
        ("--tolerance", "nan", "tolerance"),
        ("--omega1-tolerance", "0", "omega1_tolerance"),
        ("--max-amplitude", "0.01", "max_amplitude"),
        ("--max-amplitude", "inf", "max_amplitude"),
        ("--max-evaluations", "0", "max_evaluations"),
        ("--max-evaluations", "-5", "max_evaluations"),
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

    @pytest.mark.parametrize("command, config, flags", [
        ("table1", {"errors": {"XX": 0.2, "YX": 0.4}},
         ["--error", "XX=0.2", "--error", "YX=0.4"]),
        ("magnus-check", {"taus": [0.5], "error_sets": [{"XX": 0.2, "YY": 0.6}, [["YX", 0.4]]]},
         ["--taus", "0.5", "--error-set", "XX=0.2;YY=0.6", "--error-set", "YX=0.4"]),
    ], ids=["table1", "magnus-check"])
    def test_object_form_of_a_pair_list(self, command, config, flags, tmp_path, capsys):
        # A pair list may be a JSON object of label and amplitude, in key order.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        via_config = run_cli(capsys, command, "--config", str(config_path))
        assert via_config[0] == 0
        assert via_config == run_cli(capsys, command, *flags)

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

    @pytest.mark.parametrize("text, refusal", [
        ("{not json", "is not valid JSON: "),
        ("[0.5]", "must hold a JSON object\n"),
    ], ids=["not-json", "array"])
    def test_malformed_config_file_rejected(self, text, refusal, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        code, out, err = run_cli(capsys, "table1", "--config", str(config_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"pstlab: config error: config file {config_path} {refusal}")


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

# Configs that coerce field by field but name specs no run can build.
UNRUNNABLE_ARGV = [
    ["parity-sweep", "--deltas=0.5,0"],
    ["parity-sweep", "--noise-targets", "3"],
    ["parity-sweep", "--noise-targets=,"],
    ["parity-sweep", "--noise-targets=-1"],
    ["parity-sweep", "--zeta=-1"],
    ["parity-sweep", "--deltas=0.5,-0.5,0.5"],
    ["parity-sweep", "--deltas=0,-0"],
    ["parity-sweep", "--noise-kinds", "pauli_z,pauli_z"],
    ["parity-sweep", "--delta-max", "inf", "--delta-points", "3"],
    ["parity-sweep", "--deltas=1e400,-1e400"],
    ["parity-sweep", "--delta-max", "1e308", "--delta-points", "5"],
    ["table1", "--error", "ZX=0.1"],
    ["table1", "--drive", "ZXI", "--error", "XX=0.2"],
    ["magnus-check", "--drive", "X"],
    ["magnus-check", "--drive", "XX"],
    ["magnus-check", "--taus=-1"],
    ["magnus-check", "--taus=0.5,nan"],
    ["magnus-check", "--taus=inf"],
    ["magnus-check", "--seed=-1"],
    ["table1", "--tau", "0"],
    ["parity-sweep", "--noise-kinds", "none", "--zeta", "nan"],
    ["parity-sweep", "--noise-kinds", "none", "--zeta=-1"],
    ["parity-sweep", "--deltas=-1,1", "--delta-max", "nan"],
    ["parity-sweep", "--deltas=-1,1", "--delta-points", "4"],
    ["overrotation", "--tau", "nan", "--sum-h2", "0.1"],
    ["overrotation", "--tau=-1", "--sum-h2", "0.1"],
    ["calibrate", "--theta", "9", "--sum-h2", "0.1"],
    ["calibrate", "--theta", "1", "--sum-h2", "inf"],
    ["sign-table", "--qubits=-3"],
    ["sign-table", "--qubits", "9"],
]

# An empty list that would leave a run with nothing to do, and its field.
EMPTY_LIST_ARGV = [
    (["magnus-check", "--taus="], "taus"),
    (["parity-sweep", "--noise-kinds="], "noise_kinds"),
    (["parity-sweep", "--deltas="], "deltas"),
]

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
        ("table1", {"errors": 3}, "errors"),
        ("table1", {"errors": [["XX"]]}, "errors"),
        ("table1", {"drive": 5}, "drive"),
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

    def test_error_object_reports_as_the_pair_list(self, tmp_path, capsys):
        # An object's items are the pairs, in file order.
        config_path = tmp_path / "config.json"
        reports = []
        for errors in ({"XX": 0.1, "YX": 0.3}, [["XX", 0.1], ["YX", 0.3]]):
            config_path.write_text(json.dumps({"errors": errors}))
            reports.append(run_cli(capsys, "table1", "--config", str(config_path)))
        assert reports[0][0] == 0
        assert reports[0] == reports[1]

    def test_missing_field_in_dict_is_config_error(self):
        with pytest.raises(ConfigError, match="missing 2 required"):
            OverRotationConfig.from_dict({})

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
        # Each command's parser builds that command's flags alone; every
        # other subcommand is listed with nothing but its help flag.
        options = {}
        for name in QUICK_ARGV:
            subparsers = _subparsers(_build_parser([name]))
            for other, sub in subparsers.items():
                if other != name:
                    assert set(sub._option_string_actions) == {"-h", "--help"}
            assert COMMON_OPTIONS <= set(subparsers[name]._option_string_actions)
            options[name] = set(subparsers[name]._option_string_actions) - COMMON_OPTIONS
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


CONFIG_CLASSES = {
    "table1": Table1Config,
    "parity-sweep": ParitySweepConfig,
    "magnus-check": MagnusCheckConfig,
    "sign-table": SignTableConfig,
    "overrotation": OverRotationConfig,
    "calibrate": CalibrateConfig,
}

USAGE = "usage: pstlab [-h] command ...\n"


class TestParserParity:
    """The per-command parser shows and rejects what the all-command one did."""

    @pytest.mark.parametrize("command", sorted(CONFIG_CLASSES))
    def test_help_lists_exactly_the_config_flags(self, command, capsys):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        expected = {
            spec.metadata["flag"] or "--" + spec.name.replace("_", "-")
            for spec in fields(CONFIG_CLASSES[command])
        }
        expected |= {"--help", "--config", "--dump-config", "--output", "--format"}
        if command == "table1":
            expected.add("--dump-channel")
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) == expected

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for command in CONFIG_CLASSES:
            assert re.search(rf"^\s+{re.escape(command)}\s", out, re.MULTILINE), command

    def test_top_level_help_carries_no_developer_notes(self, capsys):
        # The module docstring says which module owns which config; the
        # help describes the program instead.
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for note in ("pstlab.schema", "pstlab.experiments", "Command-line front end"):
            assert note not in out

    def test_no_command_message(self, capsys):
        assert run_cli(capsys) == (1, "", f"pstlab: config error: {USAGE}\n")

    def test_unknown_command_message(self, capsys):
        choices = ", ".join(repr(command) for command in CONFIG_CLASSES)
        assert run_cli(capsys, "frobnicate") == (
            1, "",
            "pstlab: config error: argument command: invalid choice: 'frobnicate'"
            f" (choose from {choices})\n{USAGE}\n",
        )

    @pytest.mark.parametrize("command, declared", [
        ("overrotation", "table1"), ("table1", "calibrate"), ("sign-table", "magnus-check"),
    ])
    def test_config_file_for_another_command(self, command, declared, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"command": declared}))
        assert run_cli(capsys, command, "--config", str(config_path)) == (
            1, "",
            f"pstlab: config error: config file {config_path} is for command"
            f" {declared!r}, not {command!r}\n",
        )


class TestConfigRejectsWhatTheRunRejects:
    @pytest.mark.parametrize("argv", UNRUNNABLE_ARGV, ids=" ".join)
    def test_dump_config_fails_as_the_run_does(self, argv, capsys):
        run_code, _, run_err = run_cli(capsys, *argv)
        dump_code, dump_out, dump_err = run_cli(capsys, *argv, "--dump-config")
        assert run_code == dump_code == 1
        assert dump_out == ""
        assert dump_err == run_err
        assert "config error" in dump_err

    @pytest.mark.parametrize("argv, name", EMPTY_LIST_ARGV,
                             ids=[name for _, name in EMPTY_LIST_ARGV])
    def test_empty_list_flag_is_config_error(self, argv, name, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"config error: {name} must hold at least one value" in err

    def test_empty_error_sets_in_file_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"error_sets": []}))
        code, out, err = run_cli(capsys, "magnus-check", "--config", str(config_path))
        assert code == 1
        assert out == ""
        assert "config error: error_sets must hold at least one value" in err

    def test_empty_deltas_in_file_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"deltas": []}))
        code, out, err = run_cli(capsys, "parity-sweep", "--config", str(config_path))
        assert code == 1
        assert out == ""
        assert "config error: deltas must hold at least one value" in err


    @pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
    def test_infinite_delta_max_in_file_is_config_error(self, dump, tmp_path, capsys):
        # json reads Infinity as a float; it is refused by name, as the flag is.
        config_path = tmp_path / "config.json"
        config_path.write_text('{"delta_max": Infinity, "delta_points": 3}')
        code, out, err = run_cli(capsys, "parity-sweep", "--config", str(config_path), *dump)
        assert (code, out) == (1, "")
        assert err == "pstlab: config error: delta_max must be finite and positive, got inf\n"

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_noise_targets_are_config_error(self, source, dump, tmp_path, capsys):
        # An empty target list would run every noise kind on no qubit.
        if source == "flag":
            argv = ["parity-sweep", "--noise-targets=,"]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"noise_targets": []}))
            argv = ["parity-sweep", "--config", str(config_path)]
        code, out, err = run_cli(capsys, *argv, *dump)
        assert code == 1
        assert out == ""
        assert err.startswith("pstlab: config error: noise targets must name at least one")


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


class TestProcessEntry:
    """`pstlab.__main__.run` freezes the collector for the exit; `main`
    leaves it alone."""

    @pytest.mark.parametrize("argv, expected", [
        (("table1",), 0),
        (("sign-table", "--qubits", "9"), 1),
        (("magnus-check", "--taus", "0.5,1.0", "--max-evaluations", "50"), 2),
    ], ids=["success", "config-error", "numerical-failure"])
    def test_main_leaves_the_collector_as_it_found_it(self, argv, expected, capsys):
        before = (gc.get_freeze_count(), gc.isenabled())
        assert run_cli(capsys, *argv)[0] == expected
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_entry_freezes_the_collector_after_the_run(self):
        probe = textwrap.dedent("""
            import gc, sys
            from pstlab.__main__ import run
            sys.argv = ["pstlab", "table1"]
            before = gc.get_freeze_count()
            code = run()
            print(code, before, gc.get_freeze_count())
        """)
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        *report, probed = result.stdout.splitlines()
        assert json.loads("\n".join(report))["config"]["drive"]
        code, before, after = map(int, probed.split())
        assert (code, before) == (0, 0)
        assert after > 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_the_entry_runs_the_command_without_cyclic_collections(self, enabled):
        # numpy's import sets off some 35 collections with the collector on.
        probe = textwrap.dedent(f"""
            import gc, sys
            from pstlab.__main__ import run
            collections = []
            gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info))
            sys.argv = ["pstlab", "parity-sweep"]
            if not {enabled}:
                gc.disable()
            code = run()
            print(code, len(collections), gc.isenabled(), gc.get_freeze_count())
        """)
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        *report, probed = result.stdout.splitlines()
        assert report[0] == "delta,error,symmetrized,noise_kind"
        code, collections, after, frozen = probed.split()
        assert (code, collections, after) == ("0", "0", str(enabled))
        assert int(frozen) > 0

    def test_console_script_is_the_module_entry(self):
        # Read as text: tomllib is missing on Python 3.10.
        pyproject = (ROOT / "pyproject.toml").read_text()
        module, function = re.search(
            r'^\[project\.scripts\]\npstlab = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        tree = ast.parse((ROOT / "src" / "pstlab" / "__main__.py").read_text())
        guard = next(node for node in tree.body if isinstance(node, ast.If))
        assert ast.unparse(guard.test) == "__name__ == '__main__'"
        assert [ast.unparse(node) for node in guard.body] == [f"sys.exit({function}())"]
        assert module == "pstlab.__main__"
        assert callable(getattr(importlib.import_module(module), function))
