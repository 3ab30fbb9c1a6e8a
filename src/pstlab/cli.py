"""Command-line front end.

Subcommands: table1, parity-sweep, magnus-check, sign-table, overrotation,
calibrate.  Each accepts --config FILE (JSON) with flags overriding file
fields, --dump-config to echo the fully resolved config (which re-parses
to an identical run), and --output/--format to direct the report.

Exit codes: 0 success, 1 config or usage error, 2 numerical failure; the
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import ConfigError, ToleranceError
from .liouville import matrix_to_json
from .magnus import over_rotation_factor
from .pauli import sign_table, sign_table_csv, enumerate_group
from .pst_core import calibrate_tau
from .experiments import (
    MagnusCheckConfig,
    ParitySweepConfig,
    Table1Config,
    parity_rows_to_csv,
    run_magnus_crosscheck,
    run_parity_sweep,
    run_table1,
)

_SCALAR_FORMAT = "{:.7g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage()}")


def _add_common(sub, default_format: str, formats: tuple[str, ...] = ("json", "csv")):
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--dump-config", action="store_true",
                     help="print the resolved config as JSON and exit")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=formats, default=default_format)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pstlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")

    table1 = commands.add_parser(
        "table1", help="effective Hamiltonian weights with and without the twirl"
    )
    _add_common(table1, "json")
    table1.add_argument("--drive", help="drive Pauli label (default ZX)")
    table1.add_argument("--tau", type=float, help="gate duration (default 0.5)")
    table1.add_argument("--error", action="append", metavar="LABEL=AMP",
                        help="error term, repeatable (default XX=0.2 YY=0.6 ZZ=0.2 YX=0.4)")
    table1.add_argument("--scale", type=float, help="global error scale (default 1)")
    table1.add_argument("--dump-channel", metavar="FILE",
                        help="debug dump of the ensemble channel as JSON [re, im] pairs")

    sweep = commands.add_parser(
        "parity-sweep", help="channel deviation over a symmetric error-strength grid"
    )
    _add_common(sweep, "csv")
    sweep.add_argument("--drive")
    sweep.add_argument("--tau", type=float, help="gate duration (default 2.5)")
    sweep.add_argument("--zeta", type=float, help="noise rate (default 3)")
    sweep.add_argument("--error", action="append", metavar="LABEL=AMP")
    sweep.add_argument("--noise-kinds", metavar="KIND[,KIND...]",
                       help="default pauli_z,amplitude_damping")
    sweep.add_argument("--noise-targets", metavar="Q[,Q...]",
                       help="qubit indices carrying the noise (default all)")
    sweep.add_argument("--delta-max", type=float)
    sweep.add_argument("--delta-points", type=int)
    sweep.add_argument("--deltas", metavar="D[,D...]",
                       help="explicit grid; must contain every -delta partner")

    magnus = commands.add_parser(
        "magnus-check", help="quadrature vs closed-form second-order crosscheck"
    )
    _add_common(magnus, "json")
    magnus.add_argument("--drive")
    magnus.add_argument("--taus", metavar="T[,T...]", help="default 0.3,0.5,1.0")
    magnus.add_argument("--error-set", action="append", metavar="L=A[;L=A...]",
                        help="explicit error set, repeatable; replaces the defaults")
    magnus.add_argument("--random-sets", type=int)
    magnus.add_argument("--seed", type=int)
    magnus.add_argument("--max-amplitude", type=float)
    magnus.add_argument("--tolerance", type=float,
                        help="allowed quadrature/closed-form discrepancy (default 1e-6)")
    magnus.add_argument("--omega1-tolerance", type=float)
    magnus.add_argument("--quad-tolerance", type=float,
                        help="refinement tolerance on the scalar trig kernels,"
                             " integrated once per tau (default 1e-9)")
    magnus.add_argument("--max-evaluations", type=int,
                        help="evaluations allowed to each second-order"
                             " kernel quadrature (default 2^20)")

    table = commands.add_parser("sign-table", help="commutation-sign table as CSV")
    _add_common(table, "csv")
    table.add_argument("--qubits", type=int, help="register size (default 2)")

    over = commands.add_parser(
        "overrotation", help="sinc-law amplitude amplification factor"
    )
    _add_common(over, "text", ("text", "json"))
    over.add_argument("--tau", type=float)
    over.add_argument("--sum-h2", type=float,
                      help="sum of squared anticommuting error amplitudes")

    cal = commands.add_parser(
        "calibrate", help="invert tau * factor(tau) = theta/2 for the drive duration"
    )
    _add_common(cal, "text", ("text", "json"))
    cal.add_argument("--theta", type=float, help="target rotation angle")
    cal.add_argument("--sum-h2", type=float)

    return parser


def _load_config_file(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    declared = data.pop("command", None)
    if declared is not None and declared != command:
        raise ConfigError(
            f"config file {path} is for command {declared!r}, not {command!r}"
        )
    return data


def _overlay(base: dict, args: argparse.Namespace, mapping: dict) -> dict:
    merged = dict(base)
    for flag, (key, convert) in mapping.items():
        value = getattr(args, flag)
        if value is not None:
            merged[key] = convert(value) if convert else value
    return merged


def _parse_error_pairs(entries) -> list:
    pairs = []
    for entry in entries:
        label, _, value = entry.partition("=")
        if not _:
            raise ConfigError(f"expected LABEL=AMPLITUDE, got {entry!r}")
        pairs.append([label.strip().upper(), float(value)])
    return pairs


def _parse_error_set(entry: str) -> list:
    return _parse_error_pairs(entry.split(";"))


def _csv_list(convert):
    return lambda text: [convert(item) for item in str(text).split(",") if item != ""]


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_config(command: str, config_dict: dict, output: str | None) -> int:
    _emit(json.dumps({"command": command, **config_dict}, indent=2), output)
    return 0


def _run_table1(args) -> int:
    merged = _overlay(
        _load_config_file(args.config, "table1"),
        args,
        {
            "drive": ("drive", None),
            "tau": ("tau", None),
            "error": ("errors", _parse_error_pairs),
            "scale": ("scale", None),
        },
    )
    config = Table1Config.from_dict(merged)
    if args.dump_config:
        return _dump_config("table1", config.to_dict(), args.output)
    report = run_table1(config)
    if args.dump_channel:
        with open(args.dump_channel, "w", encoding="utf-8") as handle:
            json.dump({"channel": matrix_to_json(report.channel)}, handle)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.output)
    return 0


def _run_parity_sweep(args) -> int:
    merged = _overlay(
        _load_config_file(args.config, "parity-sweep"),
        args,
        {
            "drive": ("drive", None),
            "tau": ("tau", None),
            "zeta": ("zeta", None),
            "error": ("errors", _parse_error_pairs),
            "noise_kinds": ("noise_kinds", _csv_list(str)),
            "noise_targets": ("noise_targets", _csv_list(int)),
            "delta_max": ("delta_max", None),
            "delta_points": ("delta_points", None),
            "deltas": ("deltas", _csv_list(float)),
        },
    )
    config = ParitySweepConfig.from_dict(merged)
    if args.dump_config:
        return _dump_config("parity-sweep", config.to_dict(), args.output)
    rows = run_parity_sweep(config)
    if args.format == "csv":
        _emit(parity_rows_to_csv(rows), args.output)
    else:
        payload = {
            "config": config.to_dict(),
            "rows": [
                {
                    "delta": row.delta,
                    "error": row.error,
                    "symmetrized": row.symmetrized,
                    "noise_kind": row.noise_kind,
                }
                for row in rows
            ],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _run_magnus_check(args) -> int:
    merged = _overlay(
        _load_config_file(args.config, "magnus-check"),
        args,
        {
            "drive": ("drive", None),
            "taus": ("taus", _csv_list(float)),
            "error_set": ("error_sets", lambda entries: [
                _parse_error_set(entry) for entry in entries
            ]),
            "random_sets": ("random_sets", None),
            "seed": ("seed", None),
            "max_amplitude": ("max_amplitude", None),
            "tolerance": ("tolerance", None),
            "omega1_tolerance": ("omega1_tolerance", None),
            "quad_tolerance": ("quadrature_tol", None),
            "max_evaluations": ("max_evaluations", None),
        },
    )
    config = MagnusCheckConfig.from_dict(merged)
    if args.dump_config:
        return _dump_config("magnus-check", config.to_dict(), args.output)
    report = run_magnus_crosscheck(config)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.output)
    if not report.all_within_tolerance:
        failing = [row for row in report.rows if not row.within_tolerance]
        raise ToleranceError(
            f"{len(failing)} crosscheck row(s) exceeded tolerance or failed to converge"
        )
    return 0


def _run_sign_table(args) -> int:
    merged = _overlay(
        _load_config_file(args.config, "sign-table"),
        args,
        {"qubits": ("qubits", None)},
    )
    qubits = int(merged.get("qubits", 2))
    if args.dump_config:
        return _dump_config("sign-table", {"qubits": qubits}, args.output)
    if args.format == "csv":
        _emit(sign_table_csv(qubits), args.output)
    else:
        payload = {
            "labels": [p.label for p in enumerate_group(qubits)],
            "table": sign_table(qubits).tolist(),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _require(merged: dict, key: str, command: str) -> float:
    if key not in merged:
        raise ConfigError(f"{command} needs --{key.replace('_', '-')} (or a config field)")
    return float(merged[key])


def _run_overrotation(args) -> int:
    merged = _overlay(
        _load_config_file(args.config, "overrotation"),
        args,
        {"tau": ("tau", None), "sum_h2": ("sum_h2", None)},
    )
    tau = _require(merged, "tau", "overrotation")
    sum_h2 = _require(merged, "sum_h2", "overrotation")
    if args.dump_config:
        return _dump_config("overrotation", {"tau": tau, "sum_h2": sum_h2}, args.output)
    factor = over_rotation_factor(tau, sum_h2)
    if args.format == "json":
        _emit(json.dumps({"tau": tau, "sum_h2": sum_h2, "factor": factor}), args.output)
    else:
        _emit(_SCALAR_FORMAT.format(factor), args.output)
    return 0


def _run_calibrate(args) -> int:
    merged = _overlay(
        _load_config_file(args.config, "calibrate"),
        args,
        {"theta": ("theta", None), "sum_h2": ("sum_h2", None)},
    )
    theta = _require(merged, "theta", "calibrate")
    sum_h2 = _require(merged, "sum_h2", "calibrate")
    if args.dump_config:
        return _dump_config("calibrate", {"theta": theta, "sum_h2": sum_h2}, args.output)
    tau = calibrate_tau(theta, sum_h2)
    if args.format == "json":
        _emit(json.dumps({"theta": theta, "sum_h2": sum_h2, "tau": tau}), args.output)
    else:
        _emit(_SCALAR_FORMAT.format(tau), args.output)
    return 0


_HANDLERS = {
    "table1": _run_table1,
    "parity-sweep": _run_parity_sweep,
    "magnus-check": _run_magnus_check,
    "sign-table": _run_sign_table,
    "overrotation": _run_overrotation,
    "calibrate": _run_calibrate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError(parser.format_usage())
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"pstlab: config error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"pstlab: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
