"""Command-line front end.

Subcommands: table1, parity-sweep, magnus-check, sign-table, overrotation,
calibrate.  Each accepts --config FILE (JSON) with flags overriding file
fields, --dump-config to echo the fully resolved config (which re-parses
to an identical run), and --output/--format to direct the report.

Every subcommand's options come from the fields of its config record
(`pstlab.schema` for the scalar commands, `pstlab.experiments` for the
numeric ones): a field's flag is its name with _ -> - unless the field
renames it.  A config file may set only those fields (unknown ones are
rejected), and its values are coerced to the field types.  Each run
builds the flags of its own subcommand only.

The scalar commands (sign-table, overrotation, calibrate) never load
numpy.  The numeric ones (table1, parity-sweep, magnus-check) import
`pstlab.experiments`, and numpy with it, once they are chosen.

Exit codes: 0 success, 1 config or usage error, 2 numerical failure; the
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple, Sequence

from .errors import ConfigError, ToleranceError
from .schema import MISSING, CalibrateConfig, OverRotationConfig, SignTableConfig, asdict, fields
from .sinc_law import calibrate_tau, over_rotation_factor

_SCALAR_FORMAT = "{:.7g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage()}")


def _report_text(config, report, fmt: str) -> str:
    return report.to_csv() if fmt == "csv" else report.to_json()


def _experiments():
    """`pstlab.experiments`, imported (numpy with it) by the numeric commands."""
    from . import experiments

    return experiments


def _sweep_text(config, rows, fmt: str) -> str:
    if fmt == "csv":
        return _experiments().parity_rows_to_csv(rows)
    payload = {"config": config.to_dict(), "rows": [asdict(row) for row in rows]}
    return json.dumps(payload, indent=2)


def _sign_table_text(config, qubits: int, fmt: str) -> str:
    from .pauli import _sign_rows, enumerate_group, sign_table_csv

    if fmt == "csv":
        return sign_table_csv(qubits)
    group = enumerate_group(qubits)
    payload = {"labels": [p.label for p in group], "table": _sign_rows(group)}
    return json.dumps(payload, indent=2)


def _scalar_text(key: str):
    """Emitter of a scalar result: the number alone, or the config plus
    ``key`` as a JSON object."""

    def emit(config, value: float, fmt: str) -> str:
        if fmt == "json":
            return json.dumps({**config.to_dict(), key: value})
        return _SCALAR_FORMAT.format(value)

    return emit


def _dump_channel(report, args) -> None:
    if args.dump_channel:
        from .liouville import matrix_to_json

        _write(args.dump_channel, json.dumps({"channel": matrix_to_json(report.twirled.dense())}))


def _check_tolerance(report, args) -> None:
    if not report.all_within_tolerance:
        failing = [row for row in report.rows if not row.within_tolerance]
        raise ToleranceError(
            f"{len(failing)} crosscheck row(s) exceeded tolerance or failed to converge"
        )


class _Command(NamedTuple):
    """One subcommand: ``config()`` is its config class, ``run(config)``
    computes a result, ``emit(config, result, format)`` renders it, and
    ``finish(result, args)`` runs once the report is written."""

    help: str
    config: Callable[[], type]
    run: Callable
    emit: Callable
    default_format: str
    formats: tuple[str, ...] = ("json", "csv")
    finish: Callable = lambda result, args: None


# The numeric configs and runners are looked up in `pstlab.experiments`
# when a command runs, so the scalar commands never import it, and a
# wrapper bound over a module-level name (a profiler's, a test's) sees CLI
# calls too.
_COMMANDS = {
    "table1": _Command(
        "effective Hamiltonian weights with and without the twirl",
        lambda: _experiments().Table1Config,
        lambda config: _experiments().run_table1(config), _report_text, "json",
        finish=_dump_channel,
    ),
    "parity-sweep": _Command(
        "channel deviation over a symmetric error-strength grid",
        lambda: _experiments().ParitySweepConfig,
        lambda config: _experiments().run_parity_sweep(config), _sweep_text, "csv",
    ),
    "magnus-check": _Command(
        "quadrature vs closed-form second-order crosscheck",
        lambda: _experiments().MagnusCheckConfig,
        lambda config: _experiments().run_magnus_crosscheck(config),
        _report_text, "json",
        finish=_check_tolerance,
    ),
    "sign-table": _Command(
        "commutation-sign table as CSV",
        lambda: SignTableConfig, lambda config: config.qubits, _sign_table_text, "csv",
    ),
    "overrotation": _Command(
        "sinc-law amplitude amplification factor",
        lambda: OverRotationConfig,
        lambda config: over_rotation_factor(config.tau, config.sum_h2),
        _scalar_text("factor"), "text", ("text", "json"),
    ),
    "calibrate": _Command(
        "invert tau * factor(tau) = theta/2 for the drive duration",
        lambda: CalibrateConfig,
        lambda config: calibrate_tau(config.theta, config.sum_h2),
        _scalar_text("tau"), "text", ("text", "json"),
    ),
}


def _flag(spec) -> str:
    return spec.metadata.get("flag") or "--" + spec.name.replace("_", "-")


def _build_parser(argv: Sequence[str]) -> _Parser:
    """The parser of ``argv``: every subcommand is listed, but only the one
    ``argv`` names (its first non-option argument, as the top level takes
    no option values) gets its flags."""
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = _Parser(prog="pstlab", description=(
        "Exact pseudo-twirl channels of Pauli-generated gates under coherent errors"
        " and noise, and the sinc-law over-rotation.  Exit codes: 0 success, 1 config"
        " or usage error, 2 numerical failure."))
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        if name == chosen:
            _add_flags(sub, name, command)
    return parser


def _add_flags(sub: _Parser, name: str, command: _Command) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--dump-config", action="store_true",
                     help="print the resolved config as JSON and exit")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=command.formats,
                     default=command.default_format,
                     help=f"report format (default {command.default_format})")
    for spec in fields(command.config()):
        sub.add_argument(_flag(spec), **spec.metadata.get("argparse", {}))
    if name == "table1":
        sub.add_argument(
            "--dump-channel", metavar="FILE",
            help="debug dump of the ensemble channel as JSON [re, im] pairs",
        )


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


def _resolve_config(cls, args):
    """The config file's fields overlaid with the flags that were given."""
    merged = _load_config_file(args.config, args.command)
    for spec in fields(cls):
        flag = _flag(spec)
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            parse = spec.metadata.get("parse")
            merged[spec.name] = parse(value) if parse else value
        elif spec.name not in merged and spec.default is MISSING:
            raise ConfigError(f"{args.command} needs {flag} (or a config field)")
    return cls.from_dict(merged)


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``; a path that cannot be written
    is a config error, as an unreadable config file is."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _run_command(args) -> int:
    command = _COMMANDS[args.command]
    config = _resolve_config(command.config(), args)
    if args.dump_config:
        _emit(json.dumps({"command": args.command, **config.to_dict()}, indent=2),
              args.output)
        return 0
    result = command.run(config)
    _emit(command.emit(config, result, args.format), args.output)
    command.finish(result, args)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError(parser.format_usage())
        return _run_command(args)
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
