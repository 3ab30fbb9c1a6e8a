"""Config schema of the CLI subcommands, with no numpy.

Every CLI subcommand has one frozen config dataclass built on `_Config`:
the three scalar ones here (``SignTableConfig``, ``OverRotationConfig``
and ``CalibrateConfig``) and the three numeric ones in
`pstlab.experiments`.  Construction coerces each field to its annotated
type (``ConfigError`` names a field that does not fit; a ``PauliLabel``
is also stripped and upper-cased), ``from_dict`` rejects unknown fields,
and ``to_dict`` is ``dataclasses.asdict`` (JSON writes its tuples as
lists).  Each field also declares its command-line flag (`_field`), from
which `pstlab.cli` derives every subcommand's options.  A config then
applies its run's own checks, so a config that cannot run raises
``ConfigError`` with the run's message (`_as_config_error`) before
``--dump-config`` prints it.

This module imports only the standard library, `pstlab.errors` and
`pstlab.sinc_law` (`SignTableConfig` imports `pstlab.pauli` when it is
built), so the scalar commands parse, validate and dump their configs
without loading numpy.
"""

from __future__ import annotations

import contextlib
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

from .errors import ConfigError
from .sinc_law import _check_calibration_domain, over_rotation_factor

__all__ = [
    "CalibrateConfig",
    "OverRotationConfig",
    "SignTableConfig",
]


def _field(default=MISSING, *, flag=None, parse=None, **argparse_kwargs):
    """A config field with its command-line flag declared beside it.

    The flag is ``--`` plus the field name with ``_`` -> ``-`` unless
    ``flag`` renames it; ``parse`` turns the flag's text into the field's
    JSON form (default: the text itself), and ``metavar``, ``help`` and
    ``action`` go to argparse unchanged.
    """
    return field(default=default, metadata={"flag": flag, "parse": parse,
                                            "argparse": argparse_kwargs})


def _split_csv(text: str) -> list[str]:
    return [item for item in text.split(",") if item != ""]


def _parse_error_pairs(entries) -> list:
    pairs = []
    for entry in entries:
        label, equals, value = entry.partition("=")
        if not equals:
            raise ConfigError(f"expected LABEL=AMPLITUDE, got {entry!r}")
        pairs.append([label, value])
    return pairs


def _parse_error_sets(entries) -> list:
    return [_parse_error_pairs(entry.split(";")) for entry in entries]


# A Pauli label field: stripped and upper-cased on coercion, so a flag and
# a config file accept the same spellings.
PauliLabel = typing.NewType("PauliLabel", str)


def _coerce(hint, value):
    """``value`` (a JSON value, or flag text) converted to the type ``hint``.

    Raises TypeError or ValueError if it does not fit.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        if hasattr(value, "items"):
            value = list(value.items())
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}")
        return tuple(_coerce(arg, item) for arg, item in zip(args, value))
    if value is None or isinstance(value, bool):
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    if hint in (str, PauliLabel):
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {value!r}")
        return value.strip().upper() if hint is PauliLabel else value
    if hint is int and isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
    return hint(value)


class _Config:
    """Shared behaviour of the frozen config dataclasses: every field is
    coerced to its annotated type on construction, and a config converts
    to (``asdict``) and from the JSON object its reports echo."""

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for spec in fields(self):
            value = getattr(self, spec.name)
            try:
                object.__setattr__(self, spec.name, _coerce(hints[spec.name], value))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config field {spec.name!r}: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ConfigError(
                f"unknown config fields for {cls.__name__}: {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


@contextlib.contextmanager
def _as_config_error():
    """Re-raise a run's ValueError as a ConfigError, message unchanged."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# The scalar commands' configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTableConfig(_Config):
    qubits: int = _field(2, help="register size (default 2)")

    def __post_init__(self):
        super().__post_init__()
        # Imported here, so that `import pstlab.cli` loads no `pauli`.
        from .pauli import check_qubit_count

        with _as_config_error():
            check_qubit_count(self.qubits)


@dataclass(frozen=True)
class OverRotationConfig(_Config):
    tau: float = _field(help="gate duration (no default)")
    sum_h2: float = _field(
        help="sum of squared anticommuting error amplitudes (no default)"
    )

    def __post_init__(self):
        super().__post_init__()
        with _as_config_error():
            over_rotation_factor(self.tau, self.sum_h2)


@dataclass(frozen=True)
class CalibrateConfig(_Config):
    theta: float = _field(help="target rotation angle (no default)")
    sum_h2: float = _field(
        help="sum of squared anticommuting error amplitudes (no default)"
    )

    def __post_init__(self):
        super().__post_init__()
        with _as_config_error():
            _check_calibration_domain(self.theta, self.sum_h2)
