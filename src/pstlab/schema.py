"""Config schema of the CLI subcommands, and the frozen record base of
pstlab's value types, with no numpy.

`Record` declares a frozen value type from its string annotations, as a
frozen dataclass would, but from one shared set of methods: it compiles
no code when a class is created, so importing pstlab loads neither
`dataclasses` nor the `inspect` it pulls in.  Positional and keyword
construction, ``__post_init__``, the refused assignment, equality, hash
and repr over the fields (``field(compare=False, repr=False)`` opts one
out), ``eq=False`` for identity comparison, `fields` and `asdict` behave
as their `dataclasses` namesakes do.

Every CLI subcommand has one frozen config record built on `_Config`:
the three scalar ones here (``SignTableConfig``, ``OverRotationConfig``
and ``CalibrateConfig``) and the three numeric ones in
`pstlab.experiments`.  Construction coerces each field to its annotated
type (``ConfigError`` names a field that does not fit; a ``PauliLabel``
is also stripped and upper-cased), ``from_dict`` rejects unknown fields,
and ``to_dict`` is `asdict` (JSON writes its tuples as lists).  Each
field also declares its command-line flag (`_field`), from which
`pstlab.cli` derives every subcommand's options.  A config then applies
its run's own checks, so a config that cannot run raises ``ConfigError``
with the run's message (`_as_config_error`) before ``--dump-config``
prints it.

This module imports only the standard library, `pstlab.errors` and
`pstlab.sinc_law` (`SignTableConfig` imports `pstlab.pauli` when it is
built), so the scalar commands parse, validate and dump their configs
without loading numpy.
"""

from __future__ import annotations

import contextlib
import operator
import types
import typing

from .errors import ConfigError
from .sinc_law import _check_calibration_domain, over_rotation_factor

__all__ = [
    "CalibrateConfig",
    "OverRotationConfig",
    "SignTableConfig",
]


MISSING = object()  # the default of a field that has none


class field:
    """A `Record` field, assigned as the annotated name's value to give it
    options: its default (`MISSING` if none), whether equality, hash and
    repr include it, and read-only metadata.  `fields` lists them, named."""

    __slots__ = ("name", "default", "compare", "repr", "metadata")

    def __init__(self, default=MISSING, *, compare=True, repr=True, metadata=None):
        self.name = None
        self.default = default
        self.compare = compare
        self.repr = repr
        self.metadata = types.MappingProxyType(metadata or {})


def fields(record) -> tuple[field, ...]:
    """The fields of a record class or instance, the base's first."""
    return record.__record_fields__


def asdict(record) -> dict:
    """A record's fields by name, with records inside it (in tuples and
    lists too) converted the same way; unlike `dataclasses.asdict`, other
    values are returned as they are, not deep-copied."""
    return {spec.name: _plain(getattr(record, spec.name)) for spec in fields(record)}


def _plain(value):
    if isinstance(value, Record):
        return asdict(value)
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(item) for item in value)
    return value


def _quoted(names: list[str]) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as Python's own call errors
    list missing arguments."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


class Record:
    """Base of a frozen value type whose fields are the subclass's own
    annotations, in order, after the fields of its record bases.

    A field's default is the value assigned to its name, or a `field`
    carrying it.  ``class C(Record, eq=False)`` compares and hashes by
    identity, for types that hold arrays.  The methods here mirror what
    ``@dataclass(frozen=True)`` generates, error messages included.
    """

    __record_fields__ = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        specs = {spec.name: spec for spec in cls.__record_fields__}
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, MISSING)
            if not isinstance(spec, field):
                spec = field(spec)
            spec.name = name
            if spec.default is not MISSING:
                setattr(cls, name, spec.default)
            elif name in cls.__dict__:
                delattr(cls, name)
            specs[name] = spec
        cls.__record_fields__ = tuple(specs.values())
        cls._record_names = tuple(specs)
        cls._record_defaults = {
            spec.name: spec.default for spec in specs.values() if spec.default is not MISSING
        }
        keys = tuple(spec.name for spec in specs.values() if spec.compare)
        cls._record_key = staticmethod(
            operator.attrgetter(*keys) if len(keys) > 1
            else lambda record: tuple(getattr(record, key) for key in keys)
        )
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names = self._record_names
        if kwargs or len(args) != len(names):
            args = self._record_bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    @classmethod
    def _record_bind(cls, args, kwargs) -> list:
        """The field values of a call, defaults filled in, or the TypeError
        Python raises for the same call of a generated ``__init__``."""
        names, defaults = cls._record_names, cls._record_defaults
        where = f"{cls.__qualname__}.__init__()"
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        if len(args) > len(names):
            least = len(names) - len(defaults) + 1
            span = f"from {least} to {len(names) + 1}" if defaults else len(names) + 1
            raise TypeError(f"{where} takes {span} positional arguments"
                            f" but {len(args) + 1} were given")
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(f"{where} missing {len(missing)} required positional"
                            f" argument{plural}: {_quoted(missing)}")
        return [values[name] if name in values else defaults[name] for name in names]

    def __post_init__(self):
        """Checks and normalizes the fields once they are set; a subclass
        assigns a normalized value with ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._record_key(self) == self._record_key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._record_key(self))

    def __repr__(self):
        shown = ", ".join(f"{spec.name}={getattr(self, spec.name)!r}"
                          for spec in self.__record_fields__ if spec.repr)
        return f"{type(self).__qualname__}({shown})"


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


class _Config(Record):
    """Shared behaviour of the frozen config records: every field is
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

class SignTableConfig(_Config):
    qubits: int = _field(2, help="register size (default 2)")

    def __post_init__(self):
        super().__post_init__()
        # Imported here, so that `import pstlab.cli` loads no `pauli`.
        from .pauli import check_qubit_count

        with _as_config_error():
            check_qubit_count(self.qubits)


class OverRotationConfig(_Config):
    tau: float = _field(help="gate duration (no default)")
    sum_h2: float = _field(
        help="sum of squared anticommuting error amplitudes (no default)"
    )

    def __post_init__(self):
        super().__post_init__()
        with _as_config_error():
            over_rotation_factor(self.tau, self.sum_h2)


class CalibrateConfig(_Config):
    theta: float = _field(help="target rotation angle (no default)")
    sum_h2: float = _field(
        help="sum of squared anticommuting error amplitudes (no default)"
    )

    def __post_init__(self):
        super().__post_init__()
        with _as_config_error():
            _check_calibration_domain(self.theta, self.sum_h2)
