"""Scripted experiment drivers emitting machine-readable reports.

Three reproducible studies, each fully determined by its config (which is
echoed inline in every report so a report file alone can reproduce the
run):

* ``run_table1``      effective Hamiltonian weights with and without the
                      twirl ensemble, against the sinc-law prediction;
* ``run_parity_sweep``  channel deviation E(delta) over a symmetric grid
                      of error strengths, per noise kind, with the
                      symmetrized reference (1/2)(E(delta) + E(-delta));
* ``run_magnus_crosscheck``  quadrature vs closed-form second-order terms
                      plus first-order cancellation norms, across
                      durations and error sets.

Default parameters: a ZX drive with duration 0.5 and error amplitudes
XX 0.2, YY 0.6, ZZ 0.2, YX 0.4 for the weight table; duration 2.5 and
rate 3 for the parity sweep (extreme decay makes the damping asymmetry
visible).  No sampling anywhere; reports are bit-identical across runs.

Every CLI subcommand has one frozen config dataclass here, the three
above plus ``SignTableConfig``, ``OverRotationConfig`` and
``CalibrateConfig`` for the scalar commands.  Construction coerces each
field to its annotated type (``ConfigError`` names a field that does not
fit; a ``PauliLabel`` is also stripped and upper-cased), ``from_dict``
rejects unknown fields, and ``to_dict`` gives the JSON form, tuples as
lists.  Each field also declares its command-line flag, from which
``pstlab.cli`` derives every subcommand's options.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, QuadratureError
from .liouville import NOISE_KINDS, NoiseSpec
from .magnus import (
    CoherentErrorSpec,
    DriveSpec,
    anticommuting_sum_h2,
    omega1_avg,
    omega2_avg,
    omega2_avg_closed,
    over_rotation_factor,
)
from .numerics import expm, op_norm
from .pauli import commutation_sign, enumerate_group, identity_string, pauli_from_label
from .pst_core import effective_generator, ideal_channel, pst_channel, pst_realization

__all__ = [
    "CalibrateConfig",
    "MagnusCheckConfig",
    "MagnusCheckReport",
    "MagnusCheckRow",
    "OverRotationConfig",
    "ParitySweepConfig",
    "ParitySweepRow",
    "SignTableConfig",
    "Table1Config",
    "Table1Report",
    "parity_rows_to_csv",
    "run_magnus_crosscheck",
    "run_parity_sweep",
    "run_table1",
]

DEFAULT_ERRORS = (("XX", 0.2), ("YY", 0.6), ("ZZ", 0.2), ("YX", 0.4))
# Random magnus-check amplitudes are drawn from [floor, max_amplitude].
RANDOM_AMPLITUDE_FLOOR = 0.05


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

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


def _plain(value):
    return [_plain(item) for item in value] if isinstance(value, tuple) else value


class _Config:
    """Shared behaviour of the frozen config dataclasses: every field is
    coerced to its annotated type on construction, and a config converts
    to and from the JSON object its reports echo."""

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for spec in fields(self):
            value = getattr(self, spec.name)
            try:
                object.__setattr__(self, spec.name, _coerce(hints[spec.name], value))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config field {spec.name!r}: {exc}") from None

    def to_dict(self) -> dict:
        return {spec.name: _plain(getattr(self, spec.name)) for spec in fields(self)}

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


# ---------------------------------------------------------------------------
# Effective-weight table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Config(_Config):
    drive: PauliLabel = _field("ZX", help="drive Pauli label (default ZX)")
    tau: float = _field(0.5, help="gate duration (default 0.5)")
    errors: tuple[tuple[PauliLabel, float], ...] = _field(
        DEFAULT_ERRORS, flag="--error", parse=_parse_error_pairs, action="append",
        metavar="LABEL=AMP",
        help="error term, repeatable (default XX=0.2 YY=0.6 ZZ=0.2 YX=0.4)",
    )
    scale: float = _field(1.0, help="global error scale (default 1)")

    def drive_spec(self) -> DriveSpec:
        return DriveSpec.single(self.drive, self.tau)

    def error_spec(self) -> CoherentErrorSpec:
        return CoherentErrorSpec.from_amplitudes(self.errors, self.scale)


@dataclass(frozen=True)
class Table1Report:
    """Weight rows keyed by Pauli label, restricted to the error words plus
    the drive word, with and without the twirl ensemble.

    ``channel`` is the ensemble channel the twirled row was read from; it
    stays out of comparisons and of the JSON/CSV reports.
    """

    config: Table1Config
    no_pst: dict[str, float]
    pst: dict[str, float]
    theoretical_drive_coeff: float
    agreement_pct: float
    channel: np.ndarray = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "no_pst": self.no_pst,
            "pst": self.pst,
            "theoretical_drive_coeff": self.theoretical_drive_coeff,
            "agreement_pct": self.agreement_pct,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["word,no_pst,pst"]
        for label in self.no_pst:
            lines.append(f"{label},{self.no_pst[label]!r},{self.pst[label]!r}")
        return "\n".join(lines) + "\n"


def run_table1(config: Table1Config | None = None) -> Table1Report:
    """Compare effective Hamiltonian weights with and without the twirl.

    The untwirled row reads the weights straight off the exponential of
    the raw generator (identity frame only) and reproduces the input
    amplitudes; the twirled row zeroes the error words and amplifies the
    drive weight, which is compared against the sinc-law prediction.
    """
    config = config if config is not None else Table1Config()
    drive = config.drive_spec()
    err = config.error_spec()
    labels = [label for label, _ in config.errors] + [config.drive]

    raw = pst_realization(drive, err, NoiseSpec(), identity_string(drive.n_qubits))
    no_pst_eff = effective_generator(expm(raw), drive.tau)
    channel = pst_channel(drive, err, NoiseSpec())
    pst_eff = effective_generator(channel, drive.tau)

    theoretical = over_rotation_factor(drive.tau, anticommuting_sum_h2(drive, err))
    numeric = pst_eff.coefficient(config.drive)
    agreement = 100.0 * (1.0 - abs(numeric - theoretical) / numeric)
    return Table1Report(
        config=config,
        no_pst={label: no_pst_eff.coefficient(label) for label in labels},
        pst={label: pst_eff.coefficient(label) for label in labels},
        theoretical_drive_coeff=theoretical,
        agreement_pct=agreement,
        channel=channel,
    )


# ---------------------------------------------------------------------------
# Parity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParitySweepConfig(_Config):
    drive: PauliLabel = _field("ZX", help="drive Pauli label (default ZX)")
    tau: float = _field(2.5, help="gate duration (default 2.5)")
    errors: tuple[tuple[PauliLabel, float], ...] = _field(
        DEFAULT_ERRORS, flag="--error", parse=_parse_error_pairs, action="append",
        metavar="LABEL=AMP",
        help="error term at delta = 1, repeatable"
             " (default XX=0.2 YY=0.6 ZZ=0.2 YX=0.4)",
    )
    zeta: float = _field(3.0, help="noise rate (default 3)")
    noise_kinds: tuple[str, ...] = _field(
        ("pauli_z", "amplitude_damping"), parse=_split_csv, metavar="KIND[,KIND...]",
        help="default pauli_z,amplitude_damping",
    )
    noise_targets: tuple[int, ...] | None = _field(
        None, parse=_split_csv, metavar="Q[,Q...]",
        help="qubit indices carrying the noise (default all)",
    )
    delta_max: float = _field(1.0, help="largest |delta| of the grid (default 1)")
    delta_points: int = _field(41, help="odd number of grid points (default 41)")
    deltas: tuple[float, ...] | None = _field(
        None, parse=_split_csv, metavar="D[,D...]",
        help="explicit grid; must contain every -delta partner"
             " (default: --delta-max and --delta-points)",
    )

    def __post_init__(self):
        super().__post_init__()
        for kind in self.noise_kinds:
            if kind not in NOISE_KINDS:
                raise ConfigError(f"unknown noise kind {kind!r}")
        if self.deltas is None:
            if self.delta_points < 1 or self.delta_points % 2 == 0:
                raise ConfigError(
                    "delta_points must be odd so the grid mirrors around 0,"
                    f" got {self.delta_points}"
                )
            if not self.delta_max > 0:
                raise ConfigError(f"delta_max must be positive, got {self.delta_max}")

    def delta_grid(self) -> tuple[float, ...]:
        """Ascending grid containing an exact -delta partner for every delta."""
        if self.deltas is not None:
            grid = sorted(self.deltas)
            values = set(grid)
            missing = [d for d in grid if -d not in values]
            if missing:
                raise ConfigError(
                    f"delta grid lacks the mirror of {missing}; the symmetrized"
                    " reference needs +-delta pairs"
                )
            return tuple(grid)
        half = (self.delta_points - 1) // 2
        positives = [self.delta_max * k / half for k in range(1, half + 1)] if half else []
        return tuple([-d for d in reversed(positives)] + [0.0] + positives)

    def drive_spec(self) -> DriveSpec:
        return DriveSpec.single(self.drive, self.tau)

    def error_spec(self, delta: float) -> CoherentErrorSpec:
        return CoherentErrorSpec.from_amplitudes(self.errors, scale=delta)

    def noise_spec(self, kind: str) -> NoiseSpec:
        return NoiseSpec(kind, self.zeta if kind != "none" else 0.0, self.noise_targets)


@dataclass(frozen=True)
class ParitySweepRow:
    delta: float
    error: float
    symmetrized: float
    noise_kind: str

    def __post_init__(self):
        if self.error < 0 or self.symmetrized < 0:
            raise ValueError("operator-norm deviations cannot be negative")


def run_parity_sweep(config: ParitySweepConfig | None = None) -> list[ParitySweepRow]:
    """Sweep E(delta) = ||K(delta) - U0||_op per noise kind.

    U0 is the ideal noiseless gate channel.  Rows are emitted per kind in
    config order, deltas ascending.
    """
    config = config if config is not None else ParitySweepConfig()
    drive = config.drive_spec()
    grid = config.delta_grid()
    reference = ideal_channel(drive)
    rows: list[ParitySweepRow] = []
    for kind in config.noise_kinds:
        noise = config.noise_spec(kind)
        deviations = {
            delta: op_norm(pst_channel(drive, config.error_spec(delta), noise) - reference)
            for delta in grid
        }
        for delta in grid:
            rows.append(
                ParitySweepRow(
                    delta=delta,
                    error=deviations[delta],
                    symmetrized=0.5 * (deviations[delta] + deviations[-delta]),
                    noise_kind=kind,
                )
            )
    return rows


def parity_rows_to_csv(rows: list[ParitySweepRow]) -> str:
    """CSV with shortest round-trip float formatting and LF line endings."""
    lines = ["delta,error,symmetrized,noise_kind"]
    for row in rows:
        lines.append(f"{row.delta!r},{row.error!r},{row.symmetrized!r},{row.noise_kind}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Second-order crosscheck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagnusCheckConfig(_Config):
    drive: PauliLabel = _field("ZX", help="drive Pauli label (default ZX)")
    taus: tuple[float, ...] = _field(
        (0.3, 0.5, 1.0), parse=_split_csv, metavar="T[,T...]",
        help="default 0.3,0.5,1.0",
    )
    error_sets: tuple[tuple[tuple[PauliLabel, float], ...], ...] | None = _field(
        None, flag="--error-set", parse=_parse_error_sets, action="append",
        metavar="L=A[;L=A...]",
        help="explicit error set, repeatable; replaces the defaults",
    )
    random_sets: int = _field(
        5, help="seeded random anticommuting error sets run after the default"
                " set, unless --error-set is given (default 5)",
    )
    seed: int = _field(20240, help="seed of the random error sets (default 20240)")
    max_amplitude: float = _field(
        0.6, help="largest random error amplitude (default 0.6)"
    )
    tolerance: float = _field(
        1e-6, help="allowed quadrature/closed-form discrepancy (default 1e-6)"
    )
    omega1_tolerance: float = _field(
        1e-9, help="allowed first-order cancellation norm (default 1e-9)"
    )
    quadrature_tol: float = _field(
        1e-9, flag="--quad-tolerance",
        help="refinement tolerance on the scalar trig kernels,"
             " integrated once per tau (default 1e-9)",
    )
    max_evaluations: int = _field(
        2**20, help="evaluations allowed to each kernel quadrature (default 2^20)"
    )

    def __post_init__(self):
        super().__post_init__()
        if self.random_sets < 0:
            raise ConfigError("random_sets must be >= 0")
        for name in ("tolerance", "omega1_tolerance", "quadrature_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not RANDOM_AMPLITUDE_FLOOR <= self.max_amplitude < math.inf:
            raise ConfigError(
                f"max_amplitude must be finite and >= {RANDOM_AMPLITUDE_FLOOR},"
                f" the smallest random amplitude; got {self.max_amplitude}"
            )

    def resolved_error_sets(self) -> tuple[tuple[tuple[str, float], ...], ...]:
        """Explicit sets if given, else the default amplitudes plus seeded
        random anticommuting sets (deterministic for a fixed seed)."""
        if self.error_sets is not None:
            return self.error_sets
        return (DEFAULT_ERRORS,) + _random_anticommuting_sets(
            self.drive, self.random_sets, self.seed, self.max_amplitude
        )


def _random_anticommuting_sets(drive_label: str, count: int, seed: int,
                               max_amplitude: float):
    """Seeded error sets drawn from the words anticommuting with the drive."""
    beta = pauli_from_label(drive_label)
    pool = [
        word.label
        for word in enumerate_group(beta.n_qubits)
        if commutation_sign(word, beta) == -1
    ]
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        size = int(rng.integers(2, min(4, len(pool)) + 1))
        chosen = rng.choice(len(pool), size=size, replace=False)
        amplitudes = rng.uniform(RANDOM_AMPLITUDE_FLOOR, max_amplitude, size=size)
        sets.append(
            tuple((pool[int(i)], float(a)) for i, a in zip(chosen, amplitudes))
        )
    return tuple(sets)


@dataclass(frozen=True)
class MagnusCheckRow:
    tau: float
    errors: tuple[tuple[str, float], ...]
    discrepancy: float | None
    omega1_norm: float | None
    within_tolerance: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "errors": [list(pair) for pair in self.errors],
            "discrepancy": self.discrepancy,
            "omega1_norm": self.omega1_norm,
            "within_tolerance": self.within_tolerance,
            "note": self.note,
        }


@dataclass(frozen=True)
class MagnusCheckReport:
    config: MagnusCheckConfig
    rows: tuple[MagnusCheckRow, ...]

    @property
    def all_within_tolerance(self) -> bool:
        return all(row.within_tolerance for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [row.to_json_dict() for row in self.rows],
            "all_within_tolerance": self.all_within_tolerance,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["tau,errors,discrepancy,omega1_norm,within_tolerance,note"]
        for row in self.rows:
            errors = ";".join(f"{label}={value!r}" for label, value in row.errors)
            disc = "" if row.discrepancy is None else repr(row.discrepancy)
            omega1 = "" if row.omega1_norm is None else repr(row.omega1_norm)
            lines.append(
                f"{row.tau!r},{errors},{disc},{omega1},{row.within_tolerance},{row.note}"
            )
        return "\n".join(lines) + "\n"


def run_magnus_crosscheck(config: MagnusCheckConfig | None = None) -> MagnusCheckReport:
    """Compare the quadrature and closed-form second-order averages, and
    record the first-order cancellation norm, per (tau, error set) pair.

    Quadrature convergence failures are recorded in the row's note and the
    run continues.
    """
    config = config if config is not None else MagnusCheckConfig()
    rows = []
    for tau in config.taus:
        drive = DriveSpec.single(config.drive, tau)
        for pairs in config.resolved_error_sets():
            err = CoherentErrorSpec.from_amplitudes(pairs)
            try:
                averaged = omega2_avg(drive, err, config.quadrature_tol,
                                      config.max_evaluations)
                closed = omega2_avg_closed(drive, err)
                discrepancy = float(np.linalg.norm(averaged - closed))
                omega1_norm = float(np.linalg.norm(omega1_avg(
                    drive, err, config.quadrature_tol, config.max_evaluations
                )))
                rows.append(
                    MagnusCheckRow(
                        tau=tau,
                        errors=pairs,
                        discrepancy=discrepancy,
                        omega1_norm=omega1_norm,
                        within_tolerance=(
                            discrepancy <= config.tolerance
                            and omega1_norm <= config.omega1_tolerance
                        ),
                    )
                )
            except QuadratureError as exc:
                rows.append(
                    MagnusCheckRow(
                        tau=tau,
                        errors=pairs,
                        discrepancy=None,
                        omega1_norm=None,
                        within_tolerance=False,
                        note=str(exc),
                    )
                )
    return MagnusCheckReport(config=config, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Scalar commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignTableConfig(_Config):
    qubits: int = _field(2, help="register size (default 2)")


@dataclass(frozen=True)
class OverRotationConfig(_Config):
    tau: float = _field(help="gate duration (no default)")
    sum_h2: float = _field(
        help="sum of squared anticommuting error amplitudes (no default)"
    )


@dataclass(frozen=True)
class CalibrateConfig(_Config):
    theta: float = _field(help="target rotation angle (no default)")
    sum_h2: float = _field(
        help="sum of squared anticommuting error amplitudes (no default)"
    )
