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
visible).  The one draw is ``magnus-check``'s random error sets, from
``random.Random(seed)``; identical invocations give identical reports
for a given Python.

Each study has a frozen config record on the numpy-free schema of
`pstlab.schema` (field coercion, flags, ``from_dict``/``to_dict``), which
also holds the configs of the three scalar commands.  Construction also
builds the drive, error and noise specs the run would build, so a config
that cannot run raises ``ConfigError`` before anything is dumped or
computed.
"""

from __future__ import annotations

import json
import math
import random
import sys

from .errors import BranchCutError, ConfigError, QuadratureError, ResolutionError
from .liouville import NoiseSpec
from .magnus import (
    CoherentErrorSpec,
    DriveSpec,
    _crosscheck_norms,
    _frame_work,
    anticommuting_sum_h2,
    check_drive_error_compat,
    over_rotation_factor,
)
from .pauli import commutation_sign, enumerate_group, pauli_from_label
from .pst_core import (
    TwirledChannel,
    _check_tau,
    twirled_channels,
)
from .schema import (
    PauliLabel,
    Record,
    _as_config_error,
    _Config,
    _field,
    _parse_error_pairs,
    _parse_error_sets,
    _split_csv,
    asdict,
    field,
)

__all__ = [
    "MagnusCheckConfig",
    "MagnusCheckReport",
    "MagnusCheckRow",
    "ParitySweepConfig",
    "ParitySweepRow",
    "Table1Config",
    "Table1Report",
    "parity_rows_to_csv",
    "run_magnus_crosscheck",
    "run_parity_sweep",
    "run_table1",
]

DEFAULT_ERRORS = (("XX", 0.2), ("YY", 0.6), ("ZZ", 0.2), ("YX", 0.4))
# A channel log carries roundoff of about eps, so a weight read as
# log / tau is off by about eps / tau relative (at most 0.19 eps / tau,
# measured over n = 1..4 drives at tau = 1e-14..1e-4).  Below this tau
# that bound passes 1e-6, and table1 refuses to print the weights.
TABLE1_MIN_TAU = sys.float_info.epsilon / 1e-6
# Random magnus-check amplitudes are drawn from [floor, max_amplitude].
RANDOM_AMPLITUDE_FLOOR = 0.05


def _require_nonempty(config, name: str) -> None:
    if not getattr(config, name):
        raise ConfigError(f"{name} must hold at least one value")


def _require_distinct(name: str, values) -> None:
    """Reject repeated values, compared with ==, so 0.0 and -0.0 are one."""
    seen, repeated = set(), []
    for value in values:
        if value in seen and value not in repeated:
            repeated.append(value)
        seen.add(value)
    if repeated:
        raise ConfigError(f"{name} repeats {repeated}; each value must appear once")


# ---------------------------------------------------------------------------
# Effective-weight table
# ---------------------------------------------------------------------------

class Table1Config(_Config):
    drive: PauliLabel = _field("ZX", help="drive Pauli label (default ZX)")
    tau: float = _field(0.5, help="gate duration (default 0.5)")
    errors: tuple[tuple[PauliLabel, float], ...] = _field(
        DEFAULT_ERRORS, flag="--error", parse=_parse_error_pairs, action="append",
        metavar="LABEL=AMP",
        help="error term, repeatable (default XX=0.2 YY=0.6 ZZ=0.2 YX=0.4)",
    )
    scale: float = _field(1.0, help="global error scale (default 1)")

    def __post_init__(self):
        super().__post_init__()
        with _as_config_error():
            check_drive_error_compat(self.drive_spec(), self.error_spec())
            _check_tau(self.tau)

    def drive_spec(self) -> DriveSpec:
        return DriveSpec.single(self.drive, self.tau)

    def error_spec(self) -> CoherentErrorSpec:
        return CoherentErrorSpec.from_amplitudes(self.errors, self.scale)


class Table1Report(Record):
    """Weight rows keyed by Pauli label, restricted to the error words plus
    the drive word, with and without the twirl ensemble.

    ``twirled`` holds the ensemble channel the twirled row was read from;
    it stays out of comparisons and of the JSON/CSV reports.
    """

    config: Table1Config
    no_pst: dict[str, float]
    pst: dict[str, float]
    theoretical_drive_coeff: float
    agreement_pct: float
    twirled: TwirledChannel = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "no_pst": self.no_pst,
            "pst": self.pst,
            "theoretical_drive_coeff": self.theoretical_drive_coeff,
            "agreement_pct": self.agreement_pct,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        lines = ["word,no_pst,pst"]
        for label in self.no_pst:
            lines.append(f"{label},{self.no_pst[label]!r},{self.pst[label]!r}")
        return "\n".join(lines) + "\n"


def run_table1(config: Table1Config | None = None) -> Table1Report:
    """Compare effective Hamiltonian weights with and without the twirl.

    The untwirled row reads each weight by label off the identity frame's
    term list (scaled errors, then drive; no word repeats), with no
    channel, no log and no rounding, so it is the input amplitudes at
    every tau; the twirled row reads each weight by index off
    `TwirledChannel.weights` of the ensemble channel, the Pauli weights of
    the Hamiltonian part of its principal log, with no 4^n x 4^n array.  The
    twirl zeroes the error words and amplifies the drive weight, which is
    compared against the sinc-law prediction.
    A tau below ``TABLE1_MIN_TAU`` raises ``ResolutionError``: there the
    log's roundoff swamps the weights.  A twirled drive rotation
    2 tau f >= pi, f the sinc law's drive weight, raises ``BranchCutError``
    after the log is accepted: past pi the principal log can only read an
    aliased branch.
    """
    config = config if config is not None else Table1Config()
    drive = config.drive_spec()
    if drive.tau < TABLE1_MIN_TAU:
        raise ResolutionError(
            f"tau={drive.tau!r} is too short: the channel log's roundoff,"
            f" about eps/tau = {sys.float_info.epsilon / drive.tau:.1e} relative,"
            f" cannot resolve the weights (needs tau >= {TABLE1_MIN_TAU:.3g})"
        )
    err = config.error_spec()
    channel = twirled_channels(drive, [err])[0]
    weights = channel.weights().tolist()
    twirled = {word.label: weights[word.index] for word, _ in err.terms + drive.terms}
    untwirled = {word.label: c for word, c in err.scaled_terms() + drive.terms}

    theoretical = over_rotation_factor(drive.tau, anticommuting_sum_h2(drive, err))
    rotation = 2.0 * drive.tau * theoretical
    if rotation >= math.pi:
        raise BranchCutError(
            f"the twirled drive rotates the channel's eigenphases by 2 tau f ="
            f" {rotation:.6g}, past pi: the principal log reads an aliased branch"
            f" beyond its branch cut, so the {config.drive} weight is not the"
            " generator's; reduce tau"
        )
    numeric = twirled[config.drive]
    if numeric == 0:
        raise ResolutionError(
            f"the twirled {config.drive} weight reads {numeric!r}, so its agreement"
            f" with the sinc-law prediction {theoretical!r} is undefined"
        )
    agreement = 100.0 * (1.0 - abs(numeric - theoretical) / numeric)
    return Table1Report(
        config=config,
        no_pst=untwirled,
        pst=twirled,
        theoretical_drive_coeff=theoretical,
        agreement_pct=agreement,
        twirled=channel,
    )


# ---------------------------------------------------------------------------
# Parity sweep
# ---------------------------------------------------------------------------

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
        _require_nonempty(self, "noise_kinds")
        if self.deltas is not None:
            _require_nonempty(self, "deltas")
        if self.delta_points < 1 or self.delta_points % 2 == 0:
            raise ConfigError(
                "delta_points must be odd so the grid mirrors around 0,"
                f" got {self.delta_points}"
            )
        if not 0 < self.delta_max < math.inf:
            raise ConfigError(f"delta_max must be finite and positive, got {self.delta_max}")
        grid = self.delta_grid()
        values = set(grid)
        missing = [d for d in sorted(values) if -d not in values]
        if missing:
            raise ConfigError(
                f"delta grid lacks the mirror of {missing}; the symmetrized"
                " reference needs +-delta pairs"
            )
        infinite = [d for d in grid if not math.isfinite(d)]
        if infinite:
            # delta_max * k / half overflows before it divides where
            # delta_max * (delta_points - 1) / 2 passes the largest double.
            raise ConfigError(f"delta grid holds {infinite}; each delta must be finite")
        _require_distinct("delta grid", grid)
        _require_distinct("noise_kinds", self.noise_kinds)
        with _as_config_error():
            drive = self.drive_spec()
            check_drive_error_compat(drive, self.error_spec(1.0))
            for kind in self.noise_kinds:
                self.noise_spec(kind).resolved_targets(drive.n_qubits)

    def delta_grid(self) -> tuple[float, ...]:
        """Ascending grid containing an exact -delta partner for every delta."""
        if self.deltas is not None:
            return tuple(sorted(self.deltas))
        half = (self.delta_points - 1) // 2
        positives = [self.delta_max * k / half for k in range(1, half + 1)] if half else []
        return tuple([-d for d in reversed(positives)] + [0.0] + positives)

    def drive_spec(self) -> DriveSpec:
        return DriveSpec.single(self.drive, self.tau)

    def error_spec(self, delta: float) -> CoherentErrorSpec:
        return CoherentErrorSpec.from_amplitudes(self.errors, scale=delta)

    def noise_spec(self, kind: str) -> NoiseSpec:
        return NoiseSpec(kind, self.zeta, self.noise_targets)


class ParitySweepRow(Record):
    delta: float
    error: float
    symmetrized: float
    noise_kind: str

    def __post_init__(self):
        if self.error < 0 or self.symmetrized < 0:
            raise ValueError("operator-norm deviations cannot be negative")


def run_parity_sweep(config: ParitySweepConfig | None = None) -> list[ParitySweepRow]:
    """Sweep E(delta) = ||K(delta) - U0||_op per noise kind.

    U0 is the ideal noiseless gate channel, the twirl of the error-free
    drive, so both are `TwirledChannel`s on the cosets of one drive group,
    and E is their `distance`, read off the blocks with no dense channel,
    for the whole grid of a noise kind in one stacked norm.
    Rows are emitted per kind in config order, deltas ascending.
    """
    config = config if config is not None else ParitySweepConfig()
    drive = config.drive_spec()
    grid = config.delta_grid()
    reference = twirled_channels(drive, [CoherentErrorSpec()])[0]
    unscaled = config.error_spec(1.0)
    errors = [unscaled.with_scale(delta) for delta in grid]
    rows: list[ParitySweepRow] = []
    for kind in config.noise_kinds:
        channels = twirled_channels(drive, errors, config.noise_spec(kind))
        deviations = dict(zip(grid, reference.distances(channels)))
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
    seed: int = _field(
        20240, help="seed of the random error sets, drawn with Python's random.Random"
                    " (default 20240)",
    )
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
        for name in ("random_sets", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("tolerance", "omega1_tolerance", "quadrature_tol", "max_evaluations"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not RANDOM_AMPLITUDE_FLOOR <= self.max_amplitude < math.inf:
            raise ConfigError(
                f"max_amplitude must be finite and >= {RANDOM_AMPLITUDE_FLOOR},"
                f" the smallest random amplitude; got {self.max_amplitude}"
            )
        _require_nonempty(self, "taus")
        _require_distinct("taus", self.taus)
        if self.error_sets is not None:
            _require_nonempty(self, "error_sets")
            _require_distinct("error_sets", self.error_sets)
        with _as_config_error():
            drives = [DriveSpec.single(self.drive, tau) for tau in self.taus]
            for pairs in self.resolved_error_sets():
                check_drive_error_compat(drives[0], CoherentErrorSpec.from_amplitudes(pairs))

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
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        size = rng.randint(2, min(4, len(pool)))
        chosen = rng.sample(range(len(pool)), size)
        sets.append(tuple(
            (pool[i], rng.uniform(RANDOM_AMPLITUDE_FLOOR, max_amplitude)) for i in chosen
        ))
    return tuple(sets)


class MagnusCheckRow(Record):
    tau: float
    errors: tuple[tuple[str, float], ...]
    discrepancy: float | None
    omega1_norm: float | None
    within_tolerance: bool
    note: str = ""


class MagnusCheckReport(Record):
    config: MagnusCheckConfig
    rows: tuple[MagnusCheckRow, ...]

    @property
    def all_within_tolerance(self) -> bool:
        return all(row.within_tolerance for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [asdict(row) for row in self.rows],
            "all_within_tolerance": self.all_within_tolerance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

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

    Quadrature convergence failures and values that overflow
    (``ResolutionError``) are recorded in the row's note and the run
    continues.
    """
    config = config if config is not None else MagnusCheckConfig()
    # The frame work of a set does not depend on tau: built once, reweighted per row.
    drive = DriveSpec.single(config.drive, config.taus[0])
    specs = [(pairs, CoherentErrorSpec.from_amplitudes(pairs))
             for pairs in config.resolved_error_sets()]
    works = [_frame_work(drive, err, None) for _, err in specs]
    rows = []
    for tau in config.taus:
        for (pairs, err), work in zip(specs, works):
            try:
                discrepancy, omega1_norm = _crosscheck_norms(
                    work, DriveSpec.single(config.drive, tau), err, config.quadrature_tol,
                    config.max_evaluations)
                note = ""
            except (QuadratureError, ResolutionError) as exc:
                discrepancy = omega1_norm = None
                note = str(exc)
            within = (discrepancy is not None and discrepancy <= config.tolerance
                      and omega1_norm <= config.omega1_tolerance)
            rows.append(MagnusCheckRow(tau, pairs, discrepancy, omega1_norm, within, note))
    return MagnusCheckReport(config=config, rows=tuple(rows))
