"""Benchmark workloads: seeded pstlab invocations and their correctness gates.

Each workload turns the benchmark seed into explicit CLI arguments, so the
program only ever sees generated inputs, and pairs every invocation with a
gate that holds for any seed.  NOTES.md says why each workload exists.

Standard library only: the benchmark parent process never imports numpy, so
the BLAS thread pins it sets reach every interpreter that does.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

CALIBRATION_RESIDUAL_MAX = 1e-12
TWIRLED_ERROR_WEIGHT_MAX = 1e-3
AGREEMENT_PCT_MIN = 99.0
PARITY_ROWS = 82
PAULI_Z_ASYMMETRY_MAX = 1e-10
DAMPING_ASYMMETRY_MIN = 5e-3


class GateError(Exception):
    """A report is wrong for its inputs."""


@dataclass(frozen=True)
class Invocation:
    """One `pstlab` call: its arguments and the gate its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _over_rotation_factor(tau: float, sum_h2: float) -> float:
    x = 2.0 * tau
    sinc = math.sin(x) / x if x else 1.0
    return 1.0 + (1.0 - sinc) / 2.0 * sum_h2


def check_overrotation_default(text: str) -> None:
    _require(text.strip() == "1.019023", f"overrotation printed {text.strip()!r}")


def check_calibrate(theta: float, sum_h2: float) -> Callable[[str], None]:
    def check(text: str) -> None:
        report = json.loads(text)
        _require(report["theta"] == theta and report["sum_h2"] == sum_h2,
                 "calibrate echoed other inputs")
        tau = report["tau"]
        residual = abs(tau * _over_rotation_factor(tau, sum_h2) - theta / 2.0)
        _require(residual <= CALIBRATION_RESIDUAL_MAX,
                 f"calibration residual {residual:.3e}")
    return check


_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _symplectic_sign(a: str, b: str) -> int:
    parity = 0
    for la, lb in zip(a, b):
        (xa, za), (xb, zb) = _PAULI_BITS[la], _PAULI_BITS[lb]
        parity ^= (xa & zb) ^ (za & xb)
    return -1 if parity else 1


def check_sign_table(qubits: int) -> Callable[[str], None]:
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=qubits)]
    expected = [["label", *labels]] + [
        [a, *(str(_symplectic_sign(a, b)) for b in labels)] for a in labels
    ]

    def check(text: str) -> None:
        _require(list(csv.reader(io.StringIO(text))) == expected,
                 "sign table differs from the symplectic recomputation")
    return check


def check_table1(errors: tuple[tuple[str, float], ...]) -> Callable[[str], None]:
    def check(text: str) -> None:
        report = json.loads(text)
        _require([tuple(pair) for pair in report["config"]["errors"]] == list(errors),
                 "table1 echoed other error terms")
        worst = max(abs(report["pst"][word]) for word, _ in errors)
        _require(worst <= TWIRLED_ERROR_WEIGHT_MAX,
                 f"twirled error weight {worst:.3e}")
        agreement = report["agreement_pct"]
        _require(agreement >= AGREEMENT_PCT_MIN, f"agreement {agreement:.3f}%")
    return check


def check_parity_sweep(text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == PARITY_ROWS, f"{len(rows)} parity rows")
    deviations: dict[str, dict[float, float]] = {}
    for row in rows:
        deviations.setdefault(row["noise_kind"], {})[float(row["delta"])] = float(row["error"])

    def asymmetry(kind: str) -> float:
        data = deviations[kind]
        return max(abs(data[d] - data[-d]) for d in data)

    pauli_z = asymmetry("pauli_z")
    damping = asymmetry("amplitude_damping")
    _require(pauli_z <= PAULI_Z_ASYMMETRY_MAX, f"pauli_z asymmetry {pauli_z:.3e}")
    _require(damping >= DAMPING_ASYMMETRY_MIN, f"damping asymmetry {damping:.3e}")


def check_magnus(text: str) -> None:
    _require(json.loads(text)["all_within_tolerance"] is True,
             "magnus-check rows outside tolerance")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def cli_quick(seed: int) -> list[Invocation]:
    """Four cheap calls dominated by interpreter start, imports and argparse."""
    rng = _rng("cli-quick", seed)
    theta = round(rng.uniform(0.2, math.pi), 6)
    sum_h2 = round(rng.uniform(0.0, 0.6), 6)
    return [
        Invocation(("overrotation", "--tau", "0.5", "--sum-h2", "0.24"),
                   check_overrotation_default),
        Invocation(("calibrate", "--theta", repr(theta), "--sum-h2", repr(sum_h2),
                    "--format", "json"),
                   check_calibrate(theta, sum_h2)),
        Invocation(("sign-table", "--qubits", "2"), check_sign_table(2)),
        Invocation(("table1",), check_table1(
            (("XX", 0.2), ("YY", 0.6), ("ZZ", 0.2), ("YX", 0.4)))),
    ]


def parity_sweep(seed: int) -> list[Invocation]:
    """The default sweep: 82 noisy n=2 ensemble channels plus op_norm."""
    del seed  # the default grid is the workload; its gates are seed-free
    return [Invocation(("parity-sweep",), check_parity_sweep)]


def magnus_check(seed: int) -> list[Invocation]:
    """Triangle quadrature of 16x16 commutators over seeded error sets."""
    # numpy seeds must be non-negative; the benchmark seed may not be.
    return [Invocation(("magnus-check", "--seed", str(seed % 2**32)), check_magnus)]


N4_DRIVE = "ZXII"
# The sinc law is second order in the error amplitudes.  Four words of up to
# 0.35 keep the anticommuting sum h^2 <= 0.49, where it agrees with the
# ensemble to better than 1%; at 0.6 the sum can pass 0.9 and the agreement
# falls below the 99% gate through the truncation alone.
AMPLITUDE_MAX = 0.35


def table1_n4(seed: int) -> list[Invocation]:
    """One 4-qubit ensemble channel: 256 frames of 256x256 expm, then logm."""
    rng = _rng("table1-n4", seed)
    pool = ["".join(p) for p in itertools.product("IXYZ", repeat=4)][1:]
    pool.remove(N4_DRIVE)
    words = rng.sample(pool, 4)
    errors = tuple((word, round(rng.uniform(0.05, AMPLITUDE_MAX), 3)) for word in words)
    argv = ["table1", "--drive", N4_DRIVE]
    for word, amplitude in errors:
        argv += ["--error", f"{word}={amplitude!r}"]
    return [Invocation(tuple(argv), check_table1(errors))]


WORKLOADS: dict[str, Callable[[int], list[Invocation]]] = {
    "cli-quick": cli_quick,
    "parity-sweep": parity_sweep,
    "magnus-check": magnus_check,
    "table1-n4": table1_n4,
}
