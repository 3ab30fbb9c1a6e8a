#!/usr/bin/env python3
"""Compare pstlab's reports from two source trees, byte for byte.

    python tools/compare_reports.py OLD_TREE NEW_TREE [NAME ...]

Each tree is a checkout holding ``src/pstlab``.  Every named invocation
(default: all of ``INVOCATIONS``) runs once per tree, as
``python -m pstlab ...`` with ``PYTHONPATH=<tree>/src`` and one BLAS
thread, in a fresh working directory.  Its stdout, stderr, exit code and
any ``--dump-channel`` file must match byte for byte.  Where a JSON or
CSV report differs, the largest absolute difference between its numbers
is printed too.  Exits 0 if every invocation matches, 1 if any differs
and 2 on bad arguments.  Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# "{dump}" stands for a file in the run's working directory; its contents
# are compared along with the streams.
DUMP = "{dump}"

_N4_TABLES = {
    # The table1-n4 benchmark workload at seeds 0-4.
    "table1-n4-seed0": "ZZZI=0.314 ZYIZ=0.264 XXXX=0.238 ZZXZ=0.306",
    "table1-n4-seed1": "ZZXZ=0.289 YXXX=0.241 IZZZ=0.122 IYXX=0.286",
    "table1-n4-seed2": "XIZX=0.156 YZXI=0.339 IIXX=0.232 IZZI=0.08",
    "table1-n4-seed3": "ZIYZ=0.272 ZZZZ=0.195 XYXZ=0.334 YYYX=0.117",
    "table1-n4-seed4": "ZIYI=0.186 IIIZ=0.175 XZZZ=0.181 IZXZ=0.11",
}

INVOCATIONS: dict[str, tuple[str, ...]] = {
    "table1-json": ("table1",),
    "table1-csv": ("table1", "--format", "csv"),
    "table1-one-qubit": ("table1", "--drive", "X", "--error", "Z=0.3", "--tau", "0.9"),
    "table1-branch-cut": ("table1", "--tau", "3.0"),
    **{name: ("table1", "--drive", "ZXII",
              *(arg for pair in errors.split() for arg in ("--error", pair)))
       for name, errors in _N4_TABLES.items()},
    "table1-n4-tau": ("table1", "--drive", "XYZI", "--error", "ZZZZ=0.3",
                      "--error", "IXYI=0.2", "--tau", "0.7"),
    "table1-n4-scale": ("table1", "--drive", "ZZZZ", "--error", "XIII=0.25",
                        "--error", "IYZX=0.1", "--scale", "-1.5"),
    "table1-dump-channel": ("table1", "--dump-channel", DUMP),
    # The inverse Pauli-transfer change of basis at 256 x 256.
    "table1-n4-dump-channel": ("table1", "--drive", "ZXII", "--error", "XXII=0.2",
                               "--dump-channel", DUMP),
    # The drive rotation 2 tau f passes pi: the log is an aliased branch.
    "table1-aliased": ("table1", "--drive", "X", "--error", "Z=0.1",
                       "--tau", "1.5707963267948966"),
    "parity-sweep-csv": ("parity-sweep",),
    "parity-sweep-json": ("parity-sweep", "--format", "json"),
    "parity-sweep-3q": ("parity-sweep", "--drive", "ZXY", "--error", "XXY=0.2",
                        "--error", "YZI=0.6", "--error", "IIZ=0.1", "--delta-points", "9",
                        "--noise-kinds", "none,pauli_z,amplitude_damping"),
    # The noise generator's Kronecker sum at n = 4.
    "parity-sweep-n4": ("parity-sweep", "--drive", "ZXII", "--error", "XXII=0.2",
                        "--error", "IYZX=0.1", "--delta-points", "3"),
    "parity-sweep-none": ("parity-sweep", "--noise-kinds", "none", "--delta-points", "9"),
    "parity-sweep-none-5e7": ("parity-sweep", "--noise-kinds", "none",
                              "--delta-points", "3", "--delta-max", "5e7"),
    "parity-sweep-overflow": ("parity-sweep", "--delta-points", "3", "--delta-max", "1e20"),
    "parity-sweep-refusal": ("parity-sweep", "--delta-points", "3", "--delta-max", "1e17"),
    "parity-sweep-zeta-1e14": ("parity-sweep", "--zeta", "1e14", "--delta-points", "3"),
    # Noise on two of three qubits at a moderate rate, both kinds.
    "parity-sweep-3q-two-targets": ("parity-sweep", "--drive", "ZXY", "--error", "XXI=0.2",
                                    "--error", "IYZ=0.3", "--noise-targets", "0,2",
                                    "--zeta", "1.5", "--delta-points", "5"),
    # A noise rate whose generator overflows, on every qubit and on one.
    "parity-sweep-zeta-1e308": ("parity-sweep", "--zeta", "1e308", "--delta-points", "3"),
    "parity-sweep-zeta-1e308-one-target": ("parity-sweep", "--zeta", "1e308",
                                           "--delta-points", "3", "--noise-targets", "0"),
    "parity-sweep-exceptional-point": ("parity-sweep", "--drive", "X", "--tau", "0.5",
                                       "--zeta", "4.0", "--error", "Z=0.3",
                                       "--delta-points", "5"),
    # Noiseless patterns past the 26-squaring resolution bound.
    "parity-sweep-none-1e8": ("parity-sweep", "--noise-kinds", "none",
                              "--delta-points", "3", "--delta-max", "1e8"),
    "parity-sweep-none-1e9": ("parity-sweep", "--noise-kinds", "none",
                              "--delta-points", "3", "--delta-max", "1e9"),
    "table1-xx-1e10": ("table1", "--error", "XX=1e10"),
    "table1-xx-1e20": ("table1", "--error", "XX=1e20"),
    # Amplitudes that overflow a pattern's 1-norm, to inf or (inf times 0) nan.
    "table1-xx-1e308": ("table1", "--error", "XX=1e308"),
    "table1-xx-1e308-scale-10": ("table1", "--error", "XX=1e308", "--scale", "10"),
    "parity-sweep-xx-1e307": ("parity-sweep", "--error", "XX=1e307", "--delta-points", "3",
                              "--delta-max", "100"),
    "magnus-check": ("magnus-check",),
    "magnus-check-seed0": ("magnus-check", "--seed", "0"),
    "magnus-check-csv": ("magnus-check", "--format", "csv"),
    "magnus-check-seed3-csv": ("magnus-check", "--seed", "3", "--format", "csv"),
    "magnus-check-budget": ("magnus-check", "--taus", "0.5,1.0", "--max-evaluations", "50"),
    # Runs that draw no random error set, so a new draw leaves them byte-identical.
    "magnus-check-no-random-sets": ("magnus-check", "--random-sets", "0"),
    "magnus-check-error-sets-csv": ("magnus-check", "--taus", "0.3,0.5,1.0",
                                    "--error-set", "XX=0.2;YY=0.6;ZZ=0.2;YX=0.4",
                                    "--error-set", "XI=0.3;IY=0.1", "--format", "csv"),
    # Drives on one and three qubits.  A one-qubit drive has no error word
    # that commutes with it (I and the drive itself are refused); the
    # three-qubit set mixes commuting (ZII, IZZ, YYY) and anticommuting words.
    "magnus-check-one-qubit": ("magnus-check", "--drive", "X",
                               "--error-set", "Z=0.3;Y=0.2", "--error-set", "Y=0.5"),
    "magnus-check-3q": ("magnus-check", "--drive", "ZXY",
                        "--error-set", "XXI=0.2;ZII=0.3;IZZ=0.1;YYY=0.15",
                        "--error-set", "IIZ=0.4;XII=0.2", "--format", "csv"),
    # The 4,096-point level of the triangle rule.
    "magnus-check-tau2.5": ("magnus-check", "--taus", "2.5", "--error-set", "XX=0.2;YY=0.6"),
    "magnus-check-xx-1e150": ("magnus-check", "--error-set", "XX=1e150;YY=0.2",
                              "--taus", "0.5"),
    "magnus-check-xx-1e160": ("magnus-check", "--error-set", "XX=1e160;YY=0.2",
                              "--taus", "0.5"),
    # tau^2 overflows the triangle rule's Jacobian.
    "magnus-check-tau-1e300": ("magnus-check", "--taus", "1e300", "--error-set", "XX=0.2"),
    # Level differences too large to square; tau^2 still fits.
    "magnus-check-tau-1e100": ("magnus-check", "--taus", "1e100", "--error-set", "XX=0.2"),
    "magnus-check-negative-tau": ("magnus-check", "--taus=-1", "--dump-config"),
    "table1-tau0": ("table1", "--tau", "0"),
    "overrotation": ("overrotation", "--tau", "0.5", "--sum-h2", "0.24"),
    "sign-table": ("sign-table", "--qubits", "2"),
    "sign-table-3q": ("sign-table", "--qubits", "3"),
    "sign-table-json": ("sign-table", "--qubits", "2", "--format", "json"),
    "calibrate-text": ("calibrate", "--theta", "1.2", "--sum-h2", "0.24"),
    "calibrate-json": ("calibrate", "--theta", "1.2", "--sum-h2", "0.24",
                       "--format", "json"),
}

_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run(tree: Path, argv: tuple[str, ...]) -> dict[str, bytes | int | None]:
    """stdout, stderr, exit code and dump file of one invocation on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    env.update(dict.fromkeys(_ONE_THREAD, "1"))
    with tempfile.TemporaryDirectory() as workdir:
        dump = Path(workdir) / "channel.json"
        args = [str(dump) if arg == DUMP else arg for arg in argv]
        done = subprocess.run([sys.executable, "-m", "pstlab", *args], cwd=workdir,
                              env=env, capture_output=True, timeout=600)
        return {
            "exit code": done.returncode,
            "stdout": done.stdout,
            "stderr": done.stderr,
            "dump file": dump.read_bytes() if dump.exists() else None,
        }


def _flatten(data):
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        for item in data:
            yield from _flatten(item)
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        yield float(data)


def _numbers(text: str) -> list[float] | None:
    """The numbers of a JSON report, or of a CSV report's cells, in order;
    None if the text is neither."""
    try:
        return list(_flatten(json.loads(text)))
    except ValueError:
        pass
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error:
        return None
    if len(rows) < 2:
        return None
    numbers = []
    for cell in (cell for row in rows for cell in row):
        try:
            numbers.append(float(cell))
        except ValueError:
            pass
    return numbers


def largest_difference(old: bytes, new: bytes) -> str | None:
    """The largest absolute difference between the numbers of two JSON or
    CSV reports, as text; None if either is not such a report."""
    try:
        a, b = _numbers(old.decode()), _numbers(new.decode())
    except UnicodeDecodeError:
        return None
    if a is None or b is None:
        return None
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    gaps = [0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)
            for x, y in zip(a, b)]
    return f"largest number difference {max(gaps, default=0.0):.3e}"


def compare(old_tree: Path, new_tree: Path, names: list[str]) -> int:
    differing = 0
    for name in names:
        old, new = run(old_tree, INVOCATIONS[name]), run(new_tree, INVOCATIONS[name])
        notes = []
        for part in old:
            if old[part] == new[part]:
                continue
            note = f"{part} differs"
            if part == "exit code":
                note += f" ({old[part]} -> {new[part]})"
            elif old[part] is not None and new[part] is not None:
                gap = largest_difference(old[part], new[part])
                note += f" ({gap})" if gap else ""
            notes.append(note)
        differing += bool(notes)
        print(f"DIFF  {name}: " + "; ".join(notes) if notes else f"same  {name}")
    print(f"{len(names) - differing} of {len(names)} invocations identical")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(tree) for tree in argv[:2]]
    names = argv[2:] or list(INVOCATIONS)
    for tree in trees:
        if not (tree / "src" / "pstlab").is_dir():
            print(f"compare_reports: {tree} holds no src/pstlab", file=sys.stderr)
            return 2
    unknown = [name for name in names if name not in INVOCATIONS]
    if unknown:
        print(f"compare_reports: unknown invocations {unknown}; known: {list(INVOCATIONS)}",
              file=sys.stderr)
        return 2
    return compare(*trees, names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
