"""pstlab benchmark: seeded CLI workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload cli-quick --seed 0 --seconds 25 --trace 0

Load model: a closed loop with one client.  ``--trace 0`` runs the workload's
invocations as ``python -m pstlab`` subprocesses, one after another, in passes
while another pass fits in ``--seconds``, and at least MIN_PASSES times.  It
gates every report and prints the end-to-end metrics, timed in seconds at a
reference CPU speed (see PROBE_REFERENCE_S).  ``--trace 1`` calls
``pstlab.cli.main(argv)`` in this process with the same arguments, alternating
an untraced pass with a traced one (see tracing.py), and prints the per-layer
metrics.

Every metric is printed by name with its unit and sample count.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  Run from a checkout that lacks ``src/pstlab``, it exits with code 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
from workloads import DEFAULT_SEED, WORKLOADS, GateError, Invocation

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# Unpinned OpenBLAS on a 2-core machine spread one n=3 pst_channel call over
# 1.0-2.3 s; with one thread it took 0.16-0.23 s.  Every interpreter the
# benchmark times gets one BLAS/OpenMP thread, which never exceeds nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

SETUP_SAMPLES = 9

# On a 2-vCPU Xeon virtual machine the CPU speed drifted by up to 2x, on a
# scale from under a second to minutes, in wall and CPU time alike; a spinner
# on one vCPU slowed the other.  Raw pass times spread by 15-30% between 25 s
# runs, whatever statistic a run takes.  So every timed child runs on the same
# CPU as this process, which wakes every PROBE_INTERVAL_S while the child runs
# and times a short fixed loop (the probe) in its own CPU time.  Each stretch
# of the child's running time is rescaled by the probe that ends it, to the
# speed at which the probe takes PROBE_REFERENCE_S (about its fast-phase time
# on that machine).  The unscaled medians are printed on `#` lines.
PROBE_LOOPS = 4000
PROBE_INTERVAL_S = 0.03
PROBE_REFERENCE_S = 0.0011
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_UNITS = {
    "trace_overhead_ratio": "ratio",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.pstlab_s": "s",
    "failed_ratio": "ratio",
    "max_abs_dev": "abs",
    "reference.numbers_compared": "count",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, or the program will not start)."""


def pin_threads() -> None:
    """Pin BLAS/OpenMP threads here and in every child; call before numpy loads."""
    os.environ.update({name: str(BLAS_THREADS) for name in THREAD_VARS})
    os.environ["PYTHONPATH"] = str(SRC)


def pin_cpu() -> int:
    """Run this process and every child on one CPU, the one the probe times."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def require_sources() -> None:
    if not (SRC / "pstlab" / "cli.py").is_file():
        raise BenchmarkError(f"no pstlab sources under {SRC}")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    scaled_seconds: float
    max_rss_mb: float


def probe_seconds() -> float:
    """CPU seconds of a fixed loop of small allocations: the CPU's speed now."""
    start = time.thread_time()
    table = {}
    for i in range(PROBE_LOOPS):
        table[str(i)] = (i, [i])
    return time.thread_time() - start


def _wait_probing(pid: int, start: float, cpu_start: float) -> tuple[float, float]:
    """Wait for `pid` to exit, probing meanwhile; (unscaled, scaled) seconds.

    A stretch's running time is its wall time less this process's CPU time in
    it, which the probes and the pipe readers take from the shared CPU.
    """
    scaled = 0.0
    last, cpu_last = start, cpu_start
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            exited = bool(select.select([pidfd], [], [], PROBE_INTERVAL_S)[0])
            now, cpu_now = time.perf_counter(), time.process_time()
            ran = (now - last) - (cpu_now - cpu_last)
            scaled += ran * PROBE_REFERENCE_S / probe_seconds()
            if exited:
                return now - start, scaled
            last, cpu_last = time.perf_counter(), time.process_time()
    finally:
        os.close(pidfd)


def spawn(args: list[str], probed: bool = False) -> Child:
    """Run ``python <args>`` from the checkout root and wait for it.

    ``os.wait4`` reaps the child so its own peak resident set is known.  With
    `probed`, the child's seconds are also rescaled to the reference speed.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        output: dict[str, bytes] = {}
        readers = [threading.Thread(target=lambda n=n, f=f: output.__setitem__(n, f.read()))
                   for n, f in (("stdout", proc.stdout), ("stderr", proc.stderr))]
        for reader in readers:
            reader.start()
        seconds, scaled = _wait_probing(proc.pid, start, cpu_start) if probed else (0.0, 0.0)
        for reader in readers:
            reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not probed:
        seconds = scaled = time.perf_counter() - start
    return Child(proc.returncode, output["stdout"].decode(), output["stderr"].decode(),
                 seconds, scaled, usage.ru_maxrss / 1024.0)


def check_program_starts() -> None:
    """Warm the bytecode cache and make sure the checkout's pstlab is the one run."""
    child = spawn(["-c", "import pstlab.cli; print(pstlab.cli.__file__)"])
    if child.returncode != 0:
        raise BenchmarkError(f"import pstlab.cli failed:\n{child.stderr}")
    if Path(child.stdout.strip()).resolve() != SRC / "pstlab" / "cli.py":
        raise BenchmarkError(f"pstlab imported from {child.stdout.strip()}, not {SRC}")


def _import_tree(stderr: str) -> list[tuple[str, int, list]]:
    """Parse ``-X importtime`` lines (children print before their parent)."""
    stack: list[tuple[int, tuple[str, int, list]]] = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop()[1])
        stack.append((depth, (name.strip(), int(fields[1]), children)))
    return [node for _, node in stack]


def _package_import_s(nodes, package: str) -> float:
    """Cumulative seconds of the outermost imports of `package` or its submodules."""
    total = 0
    pending = list(nodes)
    while pending:
        name, cumulative, children = pending.pop()
        if name == package or name.startswith(package + "."):
            total += cumulative
        else:
            pending.extend(children)
    return total / 1e6


def measure_import_split() -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "pstlab": []}
    for _ in range(IMPORTTIME_SAMPLES):
        child = spawn(["-X", "importtime", "-c", "import pstlab.cli"])
        tree = _import_tree(child.stderr)
        for package, values in samples.items():
            values.append(_package_import_s(tree, package))
    return samples


# ---------------------------------------------------------------------------
# Reports: gates and reference deviation
# ---------------------------------------------------------------------------

def gate(invocation: Invocation, returncode: int, stdout: str) -> str | None:
    """None if the invocation succeeded, else why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        invocation.check(stdout)
    except (GateError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def report_numbers(text: str) -> dict[tuple, float]:
    """Every number of a JSON, CSV or scalar report, keyed by its position."""
    try:
        data = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        out = {}
        for i, row in enumerate(rows[1:]):
            for column, cell in zip(rows[0], row):
                try:
                    out[(i, column)] = float(cell)
                except ValueError:
                    pass
        return out
    out = {}
    pending = [((), data)]
    while pending:
        key, value = pending.pop()
        if isinstance(value, dict):
            pending.extend((key + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            pending.extend((key + (i,), v) for i, v in enumerate(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
    return out


class ReferenceDiff:
    """Largest deviation of reports from the stored default-seed references.

    Only invocations whose arguments match a stored one are compared, so for
    another seed the seeded invocations drop out and `compared` says so.
    """

    def __init__(self, workload: str):
        stored = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        self._reference = {tuple(r["argv"]): report_numbers(r["stdout"])
                           for r in stored["reports"]}
        self._latest: dict[tuple, tuple[float, int]] = {}

    def update(self, argv: tuple[str, ...], stdout: str) -> None:
        reference = self._reference.get(tuple(argv))
        if reference is None:
            return
        got = report_numbers(stdout)
        shared = reference.keys() & got.keys()
        deviation = max((abs(got[k] - reference[k]) for k in shared), default=0.0)
        self._latest[tuple(argv)] = (deviation, len(shared))

    @property
    def max_abs_dev(self) -> float:
        return max((dev for dev, _ in self._latest.values()), default=0.0)

    @property
    def compared(self) -> int:
        return sum(count for _, count in self._latest.values())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, invocation: Invocation, returncode: int, stdout: str) -> None:
        self.attempted += 1
        reason = gate(invocation, returncode, stdout)
        if reason is not None:
            self.failed += 1
            print(f"FAILED pstlab {' '.join(invocation.argv)}: {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# The two runs
# ---------------------------------------------------------------------------

def more_passes(start: float, done: int, seconds: float, minimum: int) -> bool:
    """True until `minimum` passes are done and one more would overrun `seconds`."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def run_untraced(workload: str, invocations: list[Invocation], seconds: float):
    """Subprocess passes; returns (samples per end-to-end metric, tally, diff)."""
    check_program_starts()
    tally, diff = Tally(), ReferenceDiff(workload)
    samples: dict[str, list[float]] = {
        name: [] for name in ("wall_s", "setup_s", "peak_rss_mb", "raw.wall_s", "raw.setup_s")}

    def setup_sample() -> None:
        child = spawn(["-c", "import pstlab.cli"], probed=True)
        samples["setup_s"].append(child.scaled_seconds)
        samples["raw.setup_s"].append(child.seconds)

    start = time.perf_counter()
    while more_passes(start, len(samples["wall_s"]), seconds, MIN_PASSES):
        children = [spawn(["-m", "pstlab", *inv.argv], probed=True) for inv in invocations]
        samples["wall_s"].append(sum(child.scaled_seconds for child in children))
        samples["raw.wall_s"].append(sum(child.seconds for child in children))
        samples["peak_rss_mb"].append(max(child.max_rss_mb for child in children))
        for inv, child in zip(invocations, children):
            tally.record(inv, child.returncode, child.stdout)
            diff.update(inv.argv, child.stdout)
        setup_sample()
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        setup_sample()
    return samples, tally, diff


def call_main(cli, argv: tuple[str, ...]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout captured; looks ``main`` up at call time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_traced(workload: str, invocations: list[Invocation], seconds: float):
    """In-process passes, untraced then traced; returns as `run_untraced`."""
    check_program_starts()
    sys.path.insert(0, str(SRC))
    import pstlab.cli as cli

    tally, diff = Tally(), ReferenceDiff(workload)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while more_passes(start, len(traced), seconds, 1):
        pass_start = time.perf_counter()
        for inv in invocations:
            call_main(cli, inv.argv)
        untraced.append(time.perf_counter() - pass_start)
        tracer = tracing.Tracer()
        with tracer.installed():
            pass_start = time.perf_counter()
            outputs = [call_main(cli, inv.argv) for inv in invocations]
            traced.append(time.perf_counter() - pass_start)
        layers.append(tracer.metrics())
        for inv, (code, stdout) in zip(invocations, outputs):
            tally.record(inv, code, stdout)
            diff.update(inv.argv, stdout)
    samples = {name: [m[name] for m in layers] for name in layers[0]}
    samples["trace_overhead_ratio"] = [t / u for t, u in zip(traced, untraced)]
    for package, values in measure_import_split().items():
        samples[f"import.{package}_s"] = values
    return samples, tally, diff


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def environment(workload: str, seed: int, trace: int, cpu: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
        "cpu": cpu,
        "probe_reference_s": PROBE_REFERENCE_S,
        "load": "closed loop, 1 client, invocations run one after another",
    }


def metric_units(trace: int) -> dict[str, str]:
    return {**tracing.metric_units(), **RUN_UNITS} if trace else END_TO_END_UNITS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    cpu = pin_cpu()
    try:
        require_sources()
        invocations = WORKLOADS[args.workload](args.seed)
        run = run_traced if args.trace else run_untraced
        samples, tally, diff = run(args.workload, invocations, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(args.workload, args.seed, args.trace, cpu)))
    print(f"# failed_ratio = {tally.failed / tally.attempted!r} ratio"
          f" ({tally.failed} of {tally.attempted} invocations)")
    print(f"# max_abs_dev = {diff.max_abs_dev!r} abs"
          f" (over {diff.compared} numbers of the default-seed reference)")
    samples["failed_ratio"] = [tally.failed / tally.attempted]
    samples["max_abs_dev"] = [diff.max_abs_dev]
    samples["reference.numbers_compared"] = [diff.compared]
    metrics = {}
    for name, unit in metric_units(args.trace).items():
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit} (median of {len(values)})")
        raw = samples.get(f"raw.{name}")
        if raw is not None:
            print(f"# {name} unscaled median = {statistics.median(raw)!r}, samples {raw}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
