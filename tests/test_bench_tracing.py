"""The benchmark tracer wraps pstlab functions by name; keep those names alive.

`perfbench/tracing.py` rebinds every (module, name) listed in its `WRAPPED`
table, and a traced benchmark run fails if one of them is gone.  Loading the
table here turns a rename into a tier-1 failure.

A traced run (``perfbench/run.py --trace 1``) exits 1 on any exception the
tracer raises: a ``KeyError`` if a command no longer loads one of the
wrapped modules, an ``AttributeError`` if a wrapped name is gone or a
result lacks the attribute a counter reads.  Each workload's passes are
therefore also run here as that run makes them, in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from pstlab import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load(TRACING, "perfbench_tracing")


@pytest.fixture(scope="module")
def wrapped(tracing):
    return tracing.WRAPPED


def test_every_wrapped_name_is_callable(wrapped):
    missing = [
        f"{module_name}.{name}"
        for module_name, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pstlab.{module_name}"), name, None))
    ]
    assert wrapped and not missing


def test_traced_cli_run_counts_its_runner(tracing, capsys):
    # The command table must reach the runner through its module-level
    # name, or a wrapper bound over that name never sees a CLI call.  The
    # tracer wraps loaded modules only, and `pstlab.cli` loads no numeric
    # one, so load them first, as the benchmark's untraced pass does.
    for module_name in tracing.WRAPPED:
        importlib.import_module(f"pstlab.{module_name}")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["table1"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["experiments.run_table1.calls"] == 1
    assert metrics["cli.main.calls"] == 1


# One untraced pass, then one under the tracer, through the benchmark's own
# `call_main` and `gate`, as `run_traced` makes them.
_TRACED_PASSES = textwrap.dedent("""
    import json, sys
    sys.path[:0] = sys.argv[1:3]
    import run, tracing
    import pstlab.cli as cli
    from workloads import WORKLOADS

    invocations = WORKLOADS[sys.argv[3]](0)
    untraced = [run.call_main(cli, inv.argv) for inv in invocations]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [run.call_main(cli, inv.argv) for inv in invocations]
    json.dump({
        "untraced": untraced,
        "traced": traced,
        "gates": [run.gate(inv, *out) for inv, out in zip(invocations, traced)],
        "main_calls": tracer.metrics()["cli.main.calls"],
    }, sys.stdout)
""")


@pytest.mark.parametrize("workload", sorted(_load(PERFBENCH / "workloads.py",
                                                  "perfbench_workloads").WORKLOADS))
def test_traced_passes_of_each_workload_in_a_fresh_process(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_PASSES, str(PERFBENCH), str(ROOT / "src"), workload],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert [code for code, _ in result["untraced"]] == [0] * len(result["untraced"])
    assert result["traced"] == result["untraced"]
    assert result["gates"] == [None] * len(result["traced"])
    assert result["main_calls"] == len(result["traced"])
