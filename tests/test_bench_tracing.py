"""The benchmark tracer wraps pstlab functions by name; keep those names alive.

`perfbench/tracing.py` rebinds every (module, name) listed in its `WRAPPED`
table, and a traced benchmark run fails if one of them is gone.  Loading the
table here turns a rename into a tier-1 failure.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pstlab import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


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
    # name, or a wrapper bound over that name never sees a CLI call.
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["table1"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["experiments.run_table1.calls"] == 1
    assert metrics["cli.main.calls"] == 1
