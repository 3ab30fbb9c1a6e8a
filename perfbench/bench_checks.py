"""Checks of the benchmark itself; kept out of the default test collection.

    python3 -m pytest -q perfbench/bench_checks.py

About 40 s: the gate test runs every workload's invocations once.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE_SEED = 7


@pytest.fixture(scope="module")
def pstlab_cli():
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    import pstlab.cli

    return pstlab.cli


def _bindings():
    return {(key, name): getattr(module, name)
            for key, module in sys.modules.items()
            if key == "pstlab" or key.startswith("pstlab.")
            for names in tracing.WRAPPED.values() for name in names
            if hasattr(module, name)}


def test_wrappers_rebind_every_import_and_restore(pstlab_cli):
    before = _bindings()
    for module in ("pstlab.numerics", "pstlab.pst_core", "pstlab.experiments"):
        assert before[(module, "expm")] is before[("pstlab.numerics", "expm")]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            during = _bindings()
            raise RuntimeError("leave the block early")
    assert all(during[key] is not before[key] for key in before)
    assert all(during[(m, "expm")] is during[("pstlab.numerics", "expm")]
               for m in ("pstlab.pst_core", "pstlab.experiments"))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_reports_equal_subprocess_reports(pstlab_cli):
    tracer = tracing.Tracer()
    for inv in workloads.cli_quick(SMOKE_SEED):
        child = run.spawn(["-m", "pstlab", *inv.argv])
        with tracer.installed():
            code, stdout = run.call_main(pstlab_cli, inv.argv)
        assert (code, stdout.encode()) == (child.returncode, child.stdout.encode())
    layers = tracer.metrics()
    assert layers["cli.main.calls"] == 4
    assert layers["pst_core.pst_channel.calls"] == 1
    assert 0 < layers["cli.main.self_s"] < layers["cli.main.total_s"]


def test_probed_spawn_keeps_the_output_and_scales_the_time():
    code = "print(sum(i * i for i in range(10**6)))"
    child = run.spawn(["-c", code], probed=True)
    assert (child.returncode, child.stdout) == (0, f"{sum(i * i for i in range(10**6))}\n")
    # The scale is the reference probe time over the measured one: within 5x
    # on any machine this benchmark has met.
    assert child.seconds / 5 < child.scaled_seconds < child.seconds * 5


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span("cli.main", None, 0.0, 10.0),
                    tracing.Span("pst_core.pst_channel", 0, 1.0, 4.0),
                    tracing.Span("numerics.expm", 1, 2.0, 3.0),
                    tracing.Span("numerics.expm", 0, 5.0, 6.0)]
    layers = tracer.metrics()
    assert layers["cli.main.self_s"] == 6.0
    assert layers["pst_core.pst_channel.self_s"] == 2.0
    assert (layers["numerics.expm.calls"], layers["numerics.expm.total_s"]) == (2, 2.0)


def test_import_split_takes_the_outermost_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |     scipy",
        "import time:        30 |         30 |       scipy.linalg._flapack",
        "import time:        40 |         70 |     scipy.linalg",
        "import time:        10 |        250 |   pstlab.liouville",
        "import time:         5 |        255 | pstlab",
        "import time:         7 |          7 | pstlab.cli",
    ])
    tree = run._import_tree(stderr)
    assert [run._package_import_s(tree, p) for p in ("numpy", "scipy", "pstlab")] == [
        150e-6, 90e-6, 262e-6]


def test_names_are_well_formed_and_match_the_output():
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layers = [m["name"] for m in BENCHMARK["per_layer"]]
    names = declared_e2e + declared_layers + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert set(declared_e2e) == set(run.metric_units(0))
    assert set(declared_layers) == set(run.metric_units(1))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    units = {**run.metric_units(0), **run.metric_units(1)}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_inputs_come_from_the_seed():
    for make in workloads.WORKLOADS.values():
        assert [i.argv for i in make(SMOKE_SEED)] == [i.argv for i in make(SMOKE_SEED)]
    assert workloads.table1_n4(1)[0].argv != workloads.table1_n4(2)[0].argv


@pytest.mark.parametrize("check, text", [
    (workloads.check_overrotation_default, "1.019024\n"),
    (workloads.check_calibrate(1.0, 0.24), '{"theta": 1.0, "sum_h2": 0.24, "tau": 0.4909}'),
    (workloads.check_sign_table(1), "label,I,X,Y,Z\nI,1,1,1,1\nX,1,1,-1,-1\n"
                                    "Y,1,-1,1,-1\nZ,1,-1,-1,-1\n"),
    (workloads.check_table1((("XX", 0.2),)),
     '{"config": {"errors": [["XX", 0.2]]}, "pst": {"XX": 0.01}, "agreement_pct": 99.9}'),
    (workloads.check_table1((("XX", 0.2),)),
     '{"config": {"errors": [["XX", 0.2]]}, "pst": {"XX": 0.0}, "agreement_pct": 98.9}'),
    (workloads.check_magnus, '{"all_within_tolerance": false}'),
])
def test_gates_reject_wrong_reports(check, text):
    invocation = workloads.Invocation(("x",), check)
    assert run.gate(invocation, 0, text) is not None


def test_every_gate_passes_on_another_seed():
    run.pin_threads()
    for name, make in workloads.WORKLOADS.items():
        for inv in make(SMOKE_SEED):
            child = run.spawn(["-m", "pstlab", *inv.argv])
            assert run.gate(inv, child.returncode, child.stdout) is None, (name, inv.argv)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run(trace, section):
    done = _bench("--workload", "cli-quick", "--seed", str(SMOKE_SEED),
                  "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    if trace == "1":
        assert result["metrics"]["max_abs_dev"]["value"] == 0.0
        assert result["metrics"]["reference.numbers_compared"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cli-quick", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
