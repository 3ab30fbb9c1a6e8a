"""Tests for tools/compare_reports.py, which compares the reports of two
source trees byte for byte."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_reports.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself():
    result = run_tool(ROOT, ROOT, "calibrate-json", "sign-table")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        "same  calibrate-json", "same  sign-table", "2 of 2 invocations identical",
    ]


def fake_tree(root, main):
    """A tree whose ``python -m pstlab`` runs ``main`` alone."""
    package = root / "src" / "pstlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main)
    return root


def test_a_differing_tree_fails(tmp_path):
    fake = fake_tree(tmp_path, "print('label,I,X,Y,Z')\n")
    result = run_tool(ROOT, fake, "sign-table")
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "DIFF  sign-table: stdout differs", "0 of 1 invocations identical",
    ]


@pytest.mark.parametrize("name, flag, code", [
    ("table1-dump-channel", "--dump-channel", 0),
    # magnus-check writes its report, then exits 2 when its budget runs out.
    ("magnus-check-budget-output", "--output", 2),
])
def test_dump_files_are_compared(name, flag, code, tmp_path):
    # Same streams and exit code; only the file written as {dump} differs.
    dump = (f"import sys\nopen(sys.argv[sys.argv.index({flag!r}) + 1], 'w').write({{!r}})\n"
            f"sys.exit({code})\n")
    old = fake_tree(tmp_path / "old", dump.format("[[1.0, 0.0]]"))
    new = fake_tree(tmp_path / "new", dump.format("[[1.0, 0.5]]"))
    result = run_tool(old, new, name)
    assert result.returncode == 1
    assert result.stdout.splitlines()[0] == (
        f"DIFF  {name}: dump file differs (largest number difference 5.000e-01)")
    assert run_tool(old, old, name).returncode == 0


def test_bad_arguments_are_refused(tmp_path):
    assert run_tool(ROOT).returncode == 2
    assert "holds no src/pstlab" in run_tool(ROOT, tmp_path).stderr
    assert "unknown invocations" in run_tool(ROOT, ROOT, "frobnicate").stderr


def test_numbers_of_json_and_csv_reports_are_compared():
    tool = load_tool()
    # Booleans are not numbers; a differing flag shows as a zero gap.
    old, new = b'{"a": [1.0, 2.0], "b": true}', b'{"a": [1.0, 2.5], "b": false}'
    assert tool.largest_difference(old, new) == "largest number difference 5.000e-01"
    assert (tool.largest_difference(b"x,y,kind\n1,2,none\n", b"x,y,kind\n1,2.25,none\n")
            == "largest number difference 2.500e-01")
    assert tool.largest_difference(b"[1, 2]", b"[1]") == "2 numbers against 1"
    assert tool.largest_difference(b"pstlab: failure", b"pstlab: other") is None


@pytest.mark.parametrize("name", [
    "parity-sweep-csv", "parity-sweep-n4", "magnus-check-n4", "magnus-check-n4-many-words",
    # The quadrature's error estimate at the triangle rule's 4,096-point level.
    "magnus-check-tau2.5", "table1-n4-seed0",
])
def test_reports_do_not_depend_on_the_blas_thread_count(name):
    # The thread count is not part of an invocation: one and two BLAS
    # threads give the same streams, exit code and dump file.
    tool = load_tool()
    one, two = (tool.run(ROOT, tool.INVOCATIONS[name], threads) for threads in (1, 2))
    assert one["exit code"] == 0, one["stderr"]
    assert one == two
