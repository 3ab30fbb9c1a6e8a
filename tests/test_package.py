"""The package surface: every module's ``__all__``, re-exported once and
resolved on first access, and the imports it costs."""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pstlab
from pstlab import (
    errors,
    experiments,
    liouville,
    magnus,
    numerics,
    pauli,
    pst_core,
    schema,
    sinc_law,
)

MODULES = (errors, sinc_law, schema, pauli, liouville, numerics, magnus, pst_core,
           experiments)

# The 51 names `pstlab` exported when its surface was still listed by hand;
# deriving the surface from the modules must keep every one of them.
HAND_LISTED_SURFACE = (
    "BranchCutError", "CalibrateConfig", "CalibrationError", "CoherentErrorSpec",
    "ConfigError", "DefectiveMatrixError", "DriveSpec", "EffectiveGenerator",
    "MagnusCheckConfig", "NoiseSpec", "OverRotationConfig", "ParitySweepConfig",
    "PauliParseError", "PauliString", "QuadratureError", "QuadratureResult",
    "ResourceLimitError", "SignTableConfig", "Table1Config", "ToleranceError",
    "anticommuting_sum_h2", "calibrate_tau", "commutation_sign", "devectorize",
    "dissipator_superop", "effective_generator", "enumerate_group", "expm",
    "hamiltonian_superop", "ideal_channel", "interaction_dressed", "logm_principal",
    "matrix_of", "omega1_avg", "omega2_alpha", "omega2_avg", "omega2_avg_closed",
    "op_norm", "over_rotation_factor", "pauli_from_label", "pauli_unitary_superop",
    "pst_channel", "pst_realization", "run_magnus_crosscheck", "run_parity_sweep",
    "run_table1", "sign_table", "sinc", "triangle_quadrature", "unitary_superop",
    "vectorize",
)


def test_surface_is_the_module_exports_in_order():
    assert pstlab.__all__ == [name for module in MODULES for name in module.__all__]


def test_no_name_is_exported_twice():
    # A name in two module __all__s would let one star import shadow another.
    assert len(set(pstlab.__all__)) == len(pstlab.__all__)


def test_every_name_resolves_to_its_module_object():
    namespace = {}
    exec("from pstlab import *", namespace)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pstlab, name) is getattr(module, name)
            assert namespace[name] is getattr(module, name)


def test_dir_and_star_import_expose_the_whole_surface():
    namespace = {}
    exec("from pstlab import *", namespace)
    assert set(pstlab.__all__) <= set(dir(pstlab))
    assert set(pstlab.__all__) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    assert not hasattr(pstlab, "no_such_name")
    assert not hasattr(pstlab, "__no_such_dunder__")


def test_hand_listed_surface_is_kept():
    assert len(HAND_LISTED_SURFACE) == 51
    missing = set(HAND_LISTED_SURFACE) - set(pstlab.__all__)
    assert not missing


# Runs in a fresh interpreter and prints, per step, which of numpy,
# numpy.polynomial, numpy.random, scipy, dataclasses and inspect are loaded.
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    def loaded():
        return {name: name in sys.modules
                for name in ("numpy", "numpy.polynomial", "numpy.random", "scipy",
                             "dataclasses", "inspect")}

    steps = {}
    import pstlab
    steps["import pstlab"] = loaded()
    from pstlab import cli
    steps["from pstlab import cli"] = loaded()
    import pstlab.cli
    steps["import pstlab.cli"] = loaded()
    for argv in (
        ["overrotation", "--tau", "0.5", "--sum-h2", "0.24"],
        ["calibrate", "--theta", "1.0", "--sum-h2", "0.24", "--format", "json"],
        ["sign-table", "--qubits", "2"],
        ["sign-table", "--qubits", "1", "--format", "json"],
        ["overrotation", "--tau", "0.5", "--sum-h2", "0.24", "--dump-config"],
        ["table1"],
        ["magnus-check"],
        ["parity-sweep"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = pstlab.cli.main(argv)
        steps[" ".join(argv)] = loaded() if code == 0 else f"exit {code}"
    from pstlab import DriveSpec, NoiseSpec, pst_channel
    pst_channel(DriveSpec.single("X", 0.5), noise=NoiseSpec("amplitude_damping", 1.0))
    steps["amplitude_damping channel"] = loaded()
    print(json.dumps(steps))
""")


@pytest.fixture(scope="module")
def import_steps():
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_scipy_never_loads(import_steps):
    # Dissipative channels exponentiate with numpy alone, so no command,
    # the noisy parity sweep included, imports scipy.
    assert {step: loaded["scipy"] for step, loaded in import_steps.items()} == dict.fromkeys(
        import_steps, False)


def test_numpy_polynomial_never_loads(import_steps):
    # The quadrature's Gauss-Legendre rule is written out, so no command
    # pays for importing numpy.polynomial.
    assert {step: loaded["numpy.polynomial"] for step, loaded in import_steps.items()} == (
        dict.fromkeys(import_steps, False))


def test_numpy_random_never_loads(import_steps):
    # magnus-check draws its seeded error sets with random.Random, so no
    # command pays for importing numpy.random and its extension modules.
    assert {step: loaded["numpy.random"] for step, loaded in import_steps.items()} == (
        dict.fromkeys(import_steps, False))


def test_only_numeric_work_loads_numpy(import_steps):
    # The package surface, the CLI and its scalar commands stop short of
    # numpy; the first numeric command loads it.
    assert {step: loaded["numpy"] for step, loaded in import_steps.items()} == {
        "import pstlab": False,
        "from pstlab import cli": False,
        "import pstlab.cli": False,
        "overrotation --tau 0.5 --sum-h2 0.24": False,
        "calibrate --theta 1.0 --sum-h2 0.24 --format json": False,
        "sign-table --qubits 2": False,
        "sign-table --qubits 1 --format json": False,
        "overrotation --tau 0.5 --sum-h2 0.24 --dump-config": False,
        "table1": True,
        "magnus-check": True,
        "parity-sweep": True,
        "amplitude_damping channel": True,
    }


def test_dataclasses_never_loads(import_steps):
    # pstlab's value types are records (`pstlab.schema.Record`), which
    # generate no code, so no step pays for importing dataclasses.
    assert {step: loaded["dataclasses"] for step, loaded in import_steps.items()} == (
        dict.fromkeys(import_steps, False))


def test_only_numpy_loads_inspect(import_steps):
    # With dataclasses gone, the package, the CLI and the scalar commands
    # stop short of inspect; numpy still imports it.
    assert {step: loaded["inspect"] for step, loaded in import_steps.items()} == {
        step: loaded["numpy"] for step, loaded in import_steps.items()}


# Names a module imports only for others to import from it: the
# acceptance tests read these two through the modules named.
REEXPORTS = {("magnus", "over_rotation_factor"), ("pst_core", "calibrate_tau")}


def _imported_names(tree: ast.Module) -> set[str]:
    """The names that the import statements of ``tree`` bind, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("path", sorted(Path(pstlab.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in _imported_names(tree) - read if (path.stem, name) not in REEXPORTS}
    assert not unused
