"""The package surface: every module's ``__all__``, re-exported once, and
the imports it costs."""

import json
import subprocess
import sys
import textwrap

import pstlab
from pstlab import errors, experiments, liouville, magnus, numerics, pauli, pst_core

MODULES = (errors, pauli, liouville, numerics, magnus, pst_core, experiments)

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


def test_hand_listed_surface_is_kept():
    assert len(HAND_LISTED_SURFACE) == 51
    missing = set(HAND_LISTED_SURFACE) - set(pstlab.__all__)
    assert not missing


# Runs in a fresh interpreter and prints, per step, whether scipy is loaded.
_SCIPY_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    steps = {}
    import pstlab.cli
    steps["import pstlab.cli"] = "scipy" in sys.modules
    for argv in (
        ["overrotation", "--tau", "0.5", "--sum-h2", "0.24"],
        ["calibrate", "--theta", "1.0", "--sum-h2", "0.24"],
        ["sign-table", "--qubits", "2"],
        ["table1"],
        ["magnus-check"],
        ["parity-sweep"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = pstlab.cli.main(argv)
        steps[" ".join(argv)] = "scipy" in sys.modules if code == 0 else f"exit {code}"
    from pstlab import DriveSpec, NoiseSpec, pst_channel
    pst_channel(DriveSpec.single("X", 0.5), noise=NoiseSpec("amplitude_damping", 1.0))
    steps["amplitude_damping channel"] = "scipy" in sys.modules
    print(json.dumps(steps))
""")


def test_scipy_never_loads():
    # Dissipative channels exponentiate with numpy alone, so no command,
    # the noisy parity sweep included, imports scipy.
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    steps = json.loads(result.stdout)
    assert steps == {
        "import pstlab.cli": False,
        "overrotation --tau 0.5 --sum-h2 0.24": False,
        "calibrate --theta 1.0 --sum-h2 0.24": False,
        "sign-table --qubits 2": False,
        "table1": False,
        "magnus-check": False,
        "parity-sweep": False,
        "amplitude_damping channel": False,
    }
