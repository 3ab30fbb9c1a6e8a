"""Deterministic Liouville-space simulator of pseudo-twirled non-Clifford gates.

Builds the exact twirl-ensemble channel of a Pauli-generated gate under
coherent errors and Lindblad noise, extracts effective Hamiltonian
weights through the channel log, evaluates the first- and second-order
averaged interaction terms (quadrature and closed form), and inverts the
sinc-law calibration relation for the drive duration.
"""

from .errors import (
    BranchCutError,
    CalibrationError,
    ConfigError,
    DefectiveMatrixError,
    PauliParseError,
    QuadratureError,
    ResourceLimitError,
    ToleranceError,
)
from .liouville import (
    NoiseSpec,
    devectorize,
    dissipator_superop,
    hamiltonian_superop,
    pauli_unitary_superop,
    unitary_superop,
    vectorize,
)
from .magnus import (
    CoherentErrorSpec,
    DriveSpec,
    anticommuting_sum_h2,
    interaction_dressed,
    omega1_avg,
    omega2_alpha,
    omega2_avg,
    omega2_avg_closed,
    over_rotation_factor,
)
from .numerics import (
    QuadratureResult,
    expm,
    logm_principal,
    op_norm,
    sinc,
    triangle_quadrature,
)
from .pauli import (
    PauliString,
    commutation_sign,
    enumerate_group,
    matrix_of,
    pauli_from_label,
    sign_table,
)
from .pst_core import (
    EffectiveGenerator,
    PSTRealization,
    calibrate_tau,
    effective_generator,
    ideal_channel,
    pst_channel,
    pst_realization,
)
from .experiments import (
    CalibrateConfig,
    MagnusCheckConfig,
    OverRotationConfig,
    ParitySweepConfig,
    SignTableConfig,
    Table1Config,
    run_magnus_crosscheck,
    run_parity_sweep,
    run_table1,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCutError",
    "CalibrateConfig",
    "CalibrationError",
    "CoherentErrorSpec",
    "ConfigError",
    "DefectiveMatrixError",
    "DriveSpec",
    "EffectiveGenerator",
    "MagnusCheckConfig",
    "NoiseSpec",
    "OverRotationConfig",
    "ParitySweepConfig",
    "PSTRealization",
    "PauliParseError",
    "PauliString",
    "QuadratureError",
    "QuadratureResult",
    "ResourceLimitError",
    "SignTableConfig",
    "Table1Config",
    "ToleranceError",
    "anticommuting_sum_h2",
    "calibrate_tau",
    "commutation_sign",
    "devectorize",
    "dissipator_superop",
    "effective_generator",
    "enumerate_group",
    "expm",
    "hamiltonian_superop",
    "ideal_channel",
    "interaction_dressed",
    "logm_principal",
    "matrix_of",
    "omega1_avg",
    "omega2_alpha",
    "omega2_avg",
    "omega2_avg_closed",
    "op_norm",
    "over_rotation_factor",
    "pauli_from_label",
    "pauli_unitary_superop",
    "pst_channel",
    "pst_realization",
    "run_magnus_crosscheck",
    "run_parity_sweep",
    "run_table1",
    "sign_table",
    "sinc",
    "triangle_quadrature",
    "unitary_superop",
    "vectorize",
]
