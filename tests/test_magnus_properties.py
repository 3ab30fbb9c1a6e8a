"""Property test of the quadrature twirl averages against the closed form.

Skipped where `hypothesis` (the `test` extra) is not installed, so the rest
of the suite does not depend on it.
"""

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pstlab.magnus import (  # noqa: E402
    CoherentErrorSpec,
    DriveSpec,
    omega1_avg,
    omega2_avg,
    omega2_avg_closed,
)
from pstlab.pauli import enumerate_group  # noqa: E402

_WORDS = [p.label for p in enumerate_group(2)[1:]]


@st.composite
def crosscheck_inputs(draw):
    """A two-qubit drive word with an error set of commuting and
    anticommuting words (never the drive itself)."""
    beta = draw(st.sampled_from(_WORDS))
    words = draw(st.lists(
        st.sampled_from([w for w in _WORDS if w != beta]), min_size=1, max_size=4,
        unique=True,
    ))
    amplitude = st.floats(-0.8, 0.8, allow_nan=False)
    err = CoherentErrorSpec(tuple((w, draw(amplitude)) for w in words))
    tau = draw(st.floats(0.0, 1.5, exclude_min=True, allow_subnormal=False))
    return DriveSpec.single(beta, tau), err


class TestCrosscheckProperties:
    @settings(max_examples=25, deadline=None)
    @given(crosscheck_inputs())
    def test_quadrature_matches_closed_form(self, inputs):
        drive, err = inputs
        discrepancy = np.linalg.norm(omega2_avg(drive, err) - omega2_avg_closed(drive, err))
        assert discrepancy <= 1e-6
        assert np.linalg.norm(omega1_avg(drive, err)) <= 1e-9
