"""Property tests of the quadrature twirl averages against the closed form,
of the Hilbert-space lift norm against the dense lift, and of the
row-built dressed parts against their `matrix_of` oracle.

Skipped where `hypothesis` (the `test` extra) is not installed, so the rest
of the suite does not depend on it.
"""

import math
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from pst_oracles import (  # noqa: E402
    assert_rows_agree,
    dressed_parts,
    frame_parts,
    magnus_crosscheck_rows,
    rebuilt_crosscheck_rows,
    sign_rank,
)

from pstlab import magnus  # noqa: E402
from pstlab.errors import ResolutionError  # noqa: E402
from pstlab.experiments import MagnusCheckConfig, run_magnus_crosscheck  # noqa: E402
from pstlab.magnus import (  # noqa: E402
    CoherentErrorSpec,
    DriveSpec,
    omega1_alpha,
    omega1_avg,
    omega2_alpha,
    omega2_avg,
    omega2_avg_closed,
)
from pstlab.pauli import (  # noqa: E402
    PauliString,
    commutation_sign,
    enumerate_group,
    pauli_from_label,
)

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


@st.composite
def average_inputs(draw):
    """A one-word drive on one or two qubits, of duration up to 1.5, with
    an error set, possibly empty, of words commuting and anticommuting
    with it."""
    n = draw(st.integers(1, 2))
    beta = draw(st.integers(1, 4**n - 1))
    words = draw(st.lists(st.integers(1, 4**n - 1).filter(lambda w: w != beta),
                          max_size=4, unique=True))
    amplitude = st.floats(-0.8, 0.8, allow_subnormal=False)
    err = CoherentErrorSpec(tuple((PauliString(n, w), draw(amplitude)) for w in words))
    tau = draw(st.floats(0.0, 1.5, allow_subnormal=False))
    return DriveSpec(((PauliString(n, beta), 1.0),), tau), err


class TestFrameAverages:
    """The averages sum the frames before weighting and lifting; the
    frame-by-frame terms lift each frame alone.  Both orders of the sum
    agree to rounding."""

    @settings(max_examples=25, deadline=None)
    @given(average_inputs())
    @example((DriveSpec.single("ZX", 0.5), CoherentErrorSpec()))
    @example((DriveSpec.single("ZX", 0.5), CoherentErrorSpec.from_amplitudes(
        {"XX": 0.3, "YY": 0.5, "IZ": -0.2, "ZI": 0.4, "YX": 0.25})))
    def test_average_is_the_mean_of_the_frames(self, inputs):
        drive, err = inputs
        frames = enumerate_group(drive.n_qubits)
        for average, alpha_term in ((omega1_avg, omega1_alpha), (omega2_avg, omega2_alpha)):
            value = average(drive, err)
            mean = np.mean([alpha_term(drive, err, alpha) for alpha in frames], axis=0)
            assert np.abs(value - mean).max() <= 1e-14 * max(1.0, np.abs(value).max())


@st.composite
def crosscheck_configs(draw):
    """A `MagnusCheckConfig` on one or two qubits: explicit error sets, or
    the default set and seeded random ones; taus up to 3, and budgets and
    amplitudes that may fail or overflow a row."""
    n = draw(st.integers(1, 2))
    words = [p.label for p in enumerate_group(n)[1:]]
    drive = draw(st.sampled_from(words))
    amplitude = st.one_of(st.floats(-0.8, 0.8, allow_subnormal=False),
                          st.sampled_from([1e150, -1e160, 1e300]))
    error_set = st.lists(st.tuples(st.sampled_from([w for w in words if w != drive]),
                                   amplitude),
                         min_size=1, max_size=4, unique_by=lambda pair: pair[0]).map(tuple)
    # The default set, run ahead of the random ones, is on two qubits and
    # holds XX, YY, ZZ and YX.
    explicit = n == 1 or drive in ("XX", "YY", "ZZ", "YX") or draw(st.booleans())
    return MagnusCheckConfig(
        drive=drive,
        taus=tuple(draw(st.lists(st.floats(0.0, 3.0, allow_subnormal=False),
                                 min_size=1, max_size=3, unique=True))),
        error_sets=draw(st.lists(error_set, min_size=1, max_size=3, unique=True).map(tuple)
                        if explicit else st.none()),
        random_sets=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**16)),
        quadrature_tol=draw(st.sampled_from([1e-9, 1e-6])),
        max_evaluations=draw(st.sampled_from([50, 400, 2**20])),
    )


class TestCrosscheckRows:
    @settings(max_examples=25, deadline=None)
    @given(crosscheck_configs())
    def test_rows_match_the_public_term_oracle(self, config):
        rows = run_magnus_crosscheck(config).rows
        assert_rows_agree(rows, magnus_crosscheck_rows(config))
        assert rows == rebuilt_crosscheck_rows(config)


@st.composite
def lifted_norm_inputs(draw):
    """A complex, generally non-Hermitian d x d matrix, d = 2, 4 or 8, with
    entries of magnitude up to ``scale``, plus c I with |c| up to 1e8."""
    d = 2 ** draw(st.integers(1, 3))
    real, imag = draw(arrays(float, (2, d, d),
                             elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e100, 1e200]))
    shift = draw(st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e8,
                                                           allow_subnormal=False)))
    return scale * (real + 1j * imag) + shift * np.eye(d)


def _dense_lift_norm(x):
    """||x kron I - I kron x^T||_F of the dense 4^n x 4^n lift, its squares
    summed exactly by `math.fsum` after scaling by the largest entry.

    The real and imaginary parts are scaled as real arrays: a complex
    quotient takes 1 / top first, which overflows when top is subnormal."""
    eye = np.eye(len(x))
    lift = np.kron(x, eye) - np.kron(eye, x.T)
    top = np.abs(lift).max()
    if top == 0:
        return 0.0
    scaled = np.concatenate([lift.real.ravel(), lift.imag.ravel()]) / top
    return top * math.sqrt(math.fsum(scaled**2))


class TestLiftedNorm:
    """`magnus._lifted_norm` reads ||H(x)||_F off x itself: each
    off-diagonal x_ij 2d times, and the differences x_ii - x_kk."""

    @settings(max_examples=200, deadline=None)
    @given(lifted_norm_inputs())
    @example(1e8 * np.eye(4, dtype=complex))
    @example(np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex))
    @example(np.array([[6.7368326e-317, 0.0], [0.0, 0.0]], dtype=complex))
    def test_matches_the_dense_lift(self, x):
        d = len(x)
        want = _dense_lift_norm(x)
        if want > 1.35e154:  # the sum of the squares passes the largest double
            with pytest.raises(ResolutionError, match="^the lift norm overflows"):
                magnus._lifted_norm(x, "lift norm")
            return
        assume(want < 1.33e154)
        got = magnus._lifted_norm(x, "lift norm")
        # The entries are the dense lift's own, so beyond the order of the
        # sums only subnormal squares differ: each of the 2 d^2 is off by
        # at most the smallest subnormal, which 2d multiplies.
        underflow = 2 * d * math.sqrt(d * math.ulp(0.0))
        assert abs(got - want) <= 1e-15 * want + underflow


@st.composite
def dressed_inputs(draw):
    """A drive word on 1 to 3 qubits, distinct words of its register (the
    identity and the drive word allowed) and a stack of weight rows."""
    n = draw(st.integers(1, 3))
    beta = PauliString(n, draw(st.integers(1, 4**n - 1)))
    indices = draw(st.lists(st.integers(0, 4**n - 1), max_size=6, unique=True))
    weights = draw(arrays(float, (draw(st.integers(1, 3)), len(indices)),
                          elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    return beta, [PauliString(n, index) for index in indices], weights


@st.composite
def frame_inputs(draw):
    """A one-word drive on 1 to 3 qubits with an error set, possibly empty,
    of words commuting and anticommuting with it."""
    n = draw(st.integers(1, 3))
    beta = draw(st.integers(1, 4**n - 1))
    words = draw(st.lists(st.integers(1, 4**n - 1).filter(lambda w: w != beta),
                          max_size=5, unique=True))
    amplitude = st.floats(-0.8, 0.8, allow_subnormal=False)
    err = CoherentErrorSpec(tuple((PauliString(n, w), draw(amplitude)) for w in words))
    return DriveSpec(((PauliString(n, beta), 1.0),), 0.5), err


class TestRowBuiltFrameParts:
    """`magnus` builds the dressed parts as weight rows summed by one
    `_pauli_sums` pass; the oracles add `matrix_of` products word by word.
    An entry sums at most one term of magnitude at most 1 per word, so the
    two summation orders part by a few ulps per word at most."""

    @settings(max_examples=60, deadline=None)
    @given(dressed_inputs())
    @example((pauli_from_label("ZX"), [], np.zeros((2, 0))))
    @example((pauli_from_label("ZX"), [pauli_from_label("II")], np.array([[0.7]])))
    @example((pauli_from_label("ZXY"),
              [pauli_from_label(w) for w in ("ZII", "XXI", "IZZ", "YYY", "ZXY", "III")],
              np.array([[0.2, -0.3, 0.1, 0.15, 0.4, 0.5], [1.0, 1.0, -1.0, 1.0, -1.0, 1.0]])))
    def test_match_the_matrix_parts(self, inputs):
        beta, words, weights = inputs
        got = magnus._dressed_sums(beta, [word.index for word in words], weights)
        expected = np.einsum("fw,kwij->kfij", weights, dressed_parts(words, beta))
        assert got.shape == expected.shape
        assert np.abs(got - expected).max(initial=0.0) <= 1e-15 * max(1, len(words))

    @settings(max_examples=40, deadline=None)
    @given(frame_inputs())
    @example((DriveSpec.single("Z", 0.5), CoherentErrorSpec()))
    @example((DriveSpec.single("ZXY", 0.5),
              CoherentErrorSpec.from_amplitudes({"ZII": 0.3, "XXI": 0.2, "IZZ": -0.1})))
    def test_every_frame_matches_the_oracle(self, inputs):
        drive, err = inputs
        n, words = drive.n_qubits, [word for word, _ in err.terms]
        # Each distinct sign vector is taken by a coset of 4^n / 2^r frames,
        # so the class mean is the mean over every frame.
        counts = Counter(tuple(commutation_sign(alpha, word) for word in words)
                         for alpha in enumerate_group(n))
        rank = sign_rank(words)
        assert sorted(counts.values()) == [4**n // 2**rank] * 2**rank
        expected = frame_parts(drive, err)
        means = magnus._frame_work(drive, err, None).means
        tolerance = 1e-15 * max(1, len(words))
        assert np.abs(means - expected.mean(axis=1)).max() <= tolerance
        if not err.terms:
            assert not means.any()
        alpha = PauliString(n, 4**n - 1)
        one = magnus._frame_parts(drive, err, alpha)
        assert np.abs(one[:, 0] - expected[:, alpha.index]).max() <= tolerance
