"""Property tests of the ensemble channel against the per-frame oracle,
of its complete positivity (a PSD Choi matrix), of its coset-block log
against the dense one, of the closed-form log of one-word blocks against
the eigenbasis log, of the noiseless spectral blocks and band weights
against dense oracles, of the resolution bound's weight-row 1-norm, of its
evenness in the error scale when one Pauli word flips the whole error, of
the effective generator's Hamiltonian, of the noise generator against its
jump operators, and of the group order that `pauli` owns and `pst_core`
indexes by.

Skipped where `hypothesis` (the `test` extra) is not installed, so the rest
of the suite does not depend on it.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from pst_oracles import (  # noqa: E402
    dense_noiseless_blocks,
    dense_pattern_bands,
    densified_log_generator,
    frame_average_blocks,
    jump_dissipator,
    liouville_noisy_blocks,
    pauli_transfer_matrix,
)
from test_pst_core import (  # noqa: E402
    DEPENDENT_DRIVE,
    DEPENDENT_ERRORS,
    assert_block_log_matches_dense,
    assert_coset_block_sparse,
    assert_trace_preserving,
    brute_force_channel,
    drive_group,
)

from pstlab import pauli, pst_core  # noqa: E402
from pstlab.errors import BranchCutError, DefectiveMatrixError  # noqa: E402
from pstlab.liouville import (  # noqa: E402
    NOISE_KINDS,
    NoiseSpec,
    _noise_transfer,
    dissipator_superop,
    hamiltonian_superop,
)
from pstlab.magnus import CoherentErrorSpec, DriveSpec  # noqa: E402
from pstlab.numerics import logm_principal  # noqa: E402
from pstlab.pauli import (  # noqa: E402
    PauliString,
    commutation_sign,
    enumerate_group,
    matrix_of,
    pauli_from_label,
    sign_table,
)
from pstlab.pst_core import EffectiveGenerator, pst_channel, twirled_channels  # noqa: E402


_LETTERS = st.sampled_from("IXYZ")


@st.composite
def twirl_inputs(draw, max_qubits=2, noise=True, max_rate=3.0, kinds=NOISE_KINDS,
                 max_drive_words=3, min_errors=0, max_tau=1.2):
    n = draw(st.integers(1, max_qubits))
    word = st.lists(_LETTERS, min_size=n, max_size=n).map("".join).filter(
        lambda label: set(label) != {"I"}
    )
    drive_words = draw(st.lists(word, min_size=1, max_size=max_drive_words, unique=True))
    error_words = draw(st.lists(word.filter(lambda w: w not in drive_words),
                                min_size=min_errors, max_size=3, unique=True))
    amplitude = st.floats(-0.8, 0.8, allow_nan=False)
    drive = DriveSpec(
        tuple((w, draw(amplitude)) for w in drive_words),
        draw(st.floats(0.05, max_tau)),
    )
    err = CoherentErrorSpec(
        tuple((w, draw(amplitude)) for w in error_words),
        scale=draw(st.floats(-1.5, 1.5)),
    )
    if not noise:
        return drive, err
    kind = draw(st.sampled_from(kinds))
    targets = draw(st.one_of(
        st.none(), st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(tuple)
    ))
    noise = NoiseSpec(kind, 0.0 if kind == "none" else draw(st.floats(0.0, max_rate)),
                      targets)
    return drive, err, noise


def assert_same_blocks(channel, expected):
    """Two `TwirledChannel`s on the same cosets, with blocks equal to 1e-13."""
    assert np.array_equal(channel.cosets, expected.cosets)
    assert np.abs(channel.blocks - expected.blocks).max() <= 1e-13


class TestChannelProperties:
    @settings(max_examples=40, deadline=None)
    @given(twirl_inputs())
    # Noise-free inputs, which take the Hilbert-space exponential.
    @example((DEPENDENT_DRIVE, CoherentErrorSpec(DEPENDENT_ERRORS), NoiseSpec()))
    @example((
        DEPENDENT_DRIVE,
        CoherentErrorSpec(DEPENDENT_ERRORS, scale=-0.8),
        NoiseSpec("amplitude_damping", 0.0, (1,)),
    ))
    def test_matches_oracle_and_preserves_trace(self, inputs):
        drive, err, noise = inputs
        oracle = brute_force_channel(drive, err, noise)
        k = pst_channel(drive, err, noise)
        assert np.abs(k - oracle).max() <= 1e-13
        assert_trace_preserving(k)
        # The oracle itself lives on the cosets of <D>, and the block log
        # reads the same generator as the dense log of the whole channel.
        assert_coset_block_sparse(oracle, drive)
        assert_block_log_matches_dense(drive, err, noise)


class TestClosedFormBlockLog:
    """A one-word drive's coset blocks are 2 x 2, and `TwirledChannel.weights`
    logs them in closed form; the eigenbasis log of the same blocks reads
    the same weights wherever it accepts them."""

    @settings(max_examples=60, deadline=None)
    @given(twirl_inputs(max_qubits=3, max_rate=5.0, max_drive_words=1, min_errors=1,
                        max_tau=1.4))
    # Eigenphases +-3.1289 in one block: close eigenvalues whose logs
    # differ by nearly 2 pi i, which only the unwinding number restores.
    @example((DriveSpec.single("X", 1.555), CoherentErrorSpec((("Z", 0.1),)), NoiseSpec()))
    @example((DriveSpec.single("X", 1.555), CoherentErrorSpec((("Z", 0.1),), scale=-1.0),
              NoiseSpec()))
    @example((DriveSpec.single("ZX", 1.555), CoherentErrorSpec((("XX", 0.1), ("IZ", 0.05))),
              NoiseSpec()))
    # Eigenvalues 1 and 6.1e-6 in one block: (a + d) / 2 - s would lose
    # the small one's digits to cancellation.
    @example((DriveSpec.single("XX", 1.0, 0.5), CoherentErrorSpec(), NoiseSpec("pauli_z", 3.0)))
    # The exceptional point, which only the eigenbasis log refuses.
    @example((DriveSpec.single("X", 0.5), CoherentErrorSpec(),
              NoiseSpec("amplitude_damping", 4.0)))
    def test_weights_match_the_eigenbasis_log(self, inputs):
        drive, err, noise = inputs
        [channel] = twirled_channels(drive, [err], noise)
        try:
            with mock.patch.object(pst_core, "_logm_2x2", logm_principal):
                expected = channel.weights()
        except BranchCutError:
            with pytest.raises(BranchCutError):
                channel.weights()
            return
        except DefectiveMatrixError:
            expected = None
        weights = channel.weights()
        assert np.isfinite(weights).all()
        if expected is not None:
            assert np.abs(weights - expected).max() <= 1e-13


def choi_matrix(k: np.ndarray) -> np.ndarray:
    """J[(c, a), (d, b)] = E(|c><d|)[a, b] of the row-major Liouville matrix K."""
    d = math.isqrt(k.shape[0])
    return k.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


class TestChoiPositivity:
    def test_choi_of_a_unitary_channel_is_its_rank_one_projector(self):
        # Pins the reshuffle: U (x) U* has Choi |u><u| with u[c, a] = U[a, c].
        u = matrix_of(pauli_from_label("XY"))
        vector = u.T.reshape(-1)
        np.testing.assert_array_equal(choi_matrix(np.kron(u, u.conj())),
                                      np.outer(vector, vector.conj()))

    @settings(max_examples=40, deadline=None)
    @given(twirl_inputs(max_rate=5.0))
    # The Liouvillian exceptional point of ROADMAP item 3.
    @example((DriveSpec.single("X", 0.5), CoherentErrorSpec(),
              NoiseSpec("amplitude_damping", 4.0)))
    @example((DriveSpec.single("ZX", 2.5), CoherentErrorSpec.from_amplitudes(
        {"XX": 0.2, "YY": 0.6, "ZZ": 0.2, "YX": 0.4}), NoiseSpec("amplitude_damping", 5.0)))
    def test_ensemble_channel_is_completely_positive(self, inputs):
        choi = choi_matrix(pst_channel(*inputs))
        scale = np.linalg.norm(choi, 2)
        assert np.abs(choi - choi.conj().T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(choi).min() >= -1e-12 * scale


class TestSpectralBlocks:
    @settings(max_examples=40, deadline=None)
    @given(twirl_inputs(max_qubits=3, noise=False))
    @example((DEPENDENT_DRIVE, CoherentErrorSpec(DEPENDENT_ERRORS, scale=1.3)))
    @example((
        DriveSpec((("ZXY", 0.9), ("XIZ", -0.4), ("YXY", 0.3)), 0.7),
        CoherentErrorSpec((("XXY", 0.2), ("YZI", 0.6), ("IIZ", -0.1))),
    ))
    def test_match_dense_oracles_and_band_weights(self, inputs):
        drive, err = inputs
        [channel] = twirled_channels(drive, [err])
        for oracle in (dense_noiseless_blocks, frame_average_blocks):
            assert_same_blocks(channel, oracle(drive, err))
        try:
            dense = densified_log_generator(channel)
        except (BranchCutError, DefectiveMatrixError) as exc:
            with pytest.raises(type(exc)):
                channel.weights()
            return
        weights = channel.weights()
        inside = drive_group(drive)
        for word in enumerate_group(drive.n_qubits):
            weight = weights[word.index]
            assert abs(weight - dense.coefficient(word)) <= 1e-12
            if word not in inside:
                assert weight == 0.0


class TestPatternBands:
    """The band step against the dense Pauli-transfer oracle, pattern by
    pattern in both branches, and the twirl rebuilt on that oracle."""

    @settings(max_examples=40, deadline=None)
    @given(twirl_inputs())
    @example((DEPENDENT_DRIVE, CoherentErrorSpec(DEPENDENT_ERRORS), NoiseSpec()))
    @example((DEPENDENT_DRIVE, CoherentErrorSpec(DEPENDENT_ERRORS, scale=-0.8),
              NoiseSpec("amplitude_damping", 1.5, (1,))))
    def test_match_the_dense_oracle(self, inputs):
        drive, err, noise = inputs
        n, tau = drive.n_qubits, drive.tau
        group, _, _, _ = pst_core._coset_index(drive)
        noisy = noise.kind != "none" and noise.rate != 0
        dissipator = jump_dissipator(noise, n) if noisy else None
        # One weight row per realized frame sign pattern: the scaled error
        # plus the signed drive.
        patterns = sorted({tuple(commutation_sign(alpha, word) for word, _ in drive.terms)
                           for alpha in enumerate_group(n)})
        weights = np.zeros((1, len(patterns), 4**n))
        for c, signs in enumerate(patterns):
            for word, amplitude in err.scaled_terms():
                weights[0, c, word.index] = amplitude
            for s, (word, amplitude) in zip(signs, drive.terms):
                weights[0, c, word.index] = s * amplitude
        bands = pst_core._pattern_bands(weights, tau, group, n,
                                        _noise_transfer(noise, n) if noisy else None)
        expected = dense_pattern_bands(weights, tau, group, n, dissipator)
        assert np.abs(bands - expected).max() <= 1e-13

        def oracle(weights, tau, group, n, noise_transfer):
            assert (noise_transfer is not None) == noisy
            return dense_pattern_bands(weights, tau, group, n, dissipator)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pst_core, "_pattern_bands", oracle)
            [rebuilt] = twirled_channels(drive, [err], noise)
        assert_same_blocks(rebuilt, twirled_channels(drive, [err], noise)[0])
        assert np.abs(rebuilt.dense() - brute_force_channel(drive, err, noise)).max() <= 1e-13


class TestPauliTransferGenerators:
    """Noisy blocks exponentiated in the Pauli-transfer basis against the
    exponential of the row-major Liouville generator."""

    @settings(max_examples=40, deadline=None)
    @given(twirl_inputs(max_rate=5.0, kinds=("pauli_z", "amplitude_damping")))
    # The Liouvillian exceptional point of ROADMAP item 3, then two
    # three-qubit drives, one with two independent words.
    @example((DriveSpec.single("X", 0.5), CoherentErrorSpec(),
              NoiseSpec("amplitude_damping", 4.0)))
    @example((DriveSpec.single("ZXY", 0.7), CoherentErrorSpec((("XXY", 0.2), ("YZI", 0.6))),
              NoiseSpec("pauli_z", 2.0)))
    @example((DriveSpec((("ZXY", 0.9), ("XIZ", -0.4)), 0.7),
              CoherentErrorSpec((("XXY", 0.2), ("YZI", 0.6), ("IIZ", -0.1))),
              NoiseSpec("amplitude_damping", 1.5, (0, 2))))
    def test_match_the_liouville_oracle(self, inputs):
        drive, err, noise = inputs
        [channel] = twirled_channels(drive, [err], noise)
        assert_same_blocks(channel, liouville_noisy_blocks(drive, err, noise))


@st.composite
def noise_specs(draw):
    """A noise spec of either kind on 1 to 3 qubits, with a rate in [0, 10]
    and every qubit or any nonempty subset of them as targets."""
    n = draw(st.integers(1, 3))
    targets = draw(st.one_of(
        st.none(), st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(tuple)
    ))
    kind = draw(st.sampled_from(("pauli_z", "amplitude_damping")))
    return NoiseSpec(kind, draw(st.floats(0.0, 10.0)), targets), n


class TestNoiseTransfer:
    """The noise as a Kronecker sum of one-qubit Pauli-transfer tables
    against the vectorized Lindblad terms of its jump operators."""

    @settings(max_examples=60, deadline=None)
    @given(noise_specs())
    @example((NoiseSpec("amplitude_damping", 3.0), 3))
    @example((NoiseSpec("pauli_z", 10.0, (2, 0)), 3))
    def test_matches_the_jump_operator_dissipator(self, inputs):
        noise, n = inputs
        transfer = _noise_transfer(noise, n)
        tolerance = 1e-14 * max(1.0, noise.rate)
        assert transfer.dtype == float
        assert np.abs(pauli_transfer_matrix(dissipator_superop(noise, n)) - transfer).max() \
            <= tolerance
        assert np.abs(pauli_transfer_matrix(jump_dissipator(noise, n)) - transfer).max() \
            <= tolerance
        assert np.abs(dissipator_superop(noise, n) - jump_dissipator(noise, n)).max() \
            <= tolerance


@st.composite
def weight_rows(draw):
    """Up to four rows of Pauli weights on 1 to 3 qubits, each weighing at
    most five non-identity words with coefficients of any sign and
    magnitude."""
    n = draw(st.integers(1, 3))
    words = st.lists(st.integers(1, 4**n - 1), max_size=5, unique=True)
    coefficient = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    rows = np.zeros((draw(st.integers(1, 4)), 4**n))
    for row in rows:
        for index in draw(words):
            row[index] = draw(coefficient)
    return n, rows


def label_row(n, **weights):
    """A weight row from label=weight pairs."""
    row = np.zeros(4**n)
    for label, c in weights.items():
        row[pauli_from_label(label).index] = c
    return row


class TestCommutatorNorms:
    """The resolution bound's 1-norm of -i H(h) from a weight row's |W_g|
    and the characters of its support's span, against the transfer
    matrix's largest column sum."""

    @settings(max_examples=60, deadline=None)
    @given(weight_rows())
    @example((2, np.array([label_row(2, XX=0.2, YY=-0.6, ZZ=0.2, YX=0.4, ZX=-1.0),
                           np.zeros(16)])))
    def test_equals_the_transfer_column_sum(self, inputs):
        n, rows = inputs
        transfers = pst_core._commutator_transfers(rows, n)
        expected = np.abs(transfers).sum(axis=-2).max(axis=-1)
        # Sums of at most five |W_g| in two orders part by under 1e-15.
        np.testing.assert_allclose(pst_core._commutator_norms(rows), expected,
                                   rtol=1e-15, atol=0)


@st.composite
def complex_weight_rows(draw):
    """One to three rows of complex Pauli weights on 1 to 3 qubits, and a
    complex 2^n x 2^n matrix, every part in [-1, 1]."""
    n, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    part = st.floats(-1.0, 1.0, allow_subnormal=False)
    weights, m = (draw(arrays(float, (2, *shape), elements=part))
                  for shape in ((rows, 4**n), (2**n, 2**n)))
    return n, weights[0] + 1j * weights[1], m[0] + 1j * m[1]


class TestPauliBasisChange:
    """`_pauli_sums` and `_pauli_spectra` against the word-by-word sums of
    `matrix_of` and the one-word projections they replace.  An entry sums
    at most 4^n terms of magnitude at most sqrt(2), so each side rounds by
    well under 4^n * 1e-15."""

    @settings(max_examples=60, deadline=None)
    @given(complex_weight_rows())
    def test_sums_and_spectra_are_the_word_by_word_references(self, inputs):
        n, weights, m = inputs
        tolerance = 4**n * 1e-15
        words = enumerate_group(n)
        sums = pauli._pauli_sums(weights)
        assert sums.shape == (len(weights), 2**n, 2**n)
        expected = np.array([sum(c * matrix_of(word) for word, c in zip(words, row))
                             for row in weights])
        assert np.abs(sums - expected).max() <= tolerance
        assert np.abs(pauli._pauli_spectra(sums) - weights).max() <= tolerance
        spectrum = [np.vdot(matrix_of(word), m) / 2**n for word in words]
        assert np.abs(pauli._pauli_spectra(m) - spectrum).max() <= tolerance


class TestPatternWeights:
    """Every row that `twirled_channels` exponentiates is the spec's scaled
    error plus the drive terms signed by one realized frame, and every
    frame's sign pattern is among them once."""

    @settings(max_examples=40, deadline=None)
    @given(twirl_inputs(max_qubits=3, noise=False))
    @example((DEPENDENT_DRIVE, CoherentErrorSpec(DEPENDENT_ERRORS, scale=-0.7)))
    def test_rows_are_error_plus_signed_drive(self, inputs):
        drive, err = inputs
        n, calls = drive.n_qubits, []
        original = pst_core._pattern_weights

        def recording(error_rows, patterns, drive_rows):
            weights = original(error_rows, patterns, drive_rows)
            calls.append((patterns, weights))
            return weights

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pst_core, "_pattern_weights", recording)
            twirled_channels(drive, [err])
        [(patterns, [weights])] = calls
        frames = {tuple(commutation_sign(alpha, word) for word, _ in drive.terms)
                  for alpha in enumerate_group(n)}
        assert sorted(map(tuple, patterns.tolist())) == sorted(frames)
        for signs, row in zip(patterns, weights):
            expected = np.zeros(4**n)
            for word, c in err.terms:
                expected[word.index] = err.scale * c
            for s, (word, c) in zip(signs, drive.terms):
                expected[word.index] = s * c
            assert np.array_equal(row, expected)


@st.composite
def flippable_inputs(draw):
    """A drive, an error set that one Pauli word Q anticommutes with term by
    term, and noise that commutes with every Pauli frame (none or Z
    dephasing), on up to 3 qubits."""
    n = draw(st.integers(1, 3))
    words = list(enumerate_group(n)[1:])
    flip = draw(st.sampled_from(words))
    drive_words = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
    pool = [word for word in words
            if word not in drive_words and commutation_sign(word, flip) == -1]
    assume(pool)
    error_words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    amplitude = st.floats(-0.8, 0.8, allow_nan=False)
    drive = DriveSpec(tuple((w, draw(amplitude)) for w in drive_words),
                      draw(st.floats(0.05, 1.2)))
    err = CoherentErrorSpec(tuple((w, draw(amplitude)) for w in error_words),
                            scale=draw(st.floats(-1.5, 1.5)))
    kind = draw(st.sampled_from(("none", "pauli_z")))
    targets = draw(st.one_of(
        st.none(), st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(tuple)
    ))
    noise = NoiseSpec(kind, 0.0 if kind == "none" else draw(st.floats(0.0, 3.0)), targets)
    return drive, err, noise


class TestErrorScaleParity:
    """Conjugating by Q negates the error and only relabels the frames, so
    the twirled channel is even in the error scale; Pauli noise commutes
    with Q.  Amplitude damping does not, and breaks the symmetry."""

    @settings(max_examples=40, deadline=None)
    @given(flippable_inputs())
    @example((DriveSpec.single("ZX", 2.5), CoherentErrorSpec((("XX", 0.2), ("ZZ", 0.2))),
              NoiseSpec("pauli_z", 3.0)))
    def test_channel_is_even_in_the_error_scale(self, inputs):
        drive, err, noise = inputs
        plus, minus = twirled_channels(drive, [err, err.with_scale(-err.scale)], noise)
        assert_same_blocks(plus, minus)


class TestEffectiveGeneratorProperties:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 2),
        rate=st.floats(0.0, 3.0),
        tau=st.floats(0.05, 1.2),
        contamination=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hamiltonian_is_the_weights_and_reconstructs(
        self, n, kind, rate, tau, contamination, seed
    ):
        # A Lindblad generator plus an arbitrary (non-physical) complex part.
        rng = np.random.default_rng(seed)
        side = 2**n
        a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        noise = NoiseSpec(kind, 0.0 if kind == "none" else rate)
        junk = rng.normal(size=(side**2,) * 2) + 1j * rng.normal(size=(side**2,) * 2)
        g = (dissipator_superop(noise, n)
             - 1j * tau * hamiltonian_superop((a + a.conj().T) / 2)
             + contamination * junk)
        eff = EffectiveGenerator.from_generator(g, tau)
        h = eff.hamiltonian
        assert h.shape == (side, side)
        assert np.abs(h - h.conj().T).max() <= 1e-15
        assert abs(np.trace(h)) <= 1e-14
        rebuilt = sum(c * matrix_of(word) for word, c in eff.hamiltonian_coeffs.items())
        assert np.abs(h - rebuilt).max() <= 1e-14
        assert np.abs(eff.reconstructed() - g).max() <= 1e-13


class TestGroupOrder:
    """`pauli` owns the group order: the word index, its inverse, the sign
    table's columns and `pst_core`'s product phases all agree on it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(_LETTERS, min_size=n, max_size=n).map("".join)))
    @example("IIX")
    @example("ZZZZ")
    def test_index_signs_and_phases_agree(self, label):
        word = pauli_from_label(label)
        n = word.n_qubits
        assert PauliString(n, word.index) == word
        group = enumerate_group(n)
        column = sign_table(n, [word])[:, 0]
        assert column.tolist() == [commutation_sign(alpha, word) for alpha in group]
        phases = pauli._product_phases(np.array([word.index]), n)[0]
        np.testing.assert_array_equal((phases * phases).real, sign_table(n)[word.index])
        # The phases themselves, which their squares leave open to a sign:
        # P_i P_g = w(i, g) P_(i XOR g).
        for i, (other, phase) in enumerate(zip(group, phases)):
            np.testing.assert_array_equal(matrix_of(other) @ matrix_of(word),
                                          phase * matrix_of(PauliString(n, i ^ word.index)))
