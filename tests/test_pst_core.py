"""Tests for twirl realizations, the ensemble channel, extraction, calibration."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from pst_oracles import jump_dissipator, pauli_transfer_matrix

from pstlab import pauli, pst_core, sinc_law
from pstlab.errors import (
    BranchCutError,
    CalibrationError,
    DefectiveMatrixError,
    ResolutionError,
    ResourceLimitError,
)
from pstlab.liouville import (
    NOISE_KINDS,
    NoiseSpec,
    dissipator_superop,
    hamiltonian_superop,
    pauli_unitary_superop,
    vectorize,
)
from pstlab.experiments import Table1Config, run_table1
from pstlab.magnus import (
    CoherentErrorSpec,
    DriveSpec,
    check_drive_error_compat,
    over_rotation_factor,
)
from pstlab.numerics import expm, expm_hermitian, logm_principal
from pstlab.pauli import (
    MAX_QUBITS_ENV,
    PauliString,
    enumerate_group,
    identity_string,
    matrix_of,
    pauli_from_label,
)
from pstlab.pst_core import (
    EffectiveGenerator,
    TwirledChannel,
    calibrate_tau,
    effective_generator,
    ideal_channel,
    pst_channel,
    pst_realization,
    twirled_channels,
)

TABLE1_ERRORS = (("XX", 0.2), ("YY", 0.6), ("ZZ", 0.2), ("YX", 0.4))
AC_ONLY_ERRORS = (("XX", 0.2), ("ZZ", 0.2), ("YX", 0.4))
# XX = XI * IX: the third drive sign is the product of the other two.
DEPENDENT_DRIVE = DriveSpec((("XI", 1.0), ("IX", 0.4), ("XX", 0.3)), 0.6)
DEPENDENT_ERRORS = (("ZZ", 0.2), ("YI", 0.3), ("ZY", 0.1))


def drive_zx(tau=0.5):
    return DriveSpec.single("ZX", tau)


def table1_error(scale=1.0):
    return CoherentErrorSpec(TABLE1_ERRORS, scale=scale)


def brute_force_channel(drive, err=None, noise=None):
    """Reference ensemble: P_alpha exp(flipped) P_alpha for every frame
    word, one realization and one expm each, averaged in group order."""
    err = err if err is not None else CoherentErrorSpec()
    noise = noise if noise is not None else NoiseSpec()
    group = enumerate_group(drive.n_qubits)
    total = np.zeros((4**drive.n_qubits,) * 2, dtype=complex)
    for alpha in group:
        frame = pauli_unitary_superop(alpha)
        total += frame @ expm(pst_realization(drive, err, noise, alpha)) @ frame
    return total / len(group)


def assert_matches_oracle(drive, err=None, noise=None):
    k = pst_channel(drive, err, noise)
    assert np.abs(k - brute_force_channel(drive, err, noise)).max() <= 1e-13
    return k


def assert_trace_preserving(k):
    # The vectorized identity is a left null vector of K - I.
    left = vectorize(np.eye(math.isqrt(k.shape[0]))).conj()
    np.testing.assert_allclose(left @ (k - np.eye(k.shape[0])), 0.0, atol=1e-12)


def drive_group(drive):
    """The words of the group <D> that the drive words generate."""
    group = {identity_string(drive.n_qubits)}
    for word, _ in drive.terms:
        group |= {word * member for member in group}
    return group


def assert_coset_block_sparse(k, drive):
    """Pauli-transfer entries (i, j) of K with P_i P_j outside <D> vanish."""
    words, inside = enumerate_group(drive.n_qubits), drive_group(drive)
    outside = np.array([[p * q not in inside for q in words] for p in words])
    assert np.abs(pauli_transfer_matrix(k)[outside]).max(initial=0.0) <= 1e-14


def twirled(drive, err=None, noise=None):
    """The twirled channel of one error spec, error-free by default."""
    return twirled_channels(drive, [err if err is not None else CoherentErrorSpec()], noise)[0]


def block_log_weights(drive, err=None, noise=None):
    """The twirled weight row `table1` reads: its channel's coset blocks,
    logged as one stack and read off the bands of <D>."""
    return twirled(drive, err, noise).weights()


def assert_block_log_matches_dense(drive, err=None, noise=None):
    """The block log equals the dense log of `pst_channel` to 1e-10, and
    the weight row read off its bands equals the dense log's projection
    to 1e-10, or both raise the same typed error."""
    k = pst_channel(drive, err, noise)
    try:
        dense = effective_generator(k, drive.tau)
    except (BranchCutError, DefectiveMatrixError) as exc:
        with pytest.raises(type(exc)):
            block_log_weights(drive, err, noise)
        return
    channel = twirled(drive, err, noise)
    block_log = TwirledChannel(logm_principal(channel.blocks), channel.cosets, channel.tau)
    np.testing.assert_allclose(block_log.dense(), logm_principal(k), rtol=0, atol=1e-10)
    weights = channel.weights()
    assert weights.shape == (4**drive.n_qubits,) and weights[0] == 0.0
    for word, value in dense.hamiltonian_coeffs.items():
        assert abs(weights[word.index] - value) <= 1e-10


def superop_projection(log_k, tau):
    """Weights as <H_g, log K / (-i tau)> / (2 * 4^n), one superoperator per word."""
    dim = log_k.shape[0]
    n = round(math.log(dim, 4))
    scaled = log_k / (-1.0j * tau)
    return {
        word: float(np.real(np.vdot(hamiltonian_superop(matrix_of(word)), scaled)))
        / (2.0 * dim)
        for word in enumerate_group(n)[1:]
    }


def word_superop(label):
    return hamiltonian_superop(matrix_of(pauli_from_label(label)))


def lab_frame_generator(drive, err, noise, alpha):
    """Raw drive, with the error and the noise conjugated by P kron P*."""
    frame = pauli_unitary_superop(alpha)
    raw_drive = sum(c * word_superop(word.label) for word, c in drive.terms)
    error = sum(a * word_superop(word.label) for word, a in err.scaled_terms())
    return (
        -1j * drive.tau * raw_drive
        - 1j * drive.tau * (frame @ error @ frame)
        + frame @ jump_dissipator(noise, drive.n_qubits) @ frame
    )


class TestRealization:
    def test_identity_frame_generator(self):
        drive = drive_zx()
        noise = NoiseSpec("pauli_z", 3.0)
        g = pst_realization(drive, table1_error(), noise, identity_string(2))
        assert isinstance(g, np.ndarray) and g.shape == (16, 16)
        expected = (
            -1j * 0.5 * word_superop("ZX")
            - 1j * 0.5 * sum(a * word_superop(l) for l, a in TABLE1_ERRORS)
            + jump_dissipator(noise, 2)
        )
        np.testing.assert_allclose(g, expected, atol=1e-13)

    def test_sign_pattern_anticommuting_frame(self):
        # XZ and XI both anticommute with ZZ: the drive term flips sign,
        # the error and the noise stay as they are.
        drive = DriveSpec.single("ZZ", 0.5)
        err = CoherentErrorSpec((("XX", 0.2),))
        noise = NoiseSpec("amplitude_damping", 0.5)
        unflipped = pst_realization(drive, err, noise, identity_string(2))
        for alpha in ("XZ", "XI"):
            flipped = pst_realization(drive, err, noise, pauli_from_label(alpha))
            np.testing.assert_allclose(
                flipped - unflipped, 2j * 0.5 * word_superop("ZZ"), atol=1e-13
            )

    def test_error_free_realizations_give_ideal_gate(self):
        drive = drive_zx()
        reference = expm(-1j * 0.5 * word_superop("ZX"))
        np.testing.assert_allclose(ideal_channel(drive), reference, atol=1e-13)
        for gate in (drive, DEPENDENT_DRIVE):
            identity_frame = pst_realization(
                gate, CoherentErrorSpec(), NoiseSpec(), identity_string(2)
            )
            np.testing.assert_allclose(
                ideal_channel(gate), expm(identity_frame), rtol=0, atol=1e-13
            )
        for alpha in enumerate_group(2):
            g = pst_realization(drive, CoherentErrorSpec(), NoiseSpec(), alpha)
            frame = pauli_unitary_superop(alpha)
            np.testing.assert_allclose(frame @ expm(g) @ frame, reference, atol=1e-12)

    def test_dual_construction_equality(self):
        # P_alpha expm(flipped) P_alpha = expm(lab-frame generator), exactly,
        # for every frame word, with both coherent error and noise present.
        drive = drive_zx()
        err = table1_error()
        noise = NoiseSpec("amplitude_damping", 3.0)
        for alpha in enumerate_group(2):
            frame = pauli_unitary_superop(alpha)
            np.testing.assert_allclose(
                frame @ expm(pst_realization(drive, err, noise, alpha)) @ frame,
                expm(lab_frame_generator(drive, err, noise, alpha)),
                atol=1e-12,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="frame word acts on 1 qubits"):
            pst_realization(
                drive_zx(), CoherentErrorSpec(), NoiseSpec(), pauli_from_label("X")
            )


class TestChannel:
    def test_error_free_channel_is_ideal(self):
        drive = drive_zx()
        np.testing.assert_allclose(
            pst_channel(drive), ideal_channel(drive), atol=1e-12
        )

    def test_default_weights_amplify_drive(self):
        k = pst_channel(drive_zx(), table1_error())
        eff = effective_generator(k, 0.5)
        assert eff.coefficient("ZX") == pytest.approx(1.0207, abs=1e-3)
        for label in ("XX", "YY", "ZZ", "YX"):
            assert abs(eff.coefficient(label)) <= 1e-3

    def test_even_in_scale_for_globally_flippable_error(self):
        # With every error word anticommuting with the drive, the drive word
        # itself flips the whole coherent error, and the ensemble channel is
        # an even function of the error scale, entrywise.
        drive = drive_zx()
        err = CoherentErrorSpec(AC_ONLY_ERRORS)
        plus = pst_channel(drive, err.with_scale(0.7))
        minus = pst_channel(drive, err.with_scale(-0.7))
        np.testing.assert_allclose(plus, minus, atol=1e-12)

    def test_channel_trace_preserving(self):
        k = pst_channel(drive_zx(), table1_error(), NoiseSpec("amplitude_damping", 3.0))
        left = vectorize(np.eye(4)).conj()
        np.testing.assert_allclose(left @ k, left, atol=1e-12)


class MatrixCalls(list):
    """Shapes of exponentiated matrices, one entry per matrix (a call on a
    stack (..., d, d) adds prod(...) of them); ``calls`` counts the calls."""

    calls = 0

    def record(self, m) -> None:
        shape = np.shape(m)
        self.extend([shape[-2:]] * math.prod(shape[:-2]))
        self.calls += 1

    def clear(self) -> None:
        super().clear()
        self.calls = 0


@pytest.fixture
def expm_calls(monkeypatch):
    """The matrices `pst_core` exponentiates with `expm`, as `MatrixCalls`."""
    calls = MatrixCalls()

    def counting_expm(m):
        calls.record(m)
        return expm(m)

    monkeypatch.setattr(pst_core, "expm", counting_expm)
    return calls


@pytest.fixture
def hermitian_calls(monkeypatch):
    """The Hamiltonians `pst_core` exponentiates with `expm_hermitian`, as
    `MatrixCalls`."""
    calls = MatrixCalls()

    def counting_expm_hermitian(h, t):
        calls.record(h)
        return expm_hermitian(h, t)

    monkeypatch.setattr(pst_core, "expm_hermitian", counting_expm_hermitian)
    return calls


class TestChannelMatchesOracle:
    @pytest.mark.parametrize(
        "kind, rate",
        [
            *(pytest.param(kind, 0.0 if kind == "none" else 1.5, id=kind)
              for kind in NOISE_KINDS),
            pytest.param("amplitude_damping", 0.0, id="amplitude_damping-zero-rate"),
        ],
    )
    @pytest.mark.parametrize(
        "drive, errors",
        [
            (DriveSpec.single("X", 0.7), (("Y", 0.3), ("Z", -0.2))),
            (drive_zx(), TABLE1_ERRORS),
            (DriveSpec.single("ZXY", 0.5), (("XXY", 0.2), ("YZI", 0.6), ("IIZ", 0.1))),
            (DEPENDENT_DRIVE, DEPENDENT_ERRORS),
        ],
        ids=["n1", "n2", "n3", "dependent"],
    )
    def test_every_noise_kind(self, drive, errors, kind, rate, monkeypatch):
        assert_matches_oracle(drive, CoherentErrorSpec(errors), NoiseSpec(kind, rate))
        # Pattern c is character c of the Sylvester matrix, (-1)^popcount(c & p),
        # at the drive words' group elements p.
        original, patterns = pst_core._pattern_weights, []

        def recording(error_rows, signs, drive_rows):
            patterns.append(signs.tolist())
            return original(error_rows, signs, drive_rows)

        monkeypatch.setattr(pst_core, "_pattern_weights", recording)
        pst_channel(drive, CoherentErrorSpec(errors), NoiseSpec(kind, rate))
        group, position, _ = pst_core._coset_index(drive)
        assert patterns == [[[(-1) ** (c & int(p)).bit_count() for p in position]
                             for c in range(group.size)]]

    @pytest.mark.parametrize("kind", ["pauli_z", "amplitude_damping"])
    def test_explicit_noise_targets(self, kind):
        assert_matches_oracle(drive_zx(2.5), table1_error(), NoiseSpec(kind, 3.0, (1,)))
        drive = DriveSpec((("ZZI", 1.0), ("XIX", 0.3)), 0.5)
        err = CoherentErrorSpec((("XXY", 0.2), ("YZI", 0.6)))
        assert_matches_oracle(drive, err, NoiseSpec(kind, 0.4, (2, 0)))

    def test_negative_error_scale(self):
        k = assert_matches_oracle(
            drive_zx(2.5), table1_error(scale=-0.7), NoiseSpec("amplitude_damping", 3.0)
        )
        assert_trace_preserving(k)

    def test_multi_term_drive_expms_only_realized_patterns(self, expm_calls):
        # XX = XI * IX, so its sign is the product of the other two: only 4
        # of the 8 sign patterns occur, and only those get an expm.
        err = CoherentErrorSpec(DEPENDENT_ERRORS)
        noise = NoiseSpec("amplitude_damping", 0.5)
        k = pst_channel(DEPENDENT_DRIVE, err, noise)
        assert len(expm_calls) == 4
        assert np.abs(k - brute_force_channel(DEPENDENT_DRIVE, err, noise)).max() <= 1e-13

    def test_single_drive_needs_two_expms(self, expm_calls, hermitian_calls):
        # Noise-free patterns (no noise, or a zero rate) exponentiate their
        # 8x8 Hamiltonians as one stack and run no Liouville expm; a
        # dissipative channel runs one 64x64 expm per realized pattern.
        drive = DriveSpec.single("ZXY", 0.5)
        err = CoherentErrorSpec((("XXY", 0.2),))
        for noise in (NoiseSpec(), NoiseSpec("amplitude_damping", 0.0)):
            hermitian_calls.clear()
            pst_channel(drive, err, noise)
            assert expm_calls == []
            assert hermitian_calls == [(8, 8), (8, 8)]
            assert hermitian_calls.calls == 1
        hermitian_calls.clear()
        pst_channel(drive, err, NoiseSpec("amplitude_damping", 0.5))
        assert expm_calls == [(64, 64), (64, 64)]
        assert hermitian_calls == []

    def test_noiseless_stacks_hold_whole_specs_up_to_the_entry_bound(self, hermitian_calls):
        # Two 4 x 4 patterns per spec: E / 32 specs per stacked eigh.
        per_stack = pst_core._EXPM_STACK_ENTRIES // (2 * 4**2)
        errs = [table1_error(s) for s in np.linspace(-1.0, 1.0, 2 * per_stack + 3)]
        twirled_channels(drive_zx(), errs)
        assert hermitian_calls == [(4, 4)] * 2 * len(errs)
        assert hermitian_calls.calls == 3


@pytest.fixture
def logm_calls(monkeypatch):
    """Shapes of the inputs `pst_core` takes principal logs of."""
    calls = []

    def counting_logm(m):
        calls.append(np.shape(m))
        return logm_principal(m)

    monkeypatch.setattr(pst_core, "logm_principal", counting_logm)
    return calls


class TestCosetBlocks:
    def test_word_index_is_the_group_position(self):
        for n in (1, 2, 3):
            group = enumerate_group(n)
            assert [w.index for w in group] == list(range(4**n))
            assert [w.label for w in group] == [
                "".join(letters) for letters in itertools.product("IXYZ", repeat=n)]

    @pytest.mark.parametrize(
        "drive, errors, noise",
        [
            (drive_zx(), TABLE1_ERRORS, NoiseSpec()),
            (drive_zx(), TABLE1_ERRORS, NoiseSpec("amplitude_damping", 3.0)),
            # Both logs reject the channel: an eigenvalue sits on the cut.
            (drive_zx(2.5), TABLE1_ERRORS, NoiseSpec("amplitude_damping", 3.0)),
            (DEPENDENT_DRIVE, DEPENDENT_ERRORS, NoiseSpec("pauli_z", 0.5)),
            (DriveSpec.single("ZXY", 0.5), (("XXY", 0.2), ("YZI", 0.6)), NoiseSpec()),
        ],
        ids=["n2", "n2-damping", "n2-damping-on-cut", "dependent", "n3"],
    )
    def test_channel_is_block_sparse_and_its_log_matches_dense(self, drive, errors, noise):
        err = CoherentErrorSpec(errors)
        assert_coset_block_sparse(brute_force_channel(drive, err, noise), drive)
        assert_block_log_matches_dense(drive, err, noise)

    @pytest.mark.parametrize("label, errors", [
        ("ZX", TABLE1_ERRORS),
        ("ZXY", (("XXY", 0.2), ("YZI", 0.6), ("IIZ", 0.1))),
    ])
    def test_table1_logs_one_stack_of_two_by_two_blocks(self, logm_calls, label, errors):
        # One drive word generates <D> = {I, P}: 4^n / 2 cosets of two
        # words each, and no dense 4^n x 4^n log.
        report = run_table1(Table1Config(drive=label, errors=errors))
        assert logm_calls == [(4**len(label) // 2, 2, 2)]
        assert abs(report.pst[label] - report.theoretical_drive_coeff) <= 1e-2

    def test_dependent_drive_logs_blocks_of_four(self, logm_calls):
        # XI, IX and XX generate a group of 4 words: 4 cosets of 4.
        block_log_weights(DEPENDENT_DRIVE, CoherentErrorSpec(DEPENDENT_ERRORS))
        assert logm_calls == [(4, 4, 4)]

    def test_branch_failure_propagates(self):
        drive = DriveSpec.single("ZX", math.pi / 2)
        with pytest.raises(BranchCutError):
            block_log_weights(drive)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_transfer_is_the_dense_change_of_basis(self, n):
        # B m B^dag inverts B^dag m B with B built densely, either way round.
        rng = np.random.default_rng(n)
        m = rng.normal(size=(4**n,) * 2) + 1j * rng.normal(size=(4**n,) * 2)
        np.testing.assert_allclose(pauli._liouville_view(pauli_transfer_matrix(m)), m,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(pauli_transfer_matrix(pauli._liouville_view(m)), m,
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutator_transfer_is_the_superoperator_in_the_pauli_basis(self, n):
        rng = np.random.default_rng(n)
        weights = rng.normal(size=4**n)
        h = sum(c * matrix_of(word) for word, c in zip(enumerate_group(n), weights))
        superop = -1j * hamiltonian_superop(h)
        expected = pauli_transfer_matrix(superop)
        rows = np.zeros((4, 4**n))
        rows[0, ::2], rows[2], rows[3, 1::2] = weights[::2], weights, weights[1::2]
        got = pst_core._commutator_transfers(rows, n)
        assert got.dtype == float
        assert np.abs(got[2] - expected).max() <= 1e-13
        assert np.abs(pauli._liouville_view(got[2]) - superop).max() <= 1e-13
        # Each row of the stack is its own transfer matrix: the weights are
        # linear, and the zero row is the zero matrix.
        assert np.array_equal(got[1], np.zeros_like(expected))
        assert np.abs(got[0] + got[3] - got[2]).max() <= 1e-13

    @pytest.mark.parametrize("drive, errors", [
        (drive_zx(2.5), TABLE1_ERRORS),
        (DEPENDENT_DRIVE, DEPENDENT_ERRORS),
    ], ids=["n2", "dependent"])
    @pytest.mark.parametrize("noise", [
        NoiseSpec(), NoiseSpec("pauli_z", 3.0), NoiseSpec("amplitude_damping", 3.0, (0,)),
    ], ids=["none", "pauli_z", "amplitude_damping"])
    def test_many_specs_equal_one_spec_at_a_time(self, drive, errors, noise):
        # A stack holds at most E / (2 * d^2) specs of two or more d x d
        # patterns, 16 x 16 noisy ones or 4 x 4 noiseless ones, so the
        # boundaries of the stacked exponentials fall inside this list; some
        # specs carry fewer words.
        side = 4 if noise.kind == "none" else 16
        count = 2 * (pst_core._EXPM_STACK_ENTRIES // (2 * side**2)) + 3
        errs = [CoherentErrorSpec(errors, scale=s) for s in np.linspace(-1.0, 1.0, count)]
        errs[3] = CoherentErrorSpec()
        errs[count // 2] = CoherentErrorSpec(errors[:1], scale=0.7)
        channels = twirled_channels(drive, errs, noise)
        assert len(channels) == len(errs)
        for err, channel in zip(errs, channels):
            [single] = twirled_channels(drive, [err], noise)
            assert np.array_equal(channel.blocks, single.blocks)
            assert np.array_equal(channel.cosets, single.cosets)
            assert channel.tau == single.tau == drive.tau


class TestTwirledChannel:
    @pytest.mark.parametrize("noise", [
        NoiseSpec(), NoiseSpec("pauli_z", 3.0), NoiseSpec("amplitude_damping", 3.0, (0,)),
    ], ids=["none", "pauli_z", "amplitude_damping"])
    def test_dense_is_pst_channel(self, noise):
        err = table1_error()
        assert np.array_equal(twirled(drive_zx(), err, noise).dense(),
                              pst_channel(drive_zx(), err, noise))

    @pytest.mark.parametrize("other", [DriveSpec.single("XZ", 0.5), DriveSpec.single("ZXY", 0.5)],
                             ids=["other-group", "other-register"])
    def test_distance_refuses_another_drive_group(self, other):
        with pytest.raises(ValueError, match="cosets of different drive groups"):
            twirled(drive_zx()).distance(twirled(other))

    def test_distances_are_one_distance_at_a_time(self):
        reference = twirled(drive_zx())
        channels = twirled_channels(drive_zx(), [table1_error(s) for s in (-1.0, 0.0, 0.5)],
                                    NoiseSpec("amplitude_damping", 3.0))
        assert reference.distances(channels) == [k.distance(reference) for k in channels]
        assert reference.distances([]) == []
        with pytest.raises(ValueError, match="cosets of different drive groups"):
            reference.distances([*channels, twirled(DriveSpec.single("XZ", 0.5))])

    def test_equality_is_identity(self):
        first, second = twirled_channels(drive_zx(), [table1_error()] * 2)
        assert np.array_equal(first.blocks, second.blocks)
        assert first != second
        assert first == first
        assert len({first, second}) == 2


class TestChannelValidation:
    def test_error_word_equal_to_drive_word(self):
        with pytest.raises(ValueError, match="coincides with a drive Pauli"):
            pst_channel(drive_zx(), CoherentErrorSpec((("ZX", 0.1),)))

    def test_register_size_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            pst_channel(drive_zx(), CoherentErrorSpec((("XXX", 0.1),)))

    def test_compatible_words_are_compared_without_labels(self, monkeypatch):
        drive, err = drive_zx(), table1_error()
        monkeypatch.setattr(PauliString, "label",
                            property(lambda self: pytest.fail("a label was built")))
        check_drive_error_compat(drive, err)

    def test_noise_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pst_channel(drive_zx(), table1_error(), NoiseSpec("pauli_z", 1.0, (2,)))

    def test_qubit_bound(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "1")
        with pytest.raises(ResourceLimitError):
            pst_channel(drive_zx())

    def test_resolution_refusal_names_the_first_refused_spec(self):
        # One noiseless chunk: the spec at scale 1e8 (27 squarings) comes
        # before the larger one at -1e9 (31 squarings), and is named.
        errs = [table1_error(scale) for scale in (1.0, 1e8, -1e9)]
        with pytest.raises(ResolutionError, match=re.escape(
            "1-norm 6.000e+08, which takes 27 squarings to exponentiate, past the 26"
            " that keep rounding below sqrt(eps) (the first refused spec has error"
            " scale 100000000.0); reduce the error scale or tau"
        )):
            twirled_channels(drive_zx(2.5), errs)


class TestEffectiveGenerator:
    def test_ideal_gate_reads_one_on_drive(self):
        eff = effective_generator(ideal_channel(drive_zx()), 0.5)
        assert eff.coefficient("ZX") == pytest.approx(1.0, abs=1e-12)
        for word, value in eff.hamiltonian_coeffs.items():
            if word.label != "ZX":
                assert abs(value) <= 1e-12
        assert eff.remainder_norm() <= 1e-10

    def test_reconstruction_invariant(self):
        # Channel log with a small Hermitian contamination on top of the
        # drive: rebuilt -i tau sum + remainder equals the log.
        rng = np.random.default_rng(23)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        hermitian = 0.01 * (a + a.conj().T) / 2
        g = -1j * 0.5 * word_superop("ZX") + hermitian
        eff = effective_generator(expm(g), 0.5)
        np.testing.assert_allclose(
            eff.reconstructed(), logm_principal(expm(g)), atol=1e-10
        )

    def test_partial_trace_projection_matches_superoperators(self):
        k = pst_channel(drive_zx(), table1_error(), NoiseSpec("amplitude_damping", 0.5))
        eff = effective_generator(k, 0.5)
        reference = superop_projection(logm_principal(k), 0.5)
        assert eff.hamiltonian_coeffs.keys() == reference.keys()
        for word, value in reference.items():
            assert abs(eff.hamiltonian_coeffs[word] - value) <= 1e-15
        np.testing.assert_allclose(eff.reconstructed(), logm_principal(k), atol=1e-13)

    def test_generator_projection_matches_superoperators(self):
        # A generator with a drive, a Hermitian contamination and an
        # amplitude-damping dissipator, projected with no log in between.
        rng = np.random.default_rng(29)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        g = (-1j * 0.5 * word_superop("ZX") + 0.1 * (a + a.conj().T) / 2
             + dissipator_superop(NoiseSpec("amplitude_damping", 0.7), 2))
        eff = EffectiveGenerator.from_generator(g, 0.5)
        reference = superop_projection(g, 0.5)
        assert eff.hamiltonian_coeffs.keys() == reference.keys()
        for word, value in reference.items():
            assert abs(eff.hamiltonian_coeffs[word] - value) <= 1e-15
        np.testing.assert_allclose(eff.reconstructed(), g, rtol=0, atol=1e-13)

    def test_channel_extraction_projects_the_principal_log(self):
        k = pst_channel(drive_zx(), table1_error(), NoiseSpec("amplitude_damping", 0.5))
        eff = effective_generator(k, 0.5)
        direct = EffectiveGenerator.from_generator(logm_principal(k), 0.5)
        assert eff.hamiltonian_coeffs == direct.hamiltonian_coeffs
        assert np.array_equal(eff.dissipative_remainder, direct.dissipative_remainder)

    def test_excludes_identity_word(self):
        eff = effective_generator(ideal_channel(drive_zx()), 0.5)
        assert all(not word.is_identity for word in eff.hamiltonian_coeffs)
        assert len(eff.hamiltonian_coeffs) == 15

    def test_branch_failure_propagates(self):
        # tau = pi/2 parks the drive eigenphases at -+pi, on the cut.
        drive = DriveSpec.single("ZX", math.pi / 2)
        with pytest.raises(BranchCutError):
            effective_generator(ideal_channel(drive), math.pi / 2)

    @pytest.mark.xfail(
        raises=DefectiveMatrixError, strict=True,
        reason="Liouvillian exceptional point: the eigendecomposition log"
               " reconstructs the channel only to about 1e-9",
    )
    def test_exceptional_point_log(self):
        # X drive with amplitude damping at rate 4.0, tau 0.5: the channel
        # is (nearly) defective, but its principal log is well defined.
        k = pst_channel(DriveSpec.single("X", 0.5),
                        noise=NoiseSpec("amplitude_damping", 4.0))
        eff = effective_generator(k, 0.5)
        np.testing.assert_allclose(expm(eff.reconstructed()), k, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("label", ["X", "ZX"])
    def test_block_log_refuses_the_exceptional_point(self, label):
        # The block log `table1` reads misses these blocks by about 5e-10
        # of their norm, past the 1e-12 that `effective_generator` allows.
        channel = twirled(DriveSpec.single(label, 0.5), noise=NoiseSpec("amplitude_damping", 4.0))
        with pytest.raises(DefectiveMatrixError, match="reconstructs the channel only to"):
            channel.weights()

    def test_log_check_judges_each_block_by_its_own_norm(self):
        # Beside a block of norm 1e6 the exceptional blocks would pass a
        # bound scaled by the stack's norm; each is judged by its own.
        channel = twirled(DriveSpec.single("X", 0.5), noise=NoiseSpec("amplitude_damping", 4.0))
        large = 1e6 * np.eye(2)[None]
        np.testing.assert_allclose(logm_principal(large), np.log(1e6) * large / 1e6)
        with pytest.raises(DefectiveMatrixError):
            logm_principal(np.concatenate([channel.blocks, large]))

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            effective_generator(np.eye(16), 0.0)
        with pytest.raises(ValueError):
            effective_generator(np.eye(8), 0.5)

    def test_rejects_a_non_finite_generator(self):
        # The projection of a nan generator used to be nan, without an error.
        generator = np.zeros((16, 16), dtype=complex)
        generator[3, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EffectiveGenerator.from_generator(generator, 0.5)
        with pytest.raises(ValueError, match="expected a square matrix"):
            EffectiveGenerator.from_generator(np.zeros((2, 16, 16)), 0.5)

    @pytest.mark.parametrize("dim", [0, 1, 2, 8])
    def test_rejects_dimensions_off_the_qubit_registers(self, dim):
        with pytest.raises(ValueError, match="is not a power of 4"):
            EffectiveGenerator.from_generator(np.zeros((dim, dim)), 0.5)

    def test_qubit_bound(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "1")
        with pytest.raises(ResourceLimitError):
            EffectiveGenerator.from_generator(np.zeros((16, 16)), 0.5)

    def test_word_on_another_register_is_a_value_error(self):
        eff = effective_generator(ideal_channel(drive_zx()), 0.5)
        with pytest.raises(ValueError, match="ZXI has 3 qubits, the Hamiltonian 2"):
            eff.coefficient("ZXI")
        with pytest.raises(ValueError, match="Z has 1 qubits, the Hamiltonian 2"):
            eff.coefficient(pauli_from_label("Z"))

    def test_identity_word_has_no_weight(self):
        eff = effective_generator(ideal_channel(drive_zx()), 0.5)
        assert eff.coefficient("II") == 0.0
        assert eff.coefficient(identity_string(2)) == 0.0

    def test_equality_is_identity(self):
        # Generators with different weights at the same tau must differ.
        ideal = effective_generator(ideal_channel(drive_zx()), 0.5)
        err = CoherentErrorSpec((("XX", 0.2), ("YY", 0.6)))
        twirled = effective_generator(pst_channel(drive_zx(), err), 0.5)
        assert twirled.coefficient("ZX") - ideal.coefficient("ZX") > 3e-3
        assert ideal != twirled
        assert ideal == ideal
        assert len({ideal, twirled}) == 2

    def test_json_serialization(self):
        eff = effective_generator(ideal_channel(drive_zx()), 0.5)
        payload = json.loads(eff.to_json())
        assert payload["tau"] == 0.5
        assert payload["coeffs"]["ZX"] == pytest.approx(1.0, abs=1e-12)
        assert set(payload) == {"tau", "coeffs", "remainder_norm"}
        assert payload["remainder_norm"] >= 0.0


class TestCalibration:
    @pytest.mark.parametrize("theta", [0.3, 1.0, math.pi])
    def test_error_free_scan_is_half_theta(self, theta):
        assert calibrate_tau(theta, 0.0) == theta / 2

    def test_residual_contract(self):
        tau = calibrate_tau(1.0, 0.24)
        assert tau < 0.5
        assert abs(tau * over_rotation_factor(tau, 0.24) - 0.5) <= 1e-12

    def test_nonlinearity_witness(self):
        # Halving the target angle does not halve the calibrated duration.
        full = calibrate_tau(1.0, 0.24)
        half = calibrate_tau(0.5, 0.24)
        assert abs(half - full / 2) > 1e-4

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            calibrate_tau(0.0, 0.1)
        with pytest.raises(ValueError):
            calibrate_tau(3.5, 0.1)
        with pytest.raises(ValueError):
            calibrate_tau(1.0, -0.1)

    def test_bracket_failure_is_typed(self, monkeypatch):
        monkeypatch.setattr(sinc_law, "over_rotation_factor", lambda tau, sum_h2: 0.5)
        with pytest.raises(CalibrationError):
            calibrate_tau(1.0, 0.24)
        assert issubclass(CalibrationError, ArithmeticError)

    def test_monotone_in_error_weight(self):
        taus = [calibrate_tau(1.0, s) for s in (0.0, 0.1, 0.24, 0.5)]
        assert all(a > b for a, b in zip(taus, taus[1:]))


class TestEffectiveGeneratorDataclass:
    def test_coefficient_accepts_words_and_labels(self):
        eff = effective_generator(ideal_channel(drive_zx()), 0.5)
        word = pauli_from_label("ZX")
        assert eff.coefficient(word) == eff.coefficient("ZX")
        assert isinstance(eff, EffectiveGenerator)


class TestOverRotationLaw:
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.8])
    def test_second_order_regime_agreement(self, tau):
        # Extracted drive-weight excess vs the sinc-law prediction, within
        # 10% relative while the anticommuting weight stays at or below 0.1.
        drive = DriveSpec.single("ZX", tau)
        err = CoherentErrorSpec.from_amplitudes({"XX": 0.15, "ZZ": 0.1, "YX": 0.2})
        sum_h2 = 0.15**2 + 0.1**2 + 0.2**2
        assert sum_h2 <= 0.1
        eff = effective_generator(pst_channel(drive, err), tau)
        excess = eff.coefficient("ZX") - 1.0
        predicted = over_rotation_factor(tau, sum_h2) - 1.0
        assert abs(excess - predicted) / excess <= 0.10


class TestMultiTermDrive:
    def test_ensemble_preserves_multi_term_gate(self):
        # The sign-flip construction works for any Pauli sum, not just a
        # single word: with no errors every realization reproduces the gate.
        drive = DriveSpec((("ZZ", 1.0), ("XI", 0.3)), 0.4)
        reference = ideal_channel(drive)
        np.testing.assert_allclose(pst_channel(drive), reference, atol=1e-12)
        alpha = pauli_from_label("XZ")
        g = pst_realization(drive, CoherentErrorSpec(), NoiseSpec(), alpha)
        # XZ anticommutes with ZZ and commutes with XI: only ZZ flips.
        expected = -1j * 0.4 * (-1.0 * word_superop("ZZ") + 0.3 * word_superop("XI"))
        np.testing.assert_allclose(g, expected, atol=1e-13)
        frame = pauli_unitary_superop(alpha)
        np.testing.assert_allclose(frame @ expm(g) @ frame, reference, atol=1e-12)
