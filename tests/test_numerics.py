"""Tests for expm, the principal log, operator norms, and quadrature."""

import math
import re
import warnings

import numpy as np
import pytest

from pstlab import numerics, pst_core
from pstlab.errors import (
    BranchCutError,
    DefectiveMatrixError,
    QuadratureError,
    ResolutionError,
)
from pstlab.experiments import ParitySweepConfig, run_parity_sweep
from pstlab.liouville import (
    NoiseSpec,
    dissipator_superop,
    hamiltonian_superop,
    pauli_unitary_superop,
)
from pstlab.numerics import (
    _THETA_13,
    QUADRATURE_ORDER,
    QuadratureResult,
    _composite_rule,
    expm,
    expm_hermitian,
    interval_quadrature,
    logm_principal,
    op_norm,
    squarings_for,
    triangle_quadrature,
)
from pstlab.pauli import enumerate_group, matrix_of, pauli_from_label
from pstlab.sinc_law import sinc

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # without the `test` extra the log property is not collected
    st = None

SIGMA_Z = np.diag([1.0 + 0j, -1.0 + 0j])


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_pauli_rotation_diagonal(self):
        tau = 0.5
        expected = np.diag([np.exp(-1j * tau), np.exp(1j * tau)])
        np.testing.assert_allclose(expm(-1j * tau * SIGMA_Z), expected, atol=1e-14)

    def test_generates_pauli_unitary_superop(self):
        for p in enumerate_group(1):
            lhs = expm(-1j * (np.pi / 2) * hamiltonian_superop(matrix_of(p)))
            np.testing.assert_allclose(lhs, pauli_unitary_superop(p), atol=1e-12)

    def test_halving_consistency(self):
        # expm(m) = expm(m/2)^2 to 1e-12 relative in Frobenius norm.
        rng = np.random.default_rng(42)
        for scale in (0.5, 2.0, 8.0):
            m = scale * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) / 3
            full = expm(m)
            half = expm(m / 2)
            delta = np.linalg.norm(full - half @ half) / np.linalg.norm(full)
            assert delta < 1e-12

    def test_hermitian_exponential_matches_expm(self):
        # exp(-i t h) from eigh, degenerate spectra included.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for h in (a + a.conj().T, np.kron(SIGMA_Z, np.eye(4)), np.zeros((8, 8))):
            for t in (0.3, -1.7):
                np.testing.assert_allclose(
                    expm_hermitian(h, t), expm(-1j * t * h), rtol=0, atol=1e-13
                )

    @pytest.mark.parametrize("m, norm, squarings", [
        # exp(1000) overflows; so does the squared Pade approximant of
        # -i 1e20 ZX, although its exponential is unitary.
        (np.array([[1000.0]]), "1.000e+03", 8),
        (-1e20j * matrix_of(pauli_from_label("ZX")), "1.000e+20", 65),
    ], ids=["exp-1000", "rotation-1e20"])
    def test_overflow_is_typed(self, m, norm, squarings):
        message = re.escape(f"1-norm {norm} overflows in its {squarings} squarings")
        with pytest.raises(ResolutionError, match=message):
            expm(m)

    def test_stack_equals_one_matrix_at_a_time(self, monkeypatch):
        # A stack that mixes squaring counts (a zero matrix, 1-norms just
        # below and just above theta_13, and the default sweep's
        # generators) gives each matrix the bits it gets alone.
        generators = []

        def recording(m):
            generators.extend(np.array(m).reshape(-1, *np.shape(m)[-2:]))
            return expm(m)

        monkeypatch.setattr(pst_core, "expm", recording)
        run_parity_sweep(ParitySweepConfig())
        assert len(generators) == 164
        rng = np.random.default_rng(5)
        edges = rng.normal(size=(2, 16, 16)) + 1j * rng.normal(size=(2, 16, 16))
        edges *= (np.array([1 - 1e-12, 1 + 1e-12]) * _THETA_13
                  / np.abs(edges).sum(axis=-2).max(axis=-1))[:, None, None]
        stack = np.concatenate([generators[:80], edges[:1], np.zeros((2, 16, 16)),
                                generators[80:], edges[1:]])
        counts = {squarings_for(np.abs(m).sum(axis=0).max()) for m in stack}
        assert len(counts) >= 3 and 0 in counts and 1 in counts
        got = expm(stack)
        for m, exponential in zip(stack, got):
            assert np.array_equal(exponential, expm(m))
        assert np.array_equal(expm(stack.reshape(2, -1, 16, 16)), got.reshape(2, -1, 16, 16))

    def test_mixed_counts_take_one_pade_evaluation(self, monkeypatch):
        # The stack of test_stack_equals_one_matrix_at_a_time goes through
        # one Pade evaluation, however many squaring counts it mixes.
        generators = []

        def recording(m):
            generators.extend(np.array(m).reshape(-1, *np.shape(m)[-2:]))
            return expm(m)

        monkeypatch.setattr(pst_core, "expm", recording)
        run_parity_sweep(ParitySweepConfig())
        rng = np.random.default_rng(5)
        edges = rng.normal(size=(2, 16, 16)) + 1j * rng.normal(size=(2, 16, 16))
        edges *= (np.array([1 - 1e-12, 1 + 1e-12]) * _THETA_13
                  / np.abs(edges).sum(axis=-2).max(axis=-1))[:, None, None]
        stack = np.concatenate([generators[:80], edges[:1], np.zeros((2, 16, 16)),
                                generators[80:], edges[1:]])
        assert len({squarings_for(np.abs(m).sum(axis=0).max()) for m in stack}) >= 3
        pade, evaluated = numerics._pade_13, []

        def counting(a):
            evaluated.append(len(a))
            return pade(a)

        monkeypatch.setattr(numerics, "_pade_13", counting)
        expm(stack)
        assert evaluated == [len(stack)]

    def test_noisy_patterns_are_exponentiated_in_real_arithmetic(self, monkeypatch):
        # `_pattern_bands` hands `expm` the real Pauli-transfer generators,
        # and their Pade step runs in float64.
        handed, evaluated = [], []
        pade = numerics._pade_13

        def recording(m):
            handed.append(m.dtype)
            return expm(m)

        def spying(a):
            evaluated.append(a.dtype)
            return pade(a)

        monkeypatch.setattr(pst_core, "expm", recording)
        monkeypatch.setattr(numerics, "_pade_13", spying)
        run_parity_sweep(ParitySweepConfig(deltas=(-1.0, 1.0)))
        assert len(handed) == 2
        assert set(handed) == set(evaluated) == {np.dtype(np.float64)}

    def test_stack_overflow_names_the_overflowing_matrix(self):
        # exp(-1e4) underflows to 0 and resolves; exp(1000) overflows, and
        # the message carries its norm and squarings, not the larger one's.
        stack = np.array([[[0.5]], [[-1e4]], [[1000.0]], [[-3.0]]])
        with pytest.raises(ResolutionError,
                           match=re.escape("1-norm 1.000e+03 overflows in its 8 squarings")):
            expm(stack)
        with pytest.raises(ResolutionError, match="1-norm inf overflows"):
            expm(np.stack([np.eye(2), np.full((2, 2), 1e308)]))

    def test_squaring_count(self):
        assert squarings_for(0.0) == squarings_for(_THETA_13) == 0
        assert squarings_for(_THETA_13 * (1 + 1e-12)) == 1
        assert squarings_for(6e17) == 57

    def test_norm_overflow_is_typed(self):
        with pytest.raises(ResolutionError, match="1-norm inf overflows"):
            expm(np.full((2, 2), 1e308))

    def test_rejects_bad_input(self):
        for exponential in (expm, lambda m: expm_hermitian(m, 1.0)):
            with pytest.raises(ValueError):
                exponential(np.zeros((2, 3)))
            with pytest.raises(ValueError):
                exponential(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_hermitian_exponential_rejects_a_non_finite_time(self, t):
        # exp(-i t h) of a non-finite t would be nan without an error.
        with pytest.raises(ValueError, match="time must be finite"):
            expm_hermitian(SIGMA_Z, t)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (2, 3, 8, 8)],
                             ids=["2-D", "3-D", "4-D"])
    def test_stacked_hermitian_exponential_is_one_call_per_matrix(self, shape):
        # Degenerate spectra included: the stack is one batched eigh, and
        # each matrix's arithmetic is what it is alone, bit for bit.
        rng = np.random.default_rng(len(shape))
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h = a + np.conj(np.swapaxes(a, -1, -2))
        h.reshape(-1, *shape[-2:])[0] = np.kron(SIGMA_Z, np.eye(shape[-1] // 2))
        stacked = expm_hermitian(h, 0.7)
        assert stacked.shape == shape
        alone = [expm_hermitian(m, 0.7) for m in h.reshape(-1, *shape[-2:])]
        assert np.array_equal(stacked, np.reshape(alone, shape))


@pytest.fixture
def scipy_expm():
    return pytest.importorskip("scipy.linalg").expm


def assert_matches_scipy(m, scipy_expm):
    expected = scipy_expm(m)
    np.testing.assert_allclose(
        expm(m), expected, rtol=0, atol=1e-13 * max(1.0, np.abs(expected).max())
    )


def lindbladian(drive, kind, rate, tau):
    """noise - i tau H(drive) of a one-word drive with unit coefficient."""
    word = pauli_from_label(drive)
    return (dissipator_superop(NoiseSpec(kind, rate), word.n_qubits)
            - 1.0j * tau * hamiltonian_superop(matrix_of(word)))


class TestExpmOracle:
    """The Pade exponential against scipy's, where scipy is installed."""

    # The 1-norms where the oracle switches between its Pade degrees 3, 5,
    # 7 and 9 (Higham 2005, table 2.3) and theta_13, where the in-package
    # expm starts to square, each crossed from below and from above; then
    # norms that need 2 to 5 squarings.
    THETAS = [1.495585217958292e-2, 2.539398330063230e-1,
              9.504178996162932e-1, 2.097847961257068e0, _THETA_13]
    NORMS = [theta * f for theta in THETAS for f in (0.9, 1.1)]
    NORMS += [20.0, 50.0, 100.0]

    @pytest.mark.parametrize("norm", NORMS, ids=[f"{n:.3g}" for n in NORMS])
    def test_random_complex_matrices(self, norm, scipy_expm):
        rng = np.random.default_rng(int(1000 * norm))
        for d in (2, 4, 8, 16):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m *= norm / np.abs(m).sum(axis=0).max()
            assert_matches_scipy(m, scipy_expm)

    @pytest.mark.parametrize("kind", ["pauli_z", "amplitude_damping"])
    def test_strong_lindbladians_need_many_squarings(self, kind, scipy_expm):
        # Rate 250 at tau 2.5: 1-norm about 1e3, so 8 squarings.  Random
        # matrices of that norm are too ill-conditioned for a 1e-13
        # comparison; the channel of a Lindbladian stays bounded.
        m = lindbladian("ZX", kind, 250.0, 2.5)
        assert np.abs(m).sum(axis=0).max() > 900
        assert_matches_scipy(m, scipy_expm)

    def test_parity_sweep_generators_at_the_grid_ends(self, scipy_expm, monkeypatch):
        generators = []

        def recording(m):
            generators.extend(np.array(m).reshape(-1, *np.shape(m)[-2:]))
            return expm(m)

        monkeypatch.setattr(pst_core, "expm", recording)
        run_parity_sweep(ParitySweepConfig(deltas=(-1.0, 1.0)))
        # Two noise kinds, two deltas, two drive-sign patterns each, counted
        # matrix by matrix through the stacks.
        assert len(generators) == 8
        for m in generators:
            assert_matches_scipy(m, scipy_expm)

    def test_stacked_input(self, scipy_expm):
        # Norms on both sides of theta_13 and past it, in one (2, 4, d, d)
        # stack, each matrix against scipy's exponential of it alone.
        rng = np.random.default_rng(17)
        norms = [0.1, 0.9 * _THETA_13, 1.1 * _THETA_13, 3.0, 20.0, 0.0, 50.0, 100.0]
        stack = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        stack *= (np.array(norms) / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]
        got = expm(stack.reshape(2, 4, 4, 4))
        assert got.shape == (2, 4, 4, 4)
        for m, exponential in zip(stack, got.reshape(8, 4, 4)):
            expected = scipy_expm(m)
            np.testing.assert_allclose(
                exponential, expected, rtol=0, atol=1e-13 * max(1.0, np.abs(expected).max())
            )

    @pytest.mark.parametrize("drive", ["X", "ZX"])
    def test_exceptional_point_liouvillian(self, drive, scipy_expm):
        assert_matches_scipy(lindbladian(drive, "amplitude_damping", 4.0, 0.5),
                             scipy_expm)


class TestLogmPrincipal:
    def test_identity(self):
        np.testing.assert_allclose(logm_principal(np.eye(4)), 0, atol=1e-14)

    def test_round_trip_drive_generator(self):
        # Eigenvalues of the ZX generator are {0, +-2}, so tau = 0.5 keeps
        # all eigenphases at +-1, well inside (-pi, pi).
        g = -1j * 0.5 * hamiltonian_superop(matrix_of(pauli_from_label("ZX")))
        np.testing.assert_allclose(logm_principal(expm(g)), g, atol=1e-9)

    def test_diagonal_case(self):
        m = np.diag([np.exp(0.3j), np.exp(-0.3j)])
        np.testing.assert_allclose(
            logm_principal(m), np.diag([0.3j, -0.3j]), atol=1e-12
        )

    def test_round_trip_random_antihermitian(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        anti = (a - a.conj().T) / 2
        anti *= 2.0 / max(2.0, np.abs(np.linalg.eigvals(anti)).max())
        np.testing.assert_allclose(logm_principal(expm(anti)), anti, atol=1e-9)

    def test_forward_consistency(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = expm(0.3 * (a - a.conj().T) / 2)
        log = logm_principal(m)
        rel = np.linalg.norm(expm(log) - m) / np.linalg.norm(m)
        assert rel < 1e-9

    def test_branch_cut_error_mentions_tau(self):
        with pytest.raises(BranchCutError, match="tau"):
            logm_principal(np.diag([-1.0 + 0j, 1.0]))

    def test_near_cut_rejected(self):
        with pytest.raises(BranchCutError):
            logm_principal(np.diag([-0.5 + 1e-9j, 1.0]))

    def test_singular_rejected(self):
        with pytest.raises(BranchCutError, match="singular"):
            logm_principal(np.diag([0.0j, 1.0]))

    def test_defective_rejected(self):
        with pytest.raises(ArithmeticError):
            logm_principal(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_defective_error_is_typed(self):
        # A Jordan block has no eigenbasis; the failure is a typed
        # ArithmeticError subclass, so the CLI still exits with code 2.
        with pytest.raises(DefectiveMatrixError, match="defective"):
            logm_principal(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert issubclass(DefectiveMatrixError, ArithmeticError)


def unitary_stack(count, d, seed):
    """``count`` random d x d unitaries with eigenphases inside (-2, 2)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    anti = (a - a.conj().swapaxes(-1, -2)) / 2
    anti *= 2.0 / max(2.0, np.abs(np.linalg.eigvals(anti)).max())
    return np.stack([expm(block) for block in anti]), anti


class TestStackedLogm:
    def test_each_matrix_of_the_stack_is_logged(self):
        stack, anti = unitary_stack(6, 3, seed=11)
        log = logm_principal(stack)
        assert log.shape == (6, 3, 3)
        np.testing.assert_allclose(log, anti, atol=1e-9)
        for block, block_log in zip(stack, log):
            np.testing.assert_allclose(logm_principal(block), block_log, atol=1e-13)

    def test_leading_axes_are_kept(self):
        stack, _ = unitary_stack(6, 2, seed=12)
        np.testing.assert_array_equal(
            logm_principal(stack.reshape(2, 3, 2, 2)),
            logm_principal(stack).reshape(2, 3, 2, 2),
        )

    def test_block_diagonal_matrix_is_logged_block_by_block(self):
        stack, _ = unitary_stack(4, 2, seed=13)
        dense = np.zeros((8, 8), dtype=complex)
        for b, block in enumerate(stack):
            dense[2 * b:2 * b + 2, 2 * b:2 * b + 2] = block
        blocks_log = logm_principal(stack)
        dense_log = logm_principal(dense)
        for b, block_log in enumerate(blocks_log):
            np.testing.assert_allclose(
                dense_log[2 * b:2 * b + 2, 2 * b:2 * b + 2], block_log, atol=1e-13
            )

    def test_one_block_on_the_cut_rejects_the_stack(self):
        stack, _ = unitary_stack(5, 2, seed=14)
        stack[3] = np.diag([-0.5 + 1e-9j, 1.0])
        with pytest.raises(BranchCutError, match="tau"):
            logm_principal(stack)

    def test_one_defective_block_rejects_the_stack(self):
        stack, _ = unitary_stack(5, 2, seed=15)
        stack[2] = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DefectiveMatrixError, match="defective"):
            logm_principal(stack)

    def test_residual_is_judged_per_block(self):
        # Four well-conditioned blocks of norm about 140 and one nearly
        # defective block of norm 0.84, whose eigenbasis misses it by more
        # than 1e-9 of its own norm but less than 1e-9 of the stack's.  Its
        # log's exponential must give it back to 1e-12 of its own norm,
        # which that eigenbasis cannot; a bound scaled by the norm of the
        # whole stack would let it pass.
        stack, _ = unitary_stack(5, 2, seed=16)
        stack *= 100.0
        similarity = np.array([[1.0, 0.3], [0.2, 1.0]])
        jordan = 0.5 * np.array([[0.5, 1.0], [0.0, 0.5 + 1e-8]])
        stack[1] = similarity @ jordan @ np.linalg.inv(similarity)
        eigvals, eigvecs = np.linalg.eig(stack[1])
        residual = np.linalg.norm(
            (eigvecs * eigvals) @ np.linalg.inv(eigvecs) - stack[1]
        )
        assert 1e-9 * max(1.0, np.linalg.norm(stack[1])) < residual
        assert residual < 1e-9 * np.linalg.norm(stack)
        with pytest.raises(DefectiveMatrixError, match="defective"):
            logm_principal(stack)
        logm_principal(np.delete(stack, 1, axis=0))

    def test_rejects_non_square_stacks(self):
        for shape in ((3,), (4, 2, 3)):
            with pytest.raises(ValueError, match="square"):
                logm_principal(np.ones(shape))


@pytest.fixture
def scipy_logm():
    return pytest.importorskip("scipy.linalg").logm


def similar_to(eigvals, seed):
    """A 2 x 2 matrix with ``eigvals``, diagonalized by a random, well
    conditioned similarity S, and the same similarity of their principal
    logs: (S diag(eigvals) S^-1, S diag(log eigvals) S^-1)."""
    rng = np.random.default_rng(seed)
    similarity = np.eye(2) + 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    inverse = np.linalg.inv(similarity)
    return (similarity @ np.diag(eigvals) @ inverse,
            similarity @ np.diag(np.log(np.asarray(eigvals, dtype=complex))) @ inverse)


class TestClosedFormLog:
    """`numerics._logm_2x2`, the closed-form log of a 2 x 2 stack, under the
    rule of `logm_principal`."""

    def test_a_jordan_block_is_a_removable_case(self):
        # Equal eigenvalues: log[l, l] = 1 / l, and no eigenbasis is needed.
        np.testing.assert_array_equal(numerics._logm_2x2([[1.0, 1.0], [0.0, 1.0]]),
                                      [[0.0, 1.0], [0.0, 0.0]])

    def test_matches_scipy(self, scipy_logm):
        rng = np.random.default_rng(39)
        cases = [scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                 for scale in (0.1, 1.0, 10.0) for _ in range(20)]
        # Real, with real or complex-conjugate eigenvalues off the cut.
        cases += [expm(rng.normal(size=(2, 2))).real for _ in range(20)]
        # Nearly defective: a Jordan block 0.5 [[1, 1], [0, 1 + gap]] in a
        # random basis, down to a gap the eigenbasis cannot resolve.
        similarity = np.array([[1.0, 0.3], [0.2, 1.0]])
        cases += [similarity @ (0.5 * np.array([[1.0, 1.0], [0.0, 1.0 + gap]]))
                  @ np.linalg.inv(similarity) for gap in (1e-2, 1e-5, 1e-8, 1e-12, 0.0)]
        for m in cases:
            expected = scipy_logm(m)
            np.testing.assert_allclose(numerics._logm_2x2(m), expected, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(expected).max()))

    @pytest.mark.parametrize("phase", [3.1289, -3.1289, math.pi - 1e-6])
    def test_the_unwinding_number_near_the_cut(self, phase):
        # Close eigenvalues on either side of the cut: their logs differ by
        # nearly 2 pi i, which 2 atanh(z) alone does not see.
        eigvals = [0.99 * np.exp(1j * phase), 0.99 * np.exp(-1j * phase) * (1 + 1e-3)]
        m, expected = similar_to(eigvals, seed=7)
        _, s = numerics._half_gap(m)
        assert abs(2 * s) <= abs(np.trace(m)) / 2  # the close branch
        np.testing.assert_allclose(numerics._logm_2x2(m), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("gap", [0.0, 1e-9, 0.99e-4, 1.01e-4, 1e-3])
    def test_series_and_quotients_agree_across_their_threshold(self, gap, scipy_logm,
                                                               scipy_expm):
        # Half gaps on both sides of 1e-4, where atanh(z) / z (z = s / mu in
        # the log) and sinh(s) / s (in the exponential) switch to series.
        m = np.array([[0.8 * (1 + gap), 1.0], [0.0, 0.8 * (1 - gap)]])
        np.testing.assert_allclose(numerics._logm_2x2(m), scipy_logm(m), rtol=0, atol=1e-14)
        x = np.array([[0.3 + gap, 1.0], [0.0, 0.3 - gap]])
        np.testing.assert_allclose(numerics._expm_2x2(x), scipy_expm(x), rtol=0, atol=1e-14)

    def test_a_stack_is_logged_matrix_by_matrix(self):
        stack, anti = unitary_stack(6, 2, seed=12)
        log = numerics._logm_2x2(stack.reshape(2, 3, 2, 2))
        assert (log.shape, log.dtype) == ((2, 3, 2, 2), np.complex128)
        np.testing.assert_allclose(log.reshape(6, 2, 2), anti, rtol=0, atol=1e-13)
        for block, block_log in zip(stack, log.reshape(6, 2, 2)):
            np.testing.assert_array_equal(numerics._logm_2x2(block), block_log)
            np.testing.assert_allclose(block_log, logm_principal(block), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [
        np.diag([-1.0 + 0j, 1.0]),
        np.diag([-0.5 + 1e-9j, 1.0]),
        np.diag([0.0j, 1.0]),
        np.array([[-0.7, 0.2], [0.1, -0.4]]),
    ], ids=["on-cut", "near-cut", "singular", "real-negative"])
    def test_refuses_the_cut_as_the_eigenbasis_log_does(self, m):
        # The same message, up to which of two eigenvalues on the cut it names.
        with pytest.raises(BranchCutError) as refused:
            logm_principal(m)
        with pytest.raises(BranchCutError) as closed_form:
            numerics._logm_2x2(m)
        assert (re.sub(r"eigenvalue \S+", "eigenvalue", str(closed_form.value))
                == re.sub(r"eigenvalue \S+", "eigenvalue", str(refused.value)))

    def test_a_reconstruction_that_is_not_finite_is_refused(self):
        # log[l1, l2] b overflows: the log holds an inf, its exponential a nan.
        with np.errstate(all="ignore"), pytest.raises(DefectiveMatrixError, match="nan"):
            numerics._logm_2x2(np.array([[2e-8, 1e308], [0.0, 3e-8]]))

    def test_rejects_other_shapes(self):
        for shape in ((3, 3), (4, 4, 4), (2, 3)):
            with pytest.raises(ValueError):
                numerics._logm_2x2(np.ones(shape))


@pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0), (1, 0, 0)],
                         ids=["0x0", "two-0x0", "one-0x0"])
@pytest.mark.parametrize("function", [expm, logm_principal, lambda m: expm_hermitian(m, 1.0)],
                         ids=["expm", "logm_principal", "expm_hermitian"])
def test_empty_matrices_give_empty_complex_results(function, shape):
    # The 0 x 0 shapes that the square-matrix check accepts.
    result = function(np.zeros(shape))
    assert (result.shape, result.dtype) == (shape, np.complex128)


if st is not None:
    @st.composite
    def log_stacks(draw):
        """1-4 exponentials of small random d x d generators, d in 1..4.
        A Jordan-like generator is a multiple of the identity plus a
        strictly upper triangular (nilpotent) part of scale 1e-16..1, so
        its exponential has one repeated eigenvalue and a nearly
        defective or defective eigenbasis."""
        d = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        generators = []
        for _ in range(draw(st.integers(1, 4))):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            if draw(st.booleans()):
                nilpotent = 10.0 ** draw(st.integers(-16, 0)) * np.triu(g, 1)
                g = rng.normal() * np.eye(d) + nilpotent
            generators.append(draw(st.floats(0.0, 1.5)) * g)
        return expm(np.array(generators))

    def refused(m) -> bool:
        try:
            logm_principal(m)
        except (BranchCutError, DefectiveMatrixError):
            return True
        return False

    class TestLogAcceptanceRule:
        @settings(max_examples=200, deadline=None)
        @given(log_stacks())
        def test_a_stack_obeys_the_rule_matrix_by_matrix(self, stack):
            # Any other exception fails the property.
            alone = [refused(m) for m in stack]
            if refused(stack):
                assert any(alone)
                return
            assert not any(alone)
            logs = logm_principal(stack)
            for m, log in zip(stack, logs):
                miss = np.linalg.norm(expm(log) - m)
                assert miss <= 1e-12 * max(1.0, np.linalg.norm(m))
                np.testing.assert_allclose(log, logm_principal(m), rtol=0, atol=1e-13)

    @st.composite
    def principal_generators(draw):
        """1-4 random 2 x 2 generators whose eigenvalues have imaginary parts
        in [-3, 3], so that each is the principal log of its exponential.
        A Jordan-like generator is a multiple of the identity plus a
        nilpotent part of scale 1e-16..1, so that its exponential is nearly
        defective or defective."""
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        generators = []
        for _ in range(draw(st.integers(1, 4))):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if draw(st.booleans()):
                g = (rng.normal() + 1j * rng.normal()) * np.eye(2) + (
                    10.0 ** draw(st.integers(-16, 0)) * np.triu(g, 1))
            g *= draw(st.floats(0.0, 1.5))
            phase = np.abs(np.linalg.eigvals(g).imag).max()
            generators.append(g * 3.0 / phase if phase > 3.0 else g)
        return np.array(generators)

    class TestClosedFormLogInverse:
        @settings(max_examples=200, deadline=None)
        @given(principal_generators())
        # Subnormal entries, whose quotients overflow numpy's complex division.
        @example(np.array([[[2.79759028e-314 - 1.19190392e-313j,
                             -2.93943078e-314 + 8.04575704e-314j],
                            [1.42498770e-313 + 2.90149641e-313j,
                             2.33410508e-314 + 2.10732509e-313j]]]))
        def test_the_closed_form_inverts_expm(self, generators):
            # Also where the eigenbasis log refuses a nearly defective block.
            stack = expm(generators)
            log = numerics._logm_2x2(stack)
            np.testing.assert_allclose(log, generators, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(generators).max()))
            for m, block_log in zip(stack, log):
                miss = np.linalg.norm(numerics._expm_2x2(block_log) - m)
                assert miss <= 1e-12 * max(1.0, np.linalg.norm(m))

    @st.composite
    def real_stacks(draw):
        """1-6 real d x d matrices, d = 4 or 16 (the Pauli-transfer sizes
        at n = 1 and 2), each of 1-norm theta_13 2^e with e in [-8, 2], so
        that a stack mixes 0, 1 and 2 squarings; one may be zero."""
        d = draw(st.sampled_from([4, 16]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        stack = rng.normal(size=(draw(st.integers(1, 6)), d, d))
        exponents = draw(st.lists(st.floats(-8.0, 2.0), min_size=len(stack),
                                  max_size=len(stack)))
        stack *= (_THETA_13 * 2.0 ** np.array(exponents)
                  / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]
        if draw(st.booleans()):
            stack[draw(st.integers(0, len(stack) - 1))] = 0.0
        return stack

    class TestRealExpm:
        @settings(max_examples=100, deadline=None)
        @given(real_stacks())
        def test_a_real_stack_is_exponentiated_in_its_field(self, stack):
            got = expm(stack)
            assert got.dtype == np.complex128
            assert not got.imag.any()
            complex_field = expm(stack.astype(complex))
            np.testing.assert_allclose(
                got, complex_field, rtol=0,
                atol=1e-14 * max(1.0, np.abs(complex_field).max()))
            for m, exponential in zip(stack, got):
                assert np.array_equal(exponential, expm(m))


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_unitary(self):
        assert op_norm(pauli_unitary_superop(pauli_from_label("ZX"))) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_kron_multiplicative(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert op_norm(np.kron(a, b)) == pytest.approx(
            op_norm(a) * op_norm(b), rel=1e-10
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            op_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_stack_is_the_block_diagonal_norm(self):
        rng = np.random.default_rng(10)
        stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        dense = np.zeros((24, 24), dtype=complex)
        for b, block in enumerate(stack.reshape(6, 4, 4)):
            dense[4 * b:4 * b + 4, 4 * b:4 * b + 4] = block
        assert op_norm(stack) == max(op_norm(block) for block in stack.reshape(6, 4, 4))
        assert op_norm(stack) == pytest.approx(op_norm(dense), rel=1e-14)

    def test_rejects_non_square_and_non_finite_stacks(self):
        for shape in ((3,), (4, 2, 3)):
            with pytest.raises(ValueError, match="or a stack of them"):
                op_norm(np.ones(shape))
        for bad in (np.inf, complex(1.0, np.nan)):
            stack = np.ones((3, 2, 2), dtype=complex)
            stack[1, 0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                op_norm(stack)


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_series_matches_ratio_near_threshold(self):
        for x in (1e-5, 9.9e-5, 1.1e-4, 1e-3):
            assert sinc(x) == pytest.approx(math.sin(x) / x, abs=1e-15)

    def test_at_pi(self):
        assert abs(sinc(math.pi)) < 1e-16

    @pytest.mark.parametrize("x", [math.inf, -math.inf, 2.0 * 1e308],
                             ids=["inf", "-inf", "overflow"])
    def test_infinite_argument_is_the_limit(self, x):
        assert sinc(x) == 0.0


class TestTriangleQuadrature:
    def test_constant_integrand(self):
        result = triangle_quadrature(lambda t1, t2: 1.0, 0.5)
        assert complex(result.value) == pytest.approx(0.125, abs=1e-12)
        assert result.evaluations > 0
        assert result.estimated_error <= 1e-9

    def test_sine_integrand(self):
        # Analytic value integral sin(2(t2 - t1)) = (sin(2 tau) - 2 tau) / 4.
        result = triangle_quadrature(lambda t1, t2: np.sin(2 * (t2 - t1)), 0.5)
        assert complex(result.value).real == pytest.approx(
            (math.sin(1.0) - 1.0) / 4.0, abs=1e-10
        )

    def test_polynomial_integrand(self):
        result = triangle_quadrature(lambda t1, t2: t1 * t2, 0.5)
        assert complex(result.value) == pytest.approx(0.5**4 / 8.0, abs=1e-12)

    def test_matrix_integrand(self):
        h = hamiltonian_superop(matrix_of(pauli_from_label("Z")))
        result = triangle_quadrature(lambda t1, t2: h[..., None] * (t1 + t2), 1.0)
        # integral of (t1 + t2) over the unit triangle is 1/2.
        np.testing.assert_allclose(result.value, 0.5 * h, atol=1e-10)

    def test_budget_failure_carries_best(self):
        with pytest.raises(QuadratureError) as excinfo:
            triangle_quadrature(
                lambda t1, t2: np.sin(2 * (t2 - t1)), 2.5, tol=1e-30,
                max_evaluations=500,
            )
        best = excinfo.value.best
        assert best is not None
        assert complex(best.value).real == pytest.approx(
            (math.sin(5.0) - 5.0) / 4.0, abs=1e-6
        )

    def test_convergence_order(self):
        # Halving the cells shrinks the error by about 2^order on a smooth
        # trigonometric integrand.
        exact = (math.sin(5.0) - 5.0) / 4.0
        errors = []
        for cells in (1, 2, 4):
            nodes, weights = _composite_rule(cells)
            total = 0.0
            for u, wu in zip(nodes, weights):
                for v, wv in zip(nodes, weights):
                    total += wu * wv * u * math.sin(2 * (2.5 * u * v - 2.5 * u))
            errors.append(abs(total * 2.5**2 - exact))
        slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(slopes) >= QUADRATURE_ORDER - 1

    @pytest.mark.parametrize("tau", [1e155, 1e200, 1e300, math.inf])
    def test_overflowing_jacobian_is_refused_up_front(self, tau):
        # Past about 1.3e154, tau^2 is inf and so is every weight: each
        # level would read nan until the budget ran out.
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match="tau\\^2 overflows"):
                triangle_quadrature(lambda t1, t2: calls.append(t1) or 1.0, tau)
        assert calls == []

    @pytest.mark.parametrize("tau", [1e100, 1e154])
    def test_huge_level_differences_keep_a_finite_estimate(self, tau):
        # Levels near tau^2 / 2 differ by far more than sqrt(max double), so
        # squaring their difference would overflow; the estimate stays
        # finite and the best level is kept.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"best estimate \d") as excinfo:
                triangle_quadrature(lambda t1, t2: np.cos(2 * t2) - np.cos(2 * t1), tau,
                                    max_evaluations=2000)
        best = excinfo.value.best
        assert best is not None
        assert math.isfinite(best.estimated_error) and best.estimated_error > tau

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            triangle_quadrature(lambda t1, t2: 1.0, 0.0)
        with pytest.raises(ValueError):
            triangle_quadrature(lambda t1, t2: 1.0, 1.0, tol=0.0)


class TestIntervalQuadrature:
    def test_sine(self):
        result = interval_quadrature(np.sin, 1.0, tol=1e-12)
        assert complex(result.value).real == pytest.approx(1 - math.cos(1.0), abs=1e-11)

    def test_budget_failure(self):
        with pytest.raises(QuadratureError):
            interval_quadrature(np.sin, 1.0, tol=1e-30, max_evaluations=10)

    def test_validates_upper_limit(self):
        with pytest.raises(ValueError, match="^upper limit must be positive, got 0.0$"):
            interval_quadrature(np.sin, 0.0)


@pytest.mark.parametrize("rule, arity", [
    (interval_quadrature, 1), (triangle_quadrature, 2),
], ids=["interval", "triangle"])
def test_each_level_calls_the_integrand_once(rule, arity):
    # Level k has 2^k cells of 4 nodes per axis, all passed in one call.
    shapes = []

    def integrand(*times):
        shapes.append([t.shape for t in times])
        return np.sin(sum(times))

    result = rule(integrand, 1.0, tol=1e-12)
    sizes = [(4 * 2**level) ** arity for level in range(len(shapes))]
    assert len(shapes) >= 3
    assert shapes == [[(size,)] * arity for size in sizes]
    assert result.evaluations == sum(sizes)


@pytest.mark.parametrize("rule", [interval_quadrature, triangle_quadrature],
                         ids=["interval", "triangle"])
@pytest.mark.parametrize("unit, dtype", [(1.0, np.float64), (1.0j, np.complex128)],
                         ids=["real", "complex"])
def test_the_value_keeps_the_integrand_dtype(rule, unit, dtype):
    result = rule(lambda *times: unit * np.sin(sum(times)), 1.0)
    assert result.value.dtype == dtype


class TestQuadratureResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureResult(np.zeros(1), -1.0, 10)
        with pytest.raises(ValueError):
            QuadratureResult(np.zeros(1), 0.0, 0)
