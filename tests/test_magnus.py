"""Tests for the dressed-error machinery and averaged expansion terms."""

import itertools
import math

import numpy as np
import pytest

from pstlab.errors import QuadratureError
from pstlab.liouville import hamiltonian_superop
from pstlab.magnus import (
    CoherentErrorSpec,
    DriveSpec,
    _omega1_kernels,
    _omega2_kernels,
    anticommuting_sum_h2,
    check_drive_error_compat,
    interaction_dressed,
    omega1_alpha,
    omega1_avg,
    omega2_alpha,
    omega2_avg,
    omega2_avg_closed,
    over_rotation_factor,
)
from pstlab.numerics import expm, interval_quadrature, triangle_quadrature
from pstlab.pauli import (
    commutation_sign,
    enumerate_group,
    identity_string,
    matrix_of,
    pauli_from_label,
)

TABLE1_ERRORS = (("XX", 0.2), ("YY", 0.6), ("ZZ", 0.2), ("YX", 0.4))
# Against ZX: XX, IZ and YX anticommute, YY and ZI commute.
MIXED_ERRORS = (("XX", 0.3), ("YY", 0.5), ("IZ", -0.2), ("ZI", 0.4), ("YX", 0.25))


def drive_zx(tau=0.5):
    return DriveSpec.single("ZX", tau)


def brute_force_dressed(gamma_label, beta_label, t):
    """Direct conjugation oracle, independent of the closed form."""
    h_beta = hamiltonian_superop(matrix_of(pauli_from_label(beta_label)))
    h_gamma = hamiltonian_superop(matrix_of(pauli_from_label(gamma_label)))
    u = expm(-1j * t * h_beta)
    return u.conj().T @ h_gamma @ u


class TwirledInteractionOracle:
    """Interaction-frame error generators A(t), one per twirl frame, each
    built as a sign-weighted sum of per-word dressed matrices.

    Integrating these matrix integrands node by node is the direct route
    that the scalar-kernel quadrature in `pstlab.magnus` replaces.  The
    frames are stacked along a leading axis so that one quadrature call
    covers all of them.
    """

    def __init__(self, drive, err, frames):
        beta = drive.single_pauli()
        dim = 4**drive.n_qubits
        eye = np.eye(2**drive.n_qubits)
        shape = (len(frames), dim, dim)
        self.constant = np.zeros(shape, dtype=complex)
        self.cos_part = np.zeros(shape, dtype=complex)
        self.sin_part = np.zeros(shape, dtype=complex)
        for word, amplitude in err.scaled_terms():
            weights = amplitude * np.array(
                [commutation_sign(alpha, word) for alpha in frames]
            )[:, None, None]
            h_word = hamiltonian_superop(matrix_of(word))
            if commutation_sign(word, beta) == 1:
                self.constant += weights * h_word
            else:
                product = matrix_of(beta) @ matrix_of(word)
                self.cos_part += weights * h_word
                self.sin_part += weights * (
                    np.kron(product, eye) + np.kron(eye, product.conj())
                )

    def at(self, t):
        return (
            self.constant
            + math.cos(2.0 * t) * self.cos_part
            + 1.0j * math.sin(2.0 * t) * self.sin_part
        )

    def omega1(self, tau):
        return -1.0j * interval_quadrature(self.at, tau).value

    def omega2(self, tau):
        def integrand(t1, t2):
            a1, a2 = self.at(t1), self.at(t2)
            return -0.5 * (a1 @ a2 - a2 @ a1)

        return triangle_quadrature(integrand, tau).value


class TestSpecs:
    def test_drive_validation(self):
        with pytest.raises(ValueError):
            DriveSpec((), 0.5)
        with pytest.raises(ValueError):
            DriveSpec.single("ZX", -0.1)
        with pytest.raises(ValueError, match="identity"):
            DriveSpec.single("II", 0.5)
        with pytest.raises(ValueError, match="duplicate"):
            DriveSpec((("ZX", 1.0), ("ZX", 0.5)), 0.5)
        with pytest.raises(ValueError, match="register"):
            DriveSpec((("ZX", 1.0), ("Z", 0.5)), 0.5)

    def test_single_pauli_contract(self):
        assert drive_zx().single_pauli().label == "ZX"
        with pytest.raises(ValueError, match="single drive Pauli"):
            DriveSpec((("ZX", 1.0), ("XI", 0.2)), 0.5).single_pauli()
        with pytest.raises(ValueError, match="coefficient 1"):
            DriveSpec.single("ZX", 0.5, coefficient=0.7).single_pauli()

    def test_error_spec_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            CoherentErrorSpec((("XX", 0.1), ("XX", 0.2)))
        with pytest.raises(ValueError, match="identity"):
            CoherentErrorSpec((("II", 0.1),))
        spec = CoherentErrorSpec.from_amplitudes({"XX": 0.2, "YY": 0.6}, scale=2.0)
        assert spec.scaled_terms()[0][1] == pytest.approx(0.4)
        assert spec.with_scale(0.5).scaled_terms()[0][1] == pytest.approx(0.1)

    def test_compat_rejects_drive_overlap(self):
        err = CoherentErrorSpec.from_amplitudes({"ZX": 0.1})
        with pytest.raises(ValueError, match="mis-rotation"):
            check_drive_error_compat(drive_zx(), err)

    def test_compat_rejects_dimension_mismatch(self):
        err = CoherentErrorSpec.from_amplitudes({"X": 0.1})
        with pytest.raises(ValueError):
            check_drive_error_compat(drive_zx(), err)


class TestInteractionDressed:
    def test_commuting_word_is_constant(self):
        yy = pauli_from_label("YY")
        expected = hamiltonian_superop(matrix_of(yy))
        for t in (0.0, 0.3, 1.7):
            np.testing.assert_allclose(
                interaction_dressed(yy, drive_zx(), t), expected, atol=1e-14
            )

    def test_t_zero_restores_plain_generator(self):
        for gamma in enumerate_group(2):
            if gamma.label == "ZX":
                continue
            expected = hamiltonian_superop(matrix_of(gamma))
            np.testing.assert_allclose(
                interaction_dressed(gamma, drive_zx(), 0.0), expected, atol=1e-14
            )

    def test_matches_brute_force_conjugation(self):
        dressed = interaction_dressed(pauli_from_label("XX"), drive_zx(), 0.3)
        np.testing.assert_allclose(
            dressed, brute_force_dressed("XX", "ZX", 0.3), atol=1e-12
        )

    def test_multi_term_drive_rejected(self):
        drive = DriveSpec((("ZX", 1.0), ("XI", 0.3)), 0.5)
        with pytest.raises(ValueError):
            interaction_dressed(pauli_from_label("XX"), drive, 0.1)

    def test_hilbert_space_flip_identity(self):
        # P_gamma U(t) = U(-t) P_gamma whenever the words anticommute.
        rng = np.random.default_rng(31)
        for beta, gamma in itertools.product(enumerate_group(2)[1:], repeat=2):
            if commutation_sign(beta, gamma) == 1:
                continue
            t = float(rng.uniform(0.1, 2.0))
            p_beta, p_gamma = matrix_of(beta), matrix_of(gamma)
            u_plus = expm(-1j * t * p_beta)
            u_minus = expm(1j * t * p_beta)
            np.testing.assert_allclose(
                p_gamma @ u_plus, u_minus @ p_gamma, atol=1e-12
            )

    def test_liouville_commutator_collapses_to_drive(self):
        # [dressed(t1), dressed(t2)] = -2i sin(2 (t2 - t1)) H_beta for any
        # word anticommuting with the drive.
        rng = np.random.default_rng(32)
        beta = pauli_from_label("ZX")
        drive = drive_zx()
        h_beta = hamiltonian_superop(matrix_of(beta))
        for gamma in enumerate_group(2):
            if commutation_sign(beta, gamma) == 1:
                continue
            t1, t2 = (float(v) for v in rng.uniform(0.0, 2.5, size=2))
            d1 = interaction_dressed(gamma, drive, t1)
            d2 = interaction_dressed(gamma, drive, t2)
            expected = -2j * math.sin(2 * (t2 - t1)) * h_beta
            np.testing.assert_allclose(d1 @ d2 - d2 @ d1, expected, atol=1e-10)


class TestOmega1:
    def test_average_vanishes(self):
        err = CoherentErrorSpec(TABLE1_ERRORS)
        assert np.linalg.norm(omega1_avg(drive_zx(), err)) <= 1e-9

    def test_zero_amplitudes_exact_zero(self):
        err = CoherentErrorSpec((("XX", 0.0), ("YY", 0.0)))
        assert np.abs(omega1_avg(drive_zx(), err)).max() == 0.0

    def test_single_frame_matches_independent_integration(self):
        # Identity frame only: Omega_1 = -i integral of the dressed error,
        # checked against composite-Simpson integration of the brute-force
        # expm conjugation (independent of both the closed form and the
        # Gauss-Legendre path).
        drive = drive_zx()
        err = CoherentErrorSpec.from_amplitudes({"XX": 0.3})
        value = omega1_alpha(drive, err, identity_string(2))
        steps = 400
        ts = np.linspace(0.0, drive.tau, steps + 1)
        samples = np.array([brute_force_dressed("XX", "ZX", t) for t in ts])
        weights = np.ones(steps + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        simpson = (drive.tau / steps / 3.0) * np.einsum("k,kij->ij", weights, samples)
        oracle = -1j * 0.3 * simpson
        assert np.abs(value).max() > 1e-3
        np.testing.assert_allclose(value, oracle, atol=1e-9)


class TestOmega2:
    def test_empty_error_is_zero(self):
        assert np.abs(
            omega2_alpha(drive_zx(), CoherentErrorSpec(), identity_string(2))
        ).max() == 0.0

    def test_commuting_word_gives_zero(self):
        err = CoherentErrorSpec.from_amplitudes({"YY": 0.6})
        value = omega2_alpha(drive_zx(), err, identity_string(2))
        assert np.abs(value).max() == 0.0
        assert np.abs(omega2_avg(drive_zx(), err)).max() == 0.0

    def test_single_word_frame_term_matches_closed_form(self):
        # With one error word the cross terms are absent, so already the
        # identity-frame term equals the averaged closed form.
        drive = drive_zx()
        err = CoherentErrorSpec.from_amplitudes({"XX": 0.4})
        value = omega2_alpha(drive, err, identity_string(2))
        np.testing.assert_allclose(value, omega2_avg_closed(drive, err), atol=1e-9)

    def test_average_matches_closed_form_on_default_set(self):
        drive = drive_zx()
        err = CoherentErrorSpec(TABLE1_ERRORS)
        diff = np.linalg.norm(omega2_avg(drive, err) - omega2_avg_closed(drive, err))
        assert diff <= 1e-6

    def test_additivity_over_error_words(self):
        drive = drive_zx()
        both = CoherentErrorSpec.from_amplitudes({"XX": 0.3, "YX": 0.4})
        first = CoherentErrorSpec.from_amplitudes({"XX": 0.3})
        second = CoherentErrorSpec.from_amplitudes({"YX": 0.4})
        combined = omega2_avg(drive, both)
        separate = omega2_avg(drive, first) + omega2_avg(drive, second)
        assert np.linalg.norm(combined - separate) <= 1e-8

    def test_average_is_real_multiple_of_drive_axis(self):
        # Projection onto every non-drive Pauli Hamiltonian vanishes.
        drive = drive_zx()
        err = CoherentErrorSpec(TABLE1_ERRORS)
        averaged = omega2_avg(drive, err) / (-1j * drive.tau)
        for word in enumerate_group(2)[1:]:
            h_word = hamiltonian_superop(matrix_of(word))
            coefficient = np.vdot(h_word, averaged) / 32.0
            if word.label == "ZX":
                assert abs(coefficient.imag) <= 1e-8
                assert coefficient.real > 0
            else:
                assert abs(coefficient) <= 1e-8

    def test_scale_enters_quadratically(self):
        drive = drive_zx()
        err = CoherentErrorSpec(TABLE1_ERRORS, scale=0.5)
        np.testing.assert_allclose(
            omega2_avg_closed(drive, err),
            0.25 * omega2_avg_closed(drive, err.with_scale(1.0)),
            atol=1e-14,
        )


class TestClosedForm:
    def test_default_prefactor(self):
        drive = drive_zx()
        err = CoherentErrorSpec(TABLE1_ERRORS)
        h_beta = hamiltonian_superop(matrix_of(pauli_from_label("ZX")))
        expected = -1j * 0.00951174091152621 * h_beta
        np.testing.assert_allclose(omega2_avg_closed(drive, err), expected, atol=1e-15)

    def test_zero_duration(self):
        drive = DriveSpec.single("ZX", 0.0)
        err = CoherentErrorSpec(TABLE1_ERRORS)
        assert np.abs(omega2_avg_closed(drive, err)).max() == 0.0

    def test_commuting_only_set(self):
        err = CoherentErrorSpec.from_amplitudes({"YY": 0.9})
        assert np.abs(omega2_avg_closed(drive_zx(), err)).max() == 0.0

    def test_anticommuting_weight(self):
        err = CoherentErrorSpec(TABLE1_ERRORS)
        assert anticommuting_sum_h2(drive_zx(), err) == pytest.approx(0.24)
        assert anticommuting_sum_h2(
            drive_zx(), err.with_scale(0.5)
        ) == pytest.approx(0.06)


class TestOverRotationFactor:
    def test_reference_value(self):
        assert over_rotation_factor(0.5, 0.24) == pytest.approx(
            1.0190234818230525, abs=1e-12
        )

    def test_no_error_is_unity(self):
        for tau in (0.0, 0.3, 2.5):
            assert over_rotation_factor(tau, 0.0) == 1.0

    def test_half_pi_duration(self):
        # sinc(pi) vanishes, so the factor is 1 + 0.24 / 2 = 1.12.
        assert over_rotation_factor(math.pi / 2, 0.24) == pytest.approx(
            1.12, abs=1e-15
        )

    def test_always_at_least_one(self):
        rng = np.random.default_rng(17)
        for tau, s in zip(rng.uniform(0, 4, 25), rng.uniform(0, 2, 25)):
            assert over_rotation_factor(float(tau), float(s)) >= 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            over_rotation_factor(0.5, -0.1)
        with pytest.raises(ValueError):
            over_rotation_factor(-0.5, 0.1)


class TestQuadratureVsClosedFormSweep:
    @pytest.mark.parametrize("tau", [0.3, 1.0])
    def test_random_anticommuting_sets(self, tau):
        rng = np.random.default_rng(77)
        beta = pauli_from_label("ZX")
        pool = [
            p.label
            for p in enumerate_group(2)
            if commutation_sign(p, beta) == -1
        ]
        drive = DriveSpec.single("ZX", tau)
        chosen = rng.choice(len(pool), size=3, replace=False)
        amps = rng.uniform(0.05, 0.6, size=3)
        err = CoherentErrorSpec(
            tuple((pool[int(i)], float(a)) for i, a in zip(chosen, amps))
        )
        diff = np.linalg.norm(omega2_avg(drive, err) - omega2_avg_closed(drive, err))
        assert diff <= 1e-6


ORACLE_TAUS = (0.3, 0.5, 1.0, 2.5)
ORACLE_ERRORS = {
    "default": CoherentErrorSpec(TABLE1_ERRORS),
    "mixed": CoherentErrorSpec(MIXED_ERRORS),
    "negative-scale": CoherentErrorSpec(MIXED_ERRORS, scale=-0.7),
}


class TestScalarKernels:
    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_kernels_match_closed_forms(self, tau):
        c, s = math.cos(2 * tau), math.sin(2 * tau)
        triple = [
            (1 - c) / 2 - tau * s / 2,
            tau * (1 + c) / 2 - s / 2,
            (s - 2 * tau) / 4,
        ]
        np.testing.assert_allclose(
            _omega2_kernels(tau, 1e-12, 2**20), triple, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            _omega1_kernels(tau, 1e-12), [tau, s / 2, (1 - c) / 2], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("name", sorted(ORACLE_ERRORS))
    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_every_frame_matches_matrix_oracle(self, tau, name):
        drive = DriveSpec.single("ZX", tau)
        err = ORACLE_ERRORS[name]
        frames = enumerate_group(2)
        oracle = TwirledInteractionOracle(drive, err, frames)
        omega2 = np.array([omega2_alpha(drive, err, alpha) for alpha in frames])
        omega1 = np.array([omega1_alpha(drive, err, alpha) for alpha in frames])
        assert np.abs(omega2 - oracle.omega2(tau)).max(axis=(1, 2)).max() <= 1e-10
        assert np.abs(omega1 - oracle.omega1(tau)).max(axis=(1, 2)).max() <= 1e-10


class TestQuadratureBudget:
    # At tau = 1 the kernel triple needs more than two refinement levels
    # (16 + 64 evaluations), so the next level (256 more) must fit.
    def test_first_level_over_budget_has_no_best(self):
        drive = DriveSpec.single("ZX", 1.0)
        with pytest.raises(QuadratureError, match="triangle quadrature") as excinfo:
            omega2_avg(drive, CoherentErrorSpec(TABLE1_ERRORS), max_evaluations=50)
        assert excinfo.value.best is None

    def test_later_level_over_budget_carries_best(self):
        drive = DriveSpec.single("ZX", 1.0)
        with pytest.raises(QuadratureError) as excinfo:
            omega2_avg(drive, CoherentErrorSpec(TABLE1_ERRORS), max_evaluations=100)
        best = excinfo.value.best
        assert best is not None
        assert best.evaluations == 80

    def test_two_levels_suffice_at_half_duration(self):
        drive = DriveSpec.single("ZX", 0.5)
        err = CoherentErrorSpec(TABLE1_ERRORS)
        value = omega2_avg(drive, err, max_evaluations=80)
        assert np.linalg.norm(value - omega2_avg_closed(drive, err)) <= 1e-6

    def test_first_order_term_is_bounded_too(self):
        # The interval rule's first level alone takes 4 evaluations.
        drive = DriveSpec.single("ZX", 0.5)
        with pytest.raises(QuadratureError, match="interval quadrature"):
            omega1_avg(drive, CoherentErrorSpec(TABLE1_ERRORS), max_evaluations=3)
