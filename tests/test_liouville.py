"""Tests for vectorization, superoperator constructors, and dissipators."""

import itertools
import warnings

import numpy as np
import pytest

from pstlab.errors import ResolutionError, ResourceLimitError
from pstlab.liouville import (
    NoiseSpec,
    _noise_transfer,
    devectorize,
    dissipator_superop,
    hamiltonian_superop,
    matrix_from_json,
    matrix_to_json,
    pauli_unitary_superop,
    unitary_superop,
    vectorize,
)
from pstlab.numerics import expm
from pstlab.pauli import MAX_QUBITS_ENV, enumerate_group, matrix_of, pauli_from_label

SIGMA_Z = np.diag([1.0 + 0j, -1.0 + 0j])


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(devectorize(vectorize(rho)), rho)

    def test_conjugation_identity(self):
        # vec(A rho B) = (A kron B^T) vec(rho), the row-major convention.
        rng = np.random.default_rng(12)
        a, b, rho = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        lhs = vectorize(a @ rho @ b)
        rhs = np.kron(a, b.T) @ vectorize(rho)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_trace_functional_fixed_point(self):
        rng = np.random.default_rng(13)
        u = random_unitary(2, rng)
        w = vectorize(np.eye(2)) / np.sqrt(2)
        np.testing.assert_allclose(
            w.conj() @ unitary_superop(u), w.conj(), atol=1e-12
        )

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            vectorize(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            devectorize(np.zeros(5))


class TestHamiltonianSuperop:
    def test_identity_maps_to_zero(self):
        np.testing.assert_array_equal(hamiltonian_superop(np.eye(2)), np.zeros((4, 4)))

    def test_sigma_z(self):
        np.testing.assert_array_equal(
            hamiltonian_superop(SIGMA_Z), np.diag([0.0, 2.0, -2.0, 0.0]).astype(complex)
        )

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_lie_homomorphism(self, n_qubits):
        # [H(a), H(b)] = -i H(i [a, b]) with i [a, b] Hermitian, and H(I) = 0
        # exactly: the Magnus terms are lifted from Hilbert space through it.
        rng = np.random.default_rng(40 + n_qubits)
        dim = 2**n_qubits
        m = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
        a, b = m + m.conj().swapaxes(1, 2)
        ha, hb = hamiltonian_superop(a), hamiltonian_superop(b)
        np.testing.assert_allclose(
            ha @ hb - hb @ ha, -1j * hamiltonian_superop(1j * (a @ b - b @ a)),
            rtol=0, atol=1e-12,
        )
        assert not hamiltonian_superop(np.eye(dim)).any()

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_equals_the_kronecker_formula(self, dim):
        # Built by index, entry for entry the formula on the complex input.
        rng = np.random.default_rng(60 + dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        eye = np.eye(dim)
        for h in (m.real + m.real.T, m + m.conj().T, np.diag(rng.normal(size=dim)),
                  np.zeros((dim, dim))):
            hc = np.asarray(h, dtype=complex)
            formula = np.kron(hc, eye) - np.kron(eye, hc.T)
            lifted = hamiltonian_superop(h)
            assert lifted.dtype == formula.dtype
            assert np.array_equal(lifted, formula)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hamiltonian_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hamiltonian_superop(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="expected a square matrix"):
            hamiltonian_superop(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        # A Hermiticity test on nan compares False, so nan used to pass.
        with pytest.raises(ValueError, match="finite"):
            hamiltonian_superop([[np.nan, 0.0], [0.0, 1.0]])

    def test_mixed_anticommutation_zz_xz(self):
        h = hamiltonian_superop(matrix_of(pauli_from_label("ZZ")))
        p = pauli_unitary_superop(pauli_from_label("XZ"))
        np.testing.assert_allclose(h @ p + p @ h, np.zeros((16, 16)), atol=1e-13)

    def test_commutator_tracks_hilbert_sign(self):
        # Superoperator Hamiltonians commute exactly when the words commute;
        # for anticommuting words the conjugation P H P = -H holds instead.
        from pstlab.pauli import commutation_sign

        group = enumerate_group(2)
        sup = {p.label: hamiltonian_superop(matrix_of(p)) for p in group}
        uni = {p.label: pauli_unitary_superop(p) for p in group}
        for a, b in itertools.product(group, repeat=2):
            ha, hb = sup[a.label], sup[b.label]
            commutator = ha @ hb - hb @ ha
            if commutation_sign(a, b) == 1:
                np.testing.assert_allclose(commutator, 0, atol=1e-13)
            else:
                assert np.abs(commutator).max() > 0.5
            np.testing.assert_allclose(
                uni[a.label] @ hb @ uni[a.label],
                commutation_sign(a, b) * hb,
                atol=1e-13,
            )


class TestUnitarySuperop:
    def test_identity(self):
        np.testing.assert_array_equal(unitary_superop(np.eye(2)), np.eye(4))

    def test_matches_exponential_of_hamiltonian_form(self):
        # unitary_superop(expm(-i tau P)) = expm(-i tau (P kron I - I kron P^T))
        tau = 0.5
        p = matrix_of(pauli_from_label("ZX"))
        lhs = unitary_superop(expm(-1j * tau * p))
        rhs = expm(-1j * tau * hamiltonian_superop(p))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_pauli_x_real(self):
        sx = matrix_of(pauli_from_label("X"))
        s = unitary_superop(sx)
        assert np.abs(s.imag).max() == 0
        np.testing.assert_array_equal(s, np.kron(sx, sx).real.astype(complex))

    def test_result_unitary(self):
        rng = np.random.default_rng(7)
        s = unitary_superop(random_unitary(4, rng))
        np.testing.assert_allclose(s.conj().T @ s, np.eye(16), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_superop(np.diag([1.0, 2.0]))

    def test_rejects_non_finite(self):
        # A unitarity test on nan compares False, so nan used to pass.
        with pytest.raises(ValueError, match="finite"):
            unitary_superop([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="expected a square matrix"):
            unitary_superop(np.eye(2)[None])


class TestPauliUnitarySuperop:
    def test_identity_word(self):
        p = pauli_from_label("II")
        np.testing.assert_array_equal(pauli_unitary_superop(p), np.eye(16))

    def test_exponential_identity_exact(self):
        # P kron P* = expm(-i (pi/2) (P kron I - I kron P^T)), with the global
        # phases cancelling exactly, so plain equality at 1e-10.
        for p in enumerate_group(2):
            lhs = pauli_unitary_superop(p)
            rhs = expm(-1j * (np.pi / 2) * hamiltonian_superop(matrix_of(p)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_involution(self):
        for p in enumerate_group(2):
            s = pauli_unitary_superop(p)
            np.testing.assert_array_equal(s @ s, np.eye(16))

    def test_mutual_commutation_exact(self):
        sup = [pauli_unitary_superop(p) for p in enumerate_group(2)]
        for a, b in itertools.product(sup, repeat=2):
            assert np.abs(a @ b - b @ a).max() == 0.0

    def test_hamiltonian_square_not_identity(self):
        for p in enumerate_group(2)[1:]:
            h = hamiltonian_superop(matrix_of(p))
            assert np.abs(h @ h - np.eye(16)).max() > 0.5


class TestNoiseSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="noise kind"):
            NoiseSpec("thermal", 1.0)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            NoiseSpec("pauli_z", -1.0)

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            NoiseSpec("pauli_z", 1.0, (0, 0))

    def test_out_of_range_targets(self):
        with pytest.raises(ValueError, match="out of range"):
            dissipator_superop(NoiseSpec("pauli_z", 1.0, (3,)), 2)

    def test_empty_targets_are_refused(self):
        # No qubit would carry the noise the spec names.
        with pytest.raises(ValueError, match="noise targets must name at least one qubit"):
            NoiseSpec("pauli_z", 1.0, ())

    def test_default_targets_all_qubits(self):
        assert NoiseSpec("pauli_z", 1.0).resolved_targets(3) == (0, 1, 2)


class TestDissipator:
    def test_none_is_zero(self):
        np.testing.assert_array_equal(
            dissipator_superop(NoiseSpec("none"), 2), np.zeros((16, 16))
        )

    def test_pauli_z_invariant_under_every_twirl(self):
        diss = dissipator_superop(NoiseSpec("pauli_z", 3.0), 2)
        for q in enumerate_group(2):
            s = pauli_unitary_superop(q)
            np.testing.assert_allclose(s @ diss @ s, diss, atol=1e-12)

    def test_amplitude_damping_breaks_twirl_symmetry(self):
        diss = dissipator_superop(NoiseSpec("amplitude_damping", 3.0), 2)
        deviations = []
        for q in enumerate_group(2):
            s = pauli_unitary_superop(q)
            deviations.append(np.abs(s @ diss @ s - diss).max())
        assert max(deviations) > 1.0

    @pytest.mark.parametrize("kind", ["pauli_z", "amplitude_damping"])
    def test_trace_preservation(self, kind):
        diss = dissipator_superop(NoiseSpec(kind, 3.0), 2)
        left_identity = vectorize(np.eye(4)).conj()
        np.testing.assert_allclose(left_identity @ diss, 0, atol=1e-12)
        channel = expm(diss)
        np.testing.assert_allclose(left_identity @ channel, left_identity, atol=1e-12)

    @pytest.mark.parametrize("kind", ["pauli_z", "amplitude_damping"])
    def test_positivity_on_state_grid(self, kind):
        rng = np.random.default_rng(21)
        channel = expm(dissipator_superop(NoiseSpec(kind, 3.0), 2))
        states = [np.eye(4) / 4]
        for k in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[k, k] = 1.0
            states.append(e)
        plus = np.full((4, 4), 0.25, dtype=complex)
        states.append(plus)
        states.extend(random_density(4, rng) for _ in range(4))
        for rho in states:
            out = devectorize(channel @ vectorize(rho))
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


    @pytest.mark.parametrize("targets", [None, (0,)])
    @pytest.mark.parametrize("kind", ["pauli_z", "amplitude_damping"])
    def test_overflowing_rate_is_a_resolution_error(self, kind, targets):
        # _noise_transfer refuses a generator whose largest absolute row sum
        # overflows.  That sum is 2 x rate per targeted qubit for both kinds
        # (pauli_z's -2 on X and Y; amplitude damping's Z row, +1 at I and
        # -1 at Z), so a rate of 1e308 overflows with one target or with
        # both, and 1e307 still fits.
        assert np.isfinite(dissipator_superop(NoiseSpec(kind, 1e307, targets), 2)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match=(
                f"the {kind} dissipator at rate 1e[+]308 overflows double precision"
            )):
                dissipator_superop(NoiseSpec(kind, 1e308, targets), 2)


# tr(P_i D(P_j)) / 2 of one qubit's Lindblad term at unit rate, in the
# order I, X, Y, Z: sigma_z dephases X and Y at rate 2; |0><1| damps them
# at 1/2 and sends Z to -Z and I to Z.
UNIT_RATE_TRANSFERS = {
    "none": np.zeros((4, 4)),
    "pauli_z": np.diag([0.0, -2.0, -2.0, 0.0]),
    "amplitude_damping": np.array([[0.0, 0.0, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0],
                                   [0.0, 0.0, -0.5, 0.0], [1.0, 0.0, 0.0, -1.0]]),
}


class TestNoiseTransfer:
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0, 3.0, 1e300])
    @pytest.mark.parametrize("kind", sorted(UNIT_RATE_TRANSFERS))
    def test_one_qubit_generator_is_the_exact_table(self, kind, rate):
        transfer = _noise_transfer(NoiseSpec(kind, rate), 1)
        assert transfer.dtype == float
        assert np.array_equal(transfer, rate * UNIT_RATE_TRANSFERS[kind])


class TestDissipatorSpecs:
    def test_specs_and_sizes_are_kept_apart(self):
        spec = NoiseSpec("pauli_z", 0.8)
        assert dissipator_superop(spec, 1).shape == (4, 4)
        assert dissipator_superop(spec, 2).shape == (16, 16)
        assert not np.array_equal(
            dissipator_superop(spec, 2), dissipator_superop(NoiseSpec("pauli_z", 0.9), 2)
        )

    def test_bound_is_checked_on_every_call(self, monkeypatch):
        spec = NoiseSpec("pauli_z", 0.8)
        dissipator_superop(spec, 2)
        monkeypatch.setenv(MAX_QUBITS_ENV, "1")
        with pytest.raises(ResourceLimitError):
            dissipator_superop(spec, 2)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m, atol=0)

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0]])
