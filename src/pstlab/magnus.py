"""First- and second-order averaged-evolution terms for twirled coherent errors.

For a single-Pauli drive with unit coefficient the evolution is
U(t) = exp(-i t P_beta), and an error word P_gamma that anticommutes with
the drive is dressed in the interaction frame into the Hermitian

    U(t)^dag P_gamma U(t) = cos(2t) P_gamma + sin(2t) i P_beta P_gamma;

a commuting word is left untouched.  The twirl average of the first-order
term vanishes by sign orthogonality.  The second-order average collapses
onto the drive axis: the surviving coefficient follows the sinc law
implemented in `omega2_avg_closed` and `over_rotation_factor`, with only
the anticommuting error words contributing.

The quadrature path checks that closed form independently, in Hilbert
space.  In twirl frame alpha the dressed error sum is

    a(t) = c0 + cos(2t) c1 + sin(2t) c2,

with c0 summing the commuting words P_w, c1 the anticommuting ones and c2
their i P_beta P_w, each weighted by its amplitude and the frame sign
chi_alpha(P_w).  The frame signs are the rows of the sign table
1 - 2 * commutation_parity, the table the ensemble average in `pst_core`
reads, so one contraction builds c0, c1, c2 for all 4^n frames.  Writing
c_k = cos 2t_k and s_k = sin 2t_k, the commutator expands exactly as

    [a(t1), a(t2)] = (c2 - c1) [c0,c1] + (s2 - s1) [c0,c2]
                     + sin 2(t2 - t1) [c1,c2],

so the time-ordered integral needs only the scalar kernel triple
(K01, K02, K12) of those three trigonometric factors over the triangle
0 <= t2 <= t1 <= tau, and the first-order term only the integrals
(J0, J1, J2) of (1, cos 2t, sin 2t) over [0, tau].  Both depend on tau
alone and are integrated once per call; each frame then costs three
2^n x 2^n commutators, batched over the frame axis.  The sum over all
4^n frames is kept explicit rather than collapsed by sign orthogonality,
so the crosscheck does not assume the cancellation the closed form
relies on.

The Liouville form is an output format only.  The commutator
superoperator H(x) = x kron I - I kron x^T of `liouville` is linear and a
Lie homomorphism, [H(a), H(b)] = H([a, b]), so the interaction-frame
generator is A(t) = H(a(t)) and each public call lifts one Hermitian
matrix, summed over its frames:

    Omega1 = -i H(J0 c0 + J1 c1 + J2 c2),
    Omega2 = -i H(-(i/2) (K01 [c0,c1] + K02 [c0,c2] + K12 [c1,c2])).

``tol`` and ``max_evaluations`` therefore bound the refinement of the
kernel vector (Frobenius norm of the level difference, integrand calls),
not of a matrix sum; a frame's matrix error is at most that kernel error
times the summed norms of the fixed matrices the kernels multiply (half
the lifted commutators for the second-order term).

Closed-form operations require a single drive Pauli with coefficient 1
(the duration tau carries the rotation angle); the general multi-term
drive is accepted only by the ensemble builder in `pst_core`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .liouville import hamiltonian_superop
from .numerics import interval_quadrature, sinc, triangle_quadrature
from .pauli import (
    PauliString,
    commutation_parity,
    commutation_sign,
    enumerate_group,
    matrix_of,
    pauli_from_label,
)

__all__ = [
    "CoherentErrorSpec",
    "DriveSpec",
    "anticommuting_sum_h2",
    "interaction_dressed",
    "omega1_alpha",
    "omega1_avg",
    "omega2_alpha",
    "omega2_avg",
    "omega2_avg_closed",
    "over_rotation_factor",
]


def _as_terms(terms) -> tuple[tuple[PauliString, float], ...]:
    out = []
    for word, coefficient in terms:
        if isinstance(word, str):
            word = pauli_from_label(word)
        out.append((word, float(coefficient)))
    return tuple(out)


@dataclass(frozen=True)
class DriveSpec:
    """Ideal gate generator: Pauli terms with real coefficients, duration tau."""

    terms: tuple[tuple[PauliString, float], ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_terms(self.terms))
        if not self.terms:
            raise ValueError("drive needs at least one Pauli term")
        if not math.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"drive duration must be finite and >= 0, got {self.tau}")
        n = self.terms[0][0].n_qubits
        seen = set()
        for word, coefficient in self.terms:
            if word.n_qubits != n:
                raise ValueError("drive terms must act on the same register")
            if word.is_identity:
                raise ValueError("identity word generates nothing; drop it from the drive")
            if word.label in seen:
                raise ValueError(f"duplicate drive term {word.label}")
            seen.add(word.label)
            if not math.isfinite(coefficient):
                raise ValueError(f"drive coefficient for {word.label} must be finite")

    @classmethod
    def single(cls, label: str, tau: float, coefficient: float = 1.0) -> "DriveSpec":
        return cls(((pauli_from_label(label), coefficient),), tau)

    @property
    def n_qubits(self) -> int:
        return self.terms[0][0].n_qubits

    def single_pauli(self) -> PauliString:
        """The drive word, for closed-form paths; requires one term, coefficient 1."""
        if len(self.terms) != 1 or self.terms[0][1] != 1.0:
            raise ValueError(
                "closed-form operations require a single drive Pauli with"
                " coefficient 1 (tau carries the angle); got"
                f" {[(w.label, c) for w, c in self.terms]}"
            )
        return self.terms[0][0]


@dataclass(frozen=True)
class CoherentErrorSpec:
    """Coherent-error generator: distinct Pauli terms, plus a global scale.

    The scale multiplies every amplitude uniformly so parameter sweeps can
    vary it without rebuilding the term list.  Amplitudes are stored with
    any overall error-strength prefactor already folded in.
    """

    terms: tuple[tuple[PauliString, float], ...] = ()
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_terms(self.terms))
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")
        seen = set()
        for word, amplitude in self.terms:
            if word.n_qubits != self.terms[0][0].n_qubits:
                raise ValueError("error terms must act on the same register")
            if word.is_identity:
                raise ValueError("identity word generates nothing; drop it")
            if word.label in seen:
                raise ValueError(f"duplicate error term {word.label}")
            seen.add(word.label)
            if not math.isfinite(amplitude):
                raise ValueError(f"amplitude for {word.label} must be finite")

    @classmethod
    def from_amplitudes(cls, amplitudes, scale: float = 1.0) -> "CoherentErrorSpec":
        """Build from {"XX": 0.2, ...} or an iterable of (label, value) pairs."""
        pairs = amplitudes.items() if hasattr(amplitudes, "items") else amplitudes
        return cls(tuple(pairs), scale)

    @property
    def n_qubits(self) -> int | None:
        return self.terms[0][0].n_qubits if self.terms else None

    def with_scale(self, scale: float) -> "CoherentErrorSpec":
        return replace(self, scale=scale)

    def scaled_terms(self) -> tuple[tuple[PauliString, float], ...]:
        return tuple((word, self.scale * amp) for word, amp in self.terms)


def check_drive_error_compat(drive: DriveSpec, err: CoherentErrorSpec) -> None:
    """Dimension match, and no error word duplicating a drive word.

    An error proportional to a drive term is a controlled mis-rotation,
    which twirling cannot average out and which this model excludes.
    """
    if err.terms and err.n_qubits != drive.n_qubits:
        raise ValueError(
            f"error terms act on {err.n_qubits} qubits but the drive on {drive.n_qubits}"
        )
    drive_words = {word.label for word, _ in drive.terms}
    for word, _ in err.terms:
        if word.label in drive_words:
            raise ValueError(
                f"error term {word.label} coincides with a drive Pauli"
                " (controlled mis-rotation is excluded from this model)"
            )


def _dressed_parts(words, beta: PauliString) -> np.ndarray:
    """Hilbert-space parts of the dressed ``words``, stacked (3, words, 2^n, 2^n).

    A word commuting with the drive beta contributes P_w to part 0; an
    anticommuting one contributes P_w to part 1 and the Hermitian
    i P_beta P_w to part 2.  Word w dressed at time t is then the lift of
    parts[0, w] + cos(2t) parts[1, w] + sin(2t) parts[2, w].
    """
    dim = 2**beta.n_qubits
    parts = np.zeros((3, len(words), dim, dim), dtype=complex)
    for index, word in enumerate(words):
        if commutation_sign(word, beta) == 1:
            parts[0, index] = matrix_of(word)
        else:
            parts[1, index] = matrix_of(word)
            parts[2, index] = 1.0j * matrix_of(beta) @ matrix_of(word)
    return parts


def _frame_parts(drive: DriveSpec, err: CoherentErrorSpec,
                 alpha: PauliString | None) -> np.ndarray:
    """(c0, c1, c2) of a(t) = c0 + cos(2t) c1 + sin(2t) c2 in every twirl
    frame, stacked (3, frames, 2^n, 2^n).

    The frames are the rows of the sign table 1 - 2 * commutation_parity
    against the error words, in group order, or only alpha's row.
    """
    beta = drive.single_pauli()
    check_drive_error_compat(drive, err)
    n = drive.n_qubits
    terms = err.scaled_terms()
    words = [word for word, _ in terms]
    signs = 1.0 - 2.0 * commutation_parity(n, words)
    if alpha is not None:
        signs = signs[[enumerate_group(n).index(alpha)]]
    weights = signs * [amplitude for _, amplitude in terms]
    return np.einsum("fw,kwij->kfij", weights, _dressed_parts(words, beta))


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] of Hermitian a, b (batched over leading axes) as ab - (ab)^dag:
    one product, and anti-Hermitian by construction whatever order the
    product sums in, so the Hermiticity check of the lift holds even for a
    frame sum that cancels to rounding level."""
    product = a @ b
    return product - product.conj().swapaxes(-1, -2)


def interaction_dressed(err_term: PauliString, drive: DriveSpec, t: float) -> np.ndarray:
    """Dressed error generator U(t)^dag H_gamma U(t) for a single-Pauli drive.

    Commuting words come back unchanged (the identity word as an exact
    zero); anticommuting words pick up the closed form, the lift of
    cos(2t) P_gamma + sin(2t) i P_beta P_gamma, equal to the brute-force
    conjugation by exp(-i t H_beta).
    """
    beta = drive.single_pauli()
    if err_term.n_qubits != drive.n_qubits:
        raise ValueError("error word and drive act on different registers")
    constant, cos_part, sin_part = _dressed_parts([err_term], beta)[:, 0]
    return hamiltonian_superop(
        constant + math.cos(2.0 * t) * cos_part + math.sin(2.0 * t) * sin_part
    )


def _omega1_kernels(tau: float, tol: float,
                    max_evaluations: int = 2**20) -> np.ndarray:
    """Integrals of (1, cos 2t, sin 2t) over [0, tau]."""
    return interval_quadrature(
        lambda t: np.array([1.0, math.cos(2.0 * t), math.sin(2.0 * t)]),
        tau, tol, max_evaluations,
    ).value


def _omega1_sum(drive, err, alpha, tol, max_evaluations) -> np.ndarray:
    """Sum over the frames of -i H(J0 c0 + J1 c1 + J2 c2), with J the
    interval kernels of `_omega1_kernels`."""
    c0, c1, c2 = _frame_parts(drive, err, alpha).sum(axis=1)
    j0, j1, j2 = (
        _omega1_kernels(drive.tau, tol, max_evaluations) if drive.tau else np.zeros(3)
    )
    return -1.0j * hamiltonian_superop(j0 * c0 + j1 * c1 + j2 * c2)


def omega1_alpha(drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString,
                 tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """First-order term -i * integral of the twirled dressed error over [0, tau]."""
    return _omega1_sum(drive, err, alpha, tol, max_evaluations)


def omega1_avg(drive: DriveSpec, err: CoherentErrorSpec,
               tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Twirl average of the first-order term over the full Pauli group.

    Sign orthogonality cancels it exactly; the near-zero matrix is
    returned so callers can assert how close to zero it lands.
    """
    return _omega1_sum(drive, err, None, tol, max_evaluations) / 4**drive.n_qubits


def _omega2_kernels(tau: float, tol: float, max_evaluations: int) -> np.ndarray:
    """Kernel triple (K01, K02, K12): the integrals of
    (cos 2t2 - cos 2t1, sin 2t2 - sin 2t1, sin 2(t2 - t1))
    over the time-ordered triangle 0 <= t2 <= t1 <= tau."""

    def kernels(t1: float, t2: float) -> np.ndarray:
        return np.array([
            math.cos(2.0 * t2) - math.cos(2.0 * t1),
            math.sin(2.0 * t2) - math.sin(2.0 * t1),
            math.sin(2.0 * (t2 - t1)),
        ])

    return triangle_quadrature(kernels, tau, tol, max_evaluations).value


def _omega2_sum(drive, err, alpha, tol, max_evaluations) -> np.ndarray:
    """Sum over the frames of
    -i H(-(i/2) (K01 [c0,c1] + K02 [c0,c2] + K12 [c1,c2])),
    the exact expansion of -(1/2) iint [A(t1), A(t2)]."""
    c0, c1, c2 = _frame_parts(drive, err, alpha)
    k01, k02, k12 = (
        _omega2_kernels(drive.tau, tol, max_evaluations)
        if drive.tau and err.terms else np.zeros(3)
    )
    commutators = (
        k01 * _commutator(c0, c1) + k02 * _commutator(c0, c2) + k12 * _commutator(c1, c2)
    )
    return -1.0j * hamiltonian_superop(-0.5j * commutators.sum(axis=0))


def omega2_alpha(drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString,
                 tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Second-order term for one twirl word: the time-ordered double
    commutator integral -(1/2) iint [A(t1), A(t2)] with both error
    insertions conjugated by the twirl."""
    return _omega2_sum(drive, err, alpha, tol, max_evaluations)


def omega2_avg(drive: DriveSpec, err: CoherentErrorSpec,
               tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Twirl average of the second-order term over the full Pauli group.

    Cross terms between distinct error words cancel by sign orthogonality,
    so the average equals the sum of squared-amplitude single-word terms
    (the quantity `omega2_avg_closed` evaluates analytically).  The kernel
    triple is integrated once and every frame is summed explicitly, so
    this check does not rely on that cancellation.
    """
    return _omega2_sum(drive, err, None, tol, max_evaluations) / 4**drive.n_qubits


def anticommuting_sum_h2(drive: DriveSpec, err: CoherentErrorSpec) -> float:
    """Sum of squared scaled amplitudes over error words that anticommute
    with the drive Pauli; the only errors feeding the over-rotation."""
    beta = drive.single_pauli()
    check_drive_error_compat(drive, err)
    return sum(
        amplitude * amplitude
        for word, amplitude in err.scaled_terms()
        if commutation_sign(word, beta) == -1
    )


def omega2_avg_closed(drive: DriveSpec, err: CoherentErrorSpec) -> np.ndarray:
    """Closed form of the averaged second-order term:
    -i tau (1 - sinc(2 tau))/2 * (sum of anticommuting amplitudes squared)
    times the drive superoperator."""
    beta = drive.single_pauli()
    prefactor = drive.tau * (1.0 - sinc(2.0 * drive.tau)) / 2.0
    weight = anticommuting_sum_h2(drive, err)
    return -1.0j * prefactor * weight * hamiltonian_superop(matrix_of(beta))


def over_rotation_factor(tau: float, sum_h2: float) -> float:
    """Amplitude amplification 1 + (1 - sinc(2 tau))/2 * sum_h2; always >= 1."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not math.isfinite(sum_h2) or sum_h2 < 0:
        raise ValueError(f"sum_h2 must be finite and >= 0, got {sum_h2}")
    return 1.0 + (1.0 - sinc(2.0 * tau)) / 2.0 * sum_h2
