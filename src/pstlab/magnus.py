"""First- and second-order averaged-evolution terms for twirled coherent errors.

For a single-Pauli drive with unit coefficient the evolution is
U(t) = exp(-i t P_beta), and an error word P_gamma that anticommutes with
the drive is dressed in the interaction frame into

    cos(2t) H_gamma + i sin(2t) G_gamma,

where H_gamma is the commutator superoperator of P_gamma and G_gamma is
built from the product P_beta P_gamma; a commuting word is left untouched.
The twirl average of the first-order term vanishes by sign orthogonality.
The second-order average collapses onto the drive axis: the surviving
coefficient follows the sinc law implemented in `omega2_avg_closed` and
`over_rotation_factor`, with only the anticommuting error words
contributing.

The quadrature path checks that closed form independently.  In twirl
frame alpha the dressed error sum is a fixed bilinear form in three
constant matrices,

    A(t) = C0 + cos(2t) C1 + i sin(2t) C2,

with C0 summing the sign-weighted commuting words and C1, C2 the
anticommuting ones.  Writing c_k = cos 2t_k and s_k = sin 2t_k, the
commutator expands exactly as

    [A(t1), A(t2)] = (c2 - c1) [C0,C1] + i (s2 - s1) [C0,C2]
                     + i sin 2(t2 - t1) [C1,C2],

so the time-ordered integral needs only the scalar kernel triple
(K01, K02, K12) of those three trigonometric factors over the triangle
0 <= t2 <= t1 <= tau, and the first-order term only the integrals of
(1, cos 2t, sin 2t) over [0, tau].  Both depend on tau alone: an average
integrates them once, builds each word's H and G once, and then forms
every frame's C0, C1, C2 from its +-1 signs.  The sum over all 4^n frames
is kept explicit rather than collapsed by sign orthogonality, so the
crosscheck does not assume the cancellation the closed form relies on.
``tol`` and ``max_evaluations`` therefore bound the refinement of the
kernel vector (Frobenius norm of the level difference, integrand calls),
not of a superoperator sum; a frame's matrix error is at most that
kernel error times the summed norms of the fixed matrices the kernels
multiply (half the three commutators for the second-order term).

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


def _dressed_parts(word: PauliString, beta: PauliString):
    """Constant matrices behind the dressed form of one error word.

    Returns (H_word, None) for a word commuting with the drive, or
    (H_word, G_word) for an anticommuting one, with
    G built from the Hilbert-space product P_beta P_word.
    """
    h_word = hamiltonian_superop(matrix_of(word))
    if commutation_sign(word, beta) == 1:
        return h_word, None
    product = matrix_of(beta) @ matrix_of(word)
    eye = np.eye(product.shape[0])
    return h_word, np.kron(product, eye) + np.kron(eye, product.conj())


def _dressed_error(drive: DriveSpec, err: CoherentErrorSpec):
    """Validated (word, scaled amplitude, H_word, G_word) per error word.

    Built once per call; each twirl frame then only applies its signs.
    """
    beta = drive.single_pauli()
    check_drive_error_compat(drive, err)
    return [
        (word, amplitude, *_dressed_parts(word, beta))
        for word, amplitude in err.scaled_terms()
    ]


def _frame_parts(dressed, alpha: PauliString, dim: int):
    """Constant, cos and sin parts (C0, C1, C2) of the interaction-frame
    error generator A(t) = C0 + cos(2t) C1 + i sin(2t) C2 in twirl frame
    alpha: commuting words feed C0, anticommuting ones C1 and C2."""
    c0, c1, c2 = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    for word, amplitude, h_word, g_word in dressed:
        weight = amplitude * commutation_sign(alpha, word)
        if g_word is None:
            c0 += weight * h_word
        else:
            c1 += weight * h_word
            c2 += weight * g_word
    return c0, c1, c2


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def interaction_dressed(err_term: PauliString, drive: DriveSpec, t: float) -> np.ndarray:
    """Dressed error generator U(t)^dag H_gamma U(t) for a single-Pauli drive.

    Commuting words come back unchanged; anticommuting words pick up the
    closed form cos(2t) H_gamma + i sin(2t) G_gamma, equal to the
    brute-force conjugation by exp(-i t H_beta).
    """
    beta = drive.single_pauli()
    if err_term.n_qubits != drive.n_qubits:
        raise ValueError("error word and drive act on different registers")
    if err_term.is_identity:
        return _zero_superop(drive)
    h_word, g_word = _dressed_parts(err_term, beta)
    if g_word is None:
        return h_word
    return math.cos(2.0 * t) * h_word + 1.0j * math.sin(2.0 * t) * g_word


def _zero_superop(drive: DriveSpec) -> np.ndarray:
    dim = 4**drive.n_qubits
    return np.zeros((dim, dim), dtype=complex)


def _omega1_kernels(tau: float, tol: float,
                    max_evaluations: int = 2**20) -> np.ndarray:
    """Integrals of (1, cos 2t, sin 2t) over [0, tau]."""
    return interval_quadrature(
        lambda t: np.array([1.0, math.cos(2.0 * t), math.sin(2.0 * t)]),
        tau, tol, max_evaluations,
    ).value


def _omega1_sum(drive, err, frames, tol, max_evaluations) -> np.ndarray:
    """Sum over ``frames`` of -i (J0 C0 + J1 C1 + i J2 C2), with J the
    interval kernels of `_omega1_kernels`."""
    dressed = _dressed_error(drive, err)
    total = _zero_superop(drive)
    if drive.tau == 0:
        return total
    j0, j1, j2 = _omega1_kernels(drive.tau, tol, max_evaluations)
    for alpha in frames:
        c0, c1, c2 = _frame_parts(dressed, alpha, total.shape[0])
        total += -1.0j * (j0 * c0 + j1 * c1 + 1.0j * j2 * c2)
    return total


def omega1_alpha(drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString,
                 tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """First-order term -i * integral of the twirled dressed error over [0, tau]."""
    return _omega1_sum(drive, err, (alpha,), tol, max_evaluations)


def omega1_avg(drive: DriveSpec, err: CoherentErrorSpec,
               tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Twirl average of the first-order term over the full Pauli group.

    Sign orthogonality cancels it exactly; the near-zero matrix is
    returned so callers can assert how close to zero it lands.
    """
    group = enumerate_group(drive.n_qubits)
    return _omega1_sum(drive, err, group, tol, max_evaluations) / len(group)


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


def _omega2_sum(drive, err, frames, tol, max_evaluations) -> np.ndarray:
    """Sum over ``frames`` of
    -(1/2) (K01 [C0,C1] + i K02 [C0,C2] + i K12 [C1,C2]),
    the exact expansion of -(1/2) iint [A(t1), A(t2)]."""
    dressed = _dressed_error(drive, err)
    total = _zero_superop(drive)
    if drive.tau == 0 or not err.terms:
        return total
    k01, k02, k12 = _omega2_kernels(drive.tau, tol, max_evaluations)
    for alpha in frames:
        c0, c1, c2 = _frame_parts(dressed, alpha, total.shape[0])
        total += -0.5 * (
            k01 * _commutator(c0, c1)
            + 1.0j * k02 * _commutator(c0, c2)
            + 1.0j * k12 * _commutator(c1, c2)
        )
    return total


def omega2_alpha(drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString,
                 tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Second-order term for one twirl word: the time-ordered double
    commutator integral -(1/2) iint [A(t1), A(t2)] with both error
    insertions conjugated by the twirl."""
    return _omega2_sum(drive, err, (alpha,), tol, max_evaluations)


def omega2_avg(drive: DriveSpec, err: CoherentErrorSpec,
               tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Twirl average of the second-order term over the full Pauli group.

    Cross terms between distinct error words cancel by sign orthogonality,
    so the average equals the sum of squared-amplitude single-word terms
    (the quantity `omega2_avg_closed` evaluates analytically).  The kernel
    triple is integrated once and every frame is summed explicitly, so
    this check does not rely on that cancellation.
    """
    group = enumerate_group(drive.n_qubits)
    return _omega2_sum(drive, err, group, tol, max_evaluations) / len(group)


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
