"""First- and second-order averaged-evolution terms for twirled coherent errors.

For a single-Pauli drive with unit coefficient the evolution is
U(t) = exp(-i t P_beta), and an error word P_gamma that anticommutes with
the drive is dressed in the interaction frame into the Hermitian

    U(t)^dag P_gamma U(t) = cos(2t) P_gamma + sin(2t) i P_beta P_gamma;

a commuting word is left untouched.  The twirl average of the first-order
term vanishes by sign orthogonality.  The second-order average collapses
onto the drive axis: the surviving coefficient follows the sinc law
implemented in `omega2_avg_closed` and in `sinc_law.over_rotation_factor`,
with only the anticommuting error words contributing.

The quadrature path checks that closed form independently, in Hilbert
space.  In twirl frame alpha the dressed error sum is

    a(t) = c0 + cos(2t) c1 + sin(2t) c2,

with c0 summing the commuting words P_w, c1 the anticommuting ones and c2
their i P_beta P_w, each weighted by its amplitude and the frame sign
chi_alpha(P_w).  A frame enters only through these signs, its row of
signs against the m error words.  Taking a frame to its row is a
homomorphism onto 2^r rows, r the rank of the words over GF(2), so each
distinct row, a sign class, is taken by a coset of its kernel,
4^n / 2^r frames, and the mean over the 2^r <= min(4^n, 2^m) classes is
the mean over every frame.  The classes are the characters of the error
words' span, read off `pauli._span` in Sylvester order, with no row per
frame; frame alpha's one row is its `commutation_sign` against each word.
c0, c1, c2 of every class are built as Pauli weight rows, then as
matrices by one `pauli._pauli_sums` pass.  Writing c_k = cos 2t_k and
s_k = sin 2t_k, the commutator expands exactly as

    [a(t1), a(t2)] = (c2 - c1) [c0,c1] + (s2 - s1) [c0,c2]
                     + sin 2(t2 - t1) [c1,c2],

so the time-ordered integral needs only the scalar kernel triple
(K01, K02, K12) of those three trigonometric factors over the triangle
0 <= t2 <= t1 <= tau, and the first-order term only the integrals
(J0, J1, J2) of (1, cos 2t, sin 2t) over [0, tau], numpy expressions in
the time arrays that depend on tau alone: each is integrated once per
(tau, tol, max_evaluations) and cached read-only (a failed quadrature is
not cached, so its error reaches every caller).  The sum over the
classes is kept explicit rather than collapsed by sign orthogonality, so
the cross terms between error words still cancel numerically and the
crosscheck does not assume the cancellation the closed form relies on.

Only the kernels depend on tau, and the terms are linear in the class
matrices.  `_frame_work` therefore averages an error set's classes once:
it builds each class's three 2^n x 2^n commutators, batched over the
class axis, and keeps only the class means of c0, c1, c2 and of the
commutators.  Each tau then weights three of them by its kernels in
`_generator` (zero, with no quadrature, at tau 0 or for an empty set),
and `_closed_generator` scales the drive word by the sinc coefficient.
`experiments` keeps the per-set work across its taus.

The Liouville form is an output format only.  The commutator
superoperator H(x) = x kron I - I kron x^T of `liouville` is linear and a
Lie homomorphism, [H(a), H(b)] = H([a, b]), so the interaction-frame
generator is A(t) = H(a(t)) and each public call lifts one Hermitian
matrix, averaged over the classes:

    Omega1 = -i H(J0 c0 + J1 c1 + J2 c2),
    Omega2 = -i H(-(i/2) (K01 [c0,c1] + K02 [c0,c2] + K12 [c1,c2])).

A `magnus-check` row needs only two Frobenius norms of such lifts, and
`_crosscheck_norms` reads them off the 2^n x 2^n generators with no
4^n x 4^n array: H(x) holds each off-diagonal x_ij 2d times, d = 2^n,
and the differences x_ii - x_kk on its diagonal, and `_lifted_norm`
forms those differences as the lift rounds them.

``tol`` and ``max_evaluations`` therefore bound the refinement of the
kernel vector (Frobenius norm of the level difference, integrand points),
not of a matrix sum; a frame's matrix error is at most that kernel error
times the summed norms of the fixed matrices the kernels multiply (half
the lifted commutators for the second-order term).

Amplitudes large enough that a class matrix, a commutator, a lift or the
squares of a norm overflow double precision raise ``ResolutionError``,
in the quadrature terms, the closed form and the crosscheck norms alike,
with numpy's overflow warnings kept quiet; `_resolved` is the one check.

Closed-form operations require a single drive Pauli with coefficient 1
(the duration tau carries the rotation angle); the general multi-term
drive is accepted only by the ensemble builder in `pst_core`.
"""
from __future__ import annotations

import functools
import math
from copy import copy
from typing import NamedTuple

import numpy as np

from .errors import ResolutionError
from .liouville import hamiltonian_superop
from .numerics import interval_quadrature, triangle_quadrature
from .pauli import (
    PauliString,
    _pauli_sums,
    _product_phases,
    _span,
    check_qubit_count,
    commutation_sign,
    matrix_of,
    pauli_from_label,
)
from .schema import Record
from .sinc_law import _sinc_coefficient, over_rotation_factor

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
]


def _as_terms(terms, role: str) -> tuple[tuple[PauliString, float], ...]:
    """(word, coefficient) pairs, labels parsed, under the rules every Pauli
    sum here obeys: one register, no identity word, no repeated word,
    finite coefficients.  Messages name the ``role`` ("drive" or "error")."""
    out = []
    seen = set()
    for word, coefficient in terms:
        if isinstance(word, str):
            word = pauli_from_label(word)
        coefficient = float(coefficient)
        if out and word.n_qubits != out[0][0].n_qubits:
            raise ValueError(
                f"{role} terms must act on the same register; {word.label} does not"
            )
        if word.is_identity:
            raise ValueError(
                f"identity word {word.label} generates nothing; drop it from the {role}"
            )
        if word in seen:
            raise ValueError(f"duplicate {role} term {word.label}")
        if not math.isfinite(coefficient):
            raise ValueError(f"{role} coefficient for {word.label} must be finite")
        seen.add(word)
        out.append((word, coefficient))
    return tuple(out)


class DriveSpec(Record):
    """Ideal gate generator: Pauli terms with real coefficients, duration tau."""

    terms: tuple[tuple[PauliString, float], ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_terms(self.terms, "drive"))
        if not self.terms:
            raise ValueError("drive needs at least one Pauli term")
        if not math.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"drive duration must be finite and >= 0, got {self.tau}")

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


def _check_scale(scale: float) -> None:
    if not math.isfinite(scale):
        raise ValueError("scale must be finite")


class CoherentErrorSpec(Record):
    """Coherent-error generator: distinct Pauli terms, plus a global scale.

    The scale multiplies every amplitude uniformly so parameter sweeps can
    vary it without rebuilding the term list.  Amplitudes are stored with
    any overall error-strength prefactor already folded in.
    """

    terms: tuple[tuple[PauliString, float], ...] = ()
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_terms(self.terms, "error"))
        _check_scale(self.scale)

    @classmethod
    def from_amplitudes(cls, amplitudes, scale: float = 1.0) -> "CoherentErrorSpec":
        """Build from {"XX": 0.2, ...} or an iterable of (label, value) pairs."""
        pairs = amplitudes.items() if hasattr(amplitudes, "items") else amplitudes
        return cls(tuple(pairs), scale)

    @property
    def n_qubits(self) -> int | None:
        return self.terms[0][0].n_qubits if self.terms else None

    def with_scale(self, scale: float) -> "CoherentErrorSpec":
        """These terms, valid already, at ``scale``: only the scale is checked."""
        _check_scale(scale)
        spec = copy(self)
        object.__setattr__(spec, "scale", scale)
        return spec

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
    drive_words = {word for word, _ in drive.terms}
    for word, _ in err.terms:
        if word in drive_words:
            raise ValueError(
                f"error term {word.label} coincides with a drive Pauli"
                " (controlled mis-rotation is excluded from this model)"
            )


def _dressed_sums(beta: PauliString, words: list[int], weights: np.ndarray) -> np.ndarray:
    """(c0, c1, c2) for each row of ``weights``, the weights of the words
    at indices ``words``, stacked (3, rows, 2^n, 2^n): weight rows summed
    in one `_pauli_sums` pass.  A word w with a real phase w(w, beta) = +-1
    commutes with the drive beta and goes to c0; one with w(w, beta) = +-i
    goes to c1, and as i P_beta P_w = i w(beta, w) P_(beta XOR w) to c2,
    with the factor i w(beta, w) = i conj(w(w, beta)) = Im w(w, beta) = +-1.
    """
    n = beta.n_qubits
    words = np.array(words, dtype=np.intp)
    factors = _product_phases(np.array([beta.index]), n)[0].imag[words]
    anti = factors != 0  # the words that anticommute with beta
    rows = np.zeros((3, len(weights), 4**n))
    rows[0][:, words[~anti]] = weights[:, ~anti]
    rows[1][:, words[anti]] = weights[:, anti]
    rows[2][:, words[anti] ^ beta.index] = weights[:, anti] * factors[anti]
    return _pauli_sums(rows)


def _frame_parts(drive: DriveSpec, err: CoherentErrorSpec,
                 alpha: PauliString | None) -> np.ndarray:
    """(c0, c1, c2) of a(t) = c0 + cos(2t) c1 + sin(2t) c2 in each class
    of twirl frames, stacked (3, classes, 2^n, 2^n).

    A frame enters only through its row of signs against the error words.
    The classes are the characters of the words' span over GF(2), the rows
    of `pauli._span`'s characters at the words' elements, in Sylvester
    order; or the one class is alpha's row of `commutation_sign`.  Taking
    a frame to its row is a homomorphism onto these 2^r rows, r the rank
    of the words, so each class holds a coset of its kernel, 4^n / 2^r
    frames: the mean over the classes is the mean over every frame.
    """
    beta = drive.single_pauli()
    check_drive_error_compat(drive, err)
    n, terms = check_qubit_count(drive.n_qubits), err.scaled_terms()
    if alpha is None:
        _, position, characters = _span([word.index for word, _ in terms])
        classes = characters[:, position]
    elif alpha.n_qubits != n:
        raise ValueError(f"frame word acts on {alpha.n_qubits} qubits, drive on {n}")
    else:
        classes = np.array([[commutation_sign(alpha, word) for word, _ in terms]])
    weights = classes * [amplitude for _, amplitude in terms]
    return _dressed_sums(beta, [word.index for word, _ in terms], weights)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] of Hermitian a, b (batched over leading axes) as ab - (ab)^dag:
    one product, and anti-Hermitian by construction whatever order the
    product sums in, so the Hermiticity check of the lift holds even for a
    class mean that cancels to rounding level."""
    product = a @ b
    return product - product.conj().swapaxes(-1, -2)


class _FrameWork(NamedTuple):
    """The part of the Magnus terms of one error set that no tau changes,
    averaged over the classes of `_frame_parts`: the means of c0, c1 and
    c2, and of the Hermitian -(i/2) ([c0,c1], [c0,c2], [c1,c2]), each
    stacked (3, 2^n, 2^n); and whether the set has an error word.  The
    class count is a power of two, so the means divide exactly."""

    means: np.ndarray
    commutators: np.ndarray
    has_terms: bool


def _frame_work(drive: DriveSpec, err: CoherentErrorSpec,
                alpha: PauliString | None) -> _FrameWork:
    """`_FrameWork` of ``err`` over every frame, or over alpha's alone,
    under the drive word of ``drive``; its tau is not read.  The
    commutators of each class are averaged here and not kept."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = _frame_parts(drive, err, alpha)
        c0, c1, c2 = parts
        commutators = np.array([_commutator(a, b).mean(axis=0)
                                for a, b in ((c0, c1), (c0, c2), (c1, c2))])
        return _FrameWork(parts.mean(axis=1), -0.5j * commutators, bool(err.terms))


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
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    constant, cos_part, sin_part = _dressed_sums(beta, [err_term.index], np.ones((1, 1)))[:, 0]
    return hamiltonian_superop(
        constant + math.cos(2.0 * t) * cos_part + math.sin(2.0 * t) * sin_part
    )


def _read_only(kernels: np.ndarray) -> np.ndarray:
    kernels.flags.writeable = False
    return kernels


def _resolved(value, term: str):
    """``value``, an array or a scalar of the ``term``, if it is finite;
    otherwise ``ResolutionError``: the term overflows double precision."""
    if np.isfinite(value).all():
        return value
    raise ResolutionError(
        f"the {term} overflows double precision; the error amplitudes are too"
        " large to resolve"
    )


def _lift(generator: np.ndarray, term: str) -> np.ndarray:
    """-i H(generator) of the ``term``, for a finite generator, `_resolved`."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _resolved(-1.0j * hamiltonian_superop(generator), term)


def _lifted_norm(x: np.ndarray, term: str, minus: np.ndarray | None = None) -> float:
    """||H(x) - H(minus)||_F of the ``term``, read off the d x d matrices
    x and ``minus`` (zero if omitted), `_resolved`.

    H(x) = x kron I - I kron x^T holds each off-diagonal x_ij exactly, 2d
    times, and on its diagonal the d^2 differences x_ii - x_kk, each
    rounded once.  These are formed as the lift rounds them, and those of
    ``minus`` subtracted, so the norm is that of the difference of the two
    lifted terms entry for entry.  The lift of x - minus would round other
    differences, and where the terms cancel to a residual at their own
    rounding, as a converged discrepancy does, its norm differs from
    theirs by far more than the sums' rounding.  No mean is subtracted,
    so x near a multiple of I keeps its digits.  The squares are summed
    by numpy's pairwise sums, whose bits do not depend on the BLAS thread
    count; squares that overflow give inf.
    """
    d = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        off = x - (0 if minus is None else minus)
        np.fill_diagonal(off, 0)
        diagonal = np.subtract.outer(np.diag(x), np.diag(x))
        if minus is not None:
            diagonal = diagonal - np.subtract.outer(np.diag(minus), np.diag(minus))
        return _resolved(math.sqrt(float(
            2 * d * (np.sum(off.real**2) + np.sum(off.imag**2))
            + np.sum(diagonal.real**2) + np.sum(diagonal.imag**2))), term)


@functools.lru_cache(maxsize=256)
def _omega1_kernels(tau: float, tol: float, max_evaluations: int) -> np.ndarray:
    """Integrals of (1, cos 2t, sin 2t) over [0, tau]."""
    return _read_only(interval_quadrature(
        lambda t: np.array([np.ones_like(t), np.cos(2.0 * t), np.sin(2.0 * t)]),
        tau, tol, max_evaluations,
    ).value)


@functools.lru_cache(maxsize=256)
def _omega2_kernels(tau: float, tol: float, max_evaluations: int) -> np.ndarray:
    """Kernel triple (K01, K02, K12): the integrals of
    (cos 2t2 - cos 2t1, sin 2t2 - sin 2t1, sin 2(t2 - t1))
    over the time-ordered triangle 0 <= t2 <= t1 <= tau."""

    def kernels(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        return np.array([
            np.cos(2.0 * t2) - np.cos(2.0 * t1),
            np.sin(2.0 * t2) - np.sin(2.0 * t1),
            np.sin(2.0 * (t2 - t1)),
        ])

    return _read_only(triangle_quadrature(kernels, tau, tol, max_evaluations).value)


_TERMS = {1: "first-order term", 2: "second-order term"}


def _generator(order: int, work: _FrameWork, tau: float, tol: float,
               max_evaluations: int) -> np.ndarray:
    """The frame mean g of the generator of the ``order``-th Magnus term
    at ``tau``, read from the class means of ``work``, `_resolved`; the
    term is -i H(g).  Order 1: J0 c0 + J1 c1 + J2 c2, with J the interval
    kernels of `_omega1_kernels`.  Order 2: the exact expansion of
    -(1/2) iint [A(t1), A(t2)], -(i/2) (K01 [c0,c1] + K02 [c0,c2] +
    K12 [c1,c2]), with K the triangle kernels of `_omega2_kernels`.  Zero,
    with no quadrature, at tau 0 or for an empty error set."""
    kernels, matrices = ((_omega1_kernels, work.means) if order == 1
                         else (_omega2_kernels, work.commutators))
    k0, k1, k2 = (kernels(tau, tol, max_evaluations) if tau > 0 and work.has_terms
                  else np.zeros(3))
    m0, m1, m2 = matrices
    with np.errstate(over="ignore", invalid="ignore"):
        return _resolved(k0 * m0 + k1 * m1 + k2 * m2, _TERMS[order])


def _term(order: int, drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString | None,
          tol: float, max_evaluations: int) -> np.ndarray:
    """The ``order``-th Magnus term of ``err`` under ``drive``, averaged
    over every frame, or alpha's alone: the lift of its `_generator`."""
    work = _frame_work(drive, err, alpha)
    return _lift(_generator(order, work, drive.tau, tol, max_evaluations), _TERMS[order])


def omega1_alpha(drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString,
                 tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """First-order term -i * integral of the twirled dressed error over [0, tau]."""
    return _term(1, drive, err, alpha, tol, max_evaluations)


def omega1_avg(drive: DriveSpec, err: CoherentErrorSpec,
               tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Twirl average of the first-order term over the full Pauli group.

    Sign orthogonality cancels it exactly; the near-zero matrix is
    returned so callers can assert how close to zero it lands.
    """
    return _term(1, drive, err, None, tol, max_evaluations)


def omega2_alpha(drive: DriveSpec, err: CoherentErrorSpec, alpha: PauliString,
                 tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Second-order term for one twirl word: the time-ordered double
    commutator integral -(1/2) iint [A(t1), A(t2)] with both error
    insertions conjugated by the twirl."""
    return _term(2, drive, err, alpha, tol, max_evaluations)


def omega2_avg(drive: DriveSpec, err: CoherentErrorSpec,
               tol: float = 1e-9, max_evaluations: int = 2**20) -> np.ndarray:
    """Twirl average of the second-order term over the full Pauli group.

    Cross terms between distinct error words cancel by sign orthogonality,
    so the average equals the sum of squared-amplitude single-word terms
    (the quantity `omega2_avg_closed` evaluates analytically).  The kernel
    triple is integrated once and every sign class is summed explicitly,
    so this check does not rely on that cancellation.
    """
    return _term(2, drive, err, None, tol, max_evaluations)


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


def _closed_generator(drive: DriveSpec, err: CoherentErrorSpec) -> np.ndarray:
    """tau (1 - sinc(2 tau))/2 * `anticommuting_sum_h2` * P_beta, `_resolved`:
    the closed form's second-order term is -i H of it."""
    weight = drive.tau * _sinc_coefficient(drive.tau) * anticommuting_sum_h2(drive, err)
    with np.errstate(over="ignore", invalid="ignore"):
        return _resolved(weight * matrix_of(drive.single_pauli()),
                         "closed-form second-order term")


def omega2_avg_closed(drive: DriveSpec, err: CoherentErrorSpec) -> np.ndarray:
    """Closed form of the averaged second-order term:
    -i tau (1 - sinc(2 tau))/2 * (sum of anticommuting amplitudes squared)
    times the drive superoperator, the coefficient from `sinc_law`."""
    return _lift(_closed_generator(drive, err), "closed-form second-order term")


def _crosscheck_norms(work: _FrameWork, drive: DriveSpec, err: CoherentErrorSpec,
                      tol: float, max_evaluations: int) -> tuple[float, float]:
    """||Omega2 - closed form||_F and ||Omega1||_F of ``err`` under
    ``drive``, from its ``work``, without a lift: `_lifted_norm` of the
    2^n x 2^n generators, the norms of the terms `omega2_avg`,
    `omega2_avg_closed` and `omega1_avg` return."""
    with np.errstate(over="ignore", invalid="ignore"):
        discrepancy = _lifted_norm(_generator(2, work, drive.tau, tol, max_evaluations),
                                   "discrepancy norm", _closed_generator(drive, err))
        return discrepancy, _lifted_norm(_generator(1, work, drive.tau, tol, max_evaluations),
                                         "first-order term norm")
