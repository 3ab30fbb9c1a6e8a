"""Dense numerics: expm, principal logm, operator norm, quadrature.

Every matrix routine here (`expm`, `expm_hermitian`, `logm_principal`,
`op_norm`) takes one square matrix or a stack of them, shape (..., d, d),
treats each matrix of a stack as it would alone, and rejects non-finite
entries.  The general exponential `expm` is scaling and squaring with the
degree-13 diagonal Pade approximant, in numpy alone (Higham 2005): each
matrix is halved s times until its 1-norm is at most theta_13, and its
approximant is squared s times, in the field of the input: a real
generator, such as every noisy pattern generator of `pst_core`, is
exponentiated in real arithmetic, and only the result is complex.  A
stack takes one Pade evaluation for all of its matrices, each with its
own s, bit for bit as alone, and a squaring that overflows raises
``ResolutionError`` instead of returning inf or nan.  Only dissipative
generators need it; a unitary exp(-i t h) of a Hermitian h comes from
one batched `eigh` instead (`expm_hermitian`).  The principal logarithm
is an explicit, batched eigendecomposition (`logm_principal`) or, for a
stack of 2 x 2 matrices, a closed form with no eigenbasis (`_logm_2x2`),
which also reads the defective matrices the eigenbasis cannot.  One rule
(`_accepted_log`) accepts both, for each matrix of a stack, the branch
cut and then reconstruction, so that branch-cut proximity and a log that
does not give its matrix back surface as errors instead of silently
degraded results; a block-diagonal matrix is logged block by block,
under the same rule as one dense matrix.

Quadrature is a fixed composite 4-point Gauss-Legendre rule (order 8),
on an interval or as a product rule on the time-ordered triangle.  Both
run through one refinement loop that doubles the cell count until two
successive levels agree; the Frobenius norm of the difference between
levels, its entries scaled by a power of two so that no square
overflows, is the reported error estimate.  Each level calls the integrand
once, on arrays holding all of the level's points (4 nodes per cell on
the interval, the product grid of those nodes on the triangle), and the
evaluation budget counts those points.  The value keeps the integrand's
dtype, so a real integrand is summed, and returned, in real arithmetic.
Everything is deterministic, with a fixed summation order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchCutError, DefectiveMatrixError, QuadratureError, ResolutionError
from .schema import Record

__all__ = [
    "QUADRATURE_ORDER",
    "QuadratureResult",
    "expm",
    "expm_hermitian",
    "interval_quadrature",
    "logm_principal",
    "op_norm",
    "squarings_for",
    "triangle_quadrature",
]

QUADRATURE_ORDER = 8  # composite 4-point Gauss-Legendre per cell
# Eigenvalues this close to the principal log's branch cut are rejected.
BRANCH_TOL = 1e-8

# The 4-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial's
# leggauss(4) returns it, bit for bit; written out so that no command
# imports numpy.polynomial.
_GL_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                      0.33998104358485626, 0.8611363115940526])
_GL_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                        0.6521451548625464, 0.34785484513745357])


class QuadratureResult(Record):
    """Value of an adaptive quadrature plus its error estimate and cost."""

    value: np.ndarray
    estimated_error: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.estimated_error) or self.estimated_error < 0:
            raise ValueError("estimated_error must be finite and >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


def _as_square_finite(m, dtype=complex) -> np.ndarray:
    """``m`` as a finite square matrix or stack of them, (..., d, d), of
    ``dtype``."""
    m = np.asarray(m, dtype=dtype)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


# The degree-13 diagonal Pade approximant r = (V - U)^-1 (V + U) of exp,
# with U and V the odd and even parts of the numerator, coefficients
# b_k = (26 - k)! 13! / (26! k! (13 - k)!).  b_0 = 1 exactly, so r(0) is
# the identity exactly.  Where the 1-norm is at most theta_13, r has
# backward error under the unit roundoff of double precision (Higham
# 2005, table 2.3).
_PADE_13 = tuple(
    math.factorial(26 - k) * math.factorial(13)
    / (math.factorial(26) * math.factorial(k) * math.factorial(13 - k))
    for k in range(14)
)
_THETA_13 = 5.371920351148152


def squarings_for(norm: float) -> int:
    """The squaring count s = max(0, ceil(log2(norm / theta_13))) that
    `expm` takes for a matrix of 1-norm ``norm``."""
    return math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0


def _pade_13(a: np.ndarray) -> np.ndarray:
    """The degree-13 Pade approximant of exp at each matrix of a stack."""
    b = _PADE_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    # b_1 I and b_0 I touch the diagonal only: adding a full identity
    # would turn each off-diagonal -0.0 into +0.0.
    diagonal = np.arange(a.shape[-1])
    u[..., diagonal, diagonal] += b[1]
    v[..., diagonal, diagonal] += b[0]
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def expm(m) -> np.ndarray:
    """Matrix exponential of one square matrix, or of each matrix in a
    stack of shape (..., d, d), returned as complex128.

    Scaling and squaring with the degree-13 diagonal Pade approximant
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), taken of A / 2^s
    with s = max(0, ceil(log2(||A||_1 / theta_13))) and squared s times.
    Each matrix of a stack has its own 1-norm and s: every matrix is
    divided by its own 2^s, the whole stack goes through one Pade
    evaluation and one solve, and squaring step t squares the matrices
    whose s exceeds t, with the same floating-point operations as alone.
    A 1-norm or a squared result that overflows raises
    ``ResolutionError``, naming the 1-norm and the squaring count of the
    first such matrix.  A real (or integer) input is exponentiated in
    float64 arithmetic, with the same steps as a complex one, and only the
    result is cast to complex: real Pade products and a real solve cost
    about 2.5 times less.
    """
    m = np.asarray(m)
    a = _as_square_finite(m, float if m.dtype.kind in "biuf" else complex)
    # The stack size is named, not -1, which numpy refuses for 0 x 0 matrices.
    stack = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])
    with np.errstate(over="ignore"):
        norms = np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0).tolist()
    for norm in norms:
        if not math.isfinite(norm):
            raise ResolutionError(
                f"matrix 1-norm {norm:.3e} overflows; its exponential cannot be"
                " scaled and squared"
            )
    squarings = np.array([squarings_for(norm) for norm in norms], dtype=int)
    result = _pade_13(stack / 2.0 ** squarings[:, None, None])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(squarings.max(initial=0)):
            live = squarings > t
            part = result[live]
            result[live] = part @ part
    finite = np.isfinite(result).all(axis=(-2, -1))
    if not finite.all():
        first = int(np.argmin(finite))
        raise ResolutionError(
            f"exponential of a matrix with 1-norm {norms[first]:.3e} overflows"
            f" in its {squarings[first]} squarings; the input is too large to"
            " resolve"
        )
    return result.reshape(a.shape).astype(complex, copy=False)


def expm_hermitian(h, t: float) -> np.ndarray:
    """exp(-i t h) of a Hermitian h, or of each matrix in a stack of shape
    (..., d, d), from its eigendecomposition; ``t`` must be finite.

    Only the lower triangle of h is read, as by `np.linalg.eigh`.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    energies, basis = np.linalg.eigh(_as_square_finite(h))
    return (basis * np.exp(-1.0j * t * energies)[..., None, :]) @ basis.conj().swapaxes(-1, -2)


def _accepted_log(m: np.ndarray, eigvals: np.ndarray, logarithm) -> np.ndarray:
    """The one rule by which a principal log of ``m``, a square matrix or a
    stack of them, is accepted, each matrix judged alone.

    An eigenvalue of ``eigvals`` (shape (..., d)) within ``BRANCH_TOL`` of
    the closed negative real axis (the branch cut, including 0) raises
    ``BranchCutError``.  Only then is ``logarithm()`` called; it returns the
    log and its exponential, and a log whose exponential misses its matrix
    by more than 1e-12 of that matrix's Frobenius norm (at least 1), or is
    not finite, raises ``DefectiveMatrixError``.
    """
    # Distance to the ray (-inf, 0]: |Im| beside it, |z| past its end.
    distance = np.where(eigvals.real < 0, np.abs(eigvals.imag), np.abs(eigvals))
    near_cut = eigvals[distance <= BRANCH_TOL]
    if near_cut.size:
        value = near_cut[0]
        if abs(value) <= BRANCH_TOL:
            raise BranchCutError(
                f"matrix is singular to working precision (eigenvalue {value:.3e})"
            )
        raise BranchCutError(
            f"eigenvalue {value:.6e} lies within {BRANCH_TOL:g} of the"
            " branch cut of the principal logarithm; reduce the evolution"
            " time tau so the eigenphases stay inside (-pi, pi)"
        )
    log, rebuilt = logarithm()
    miss = np.linalg.norm(rebuilt - m, axis=(-2, -1))
    bound = 1e-12 * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    if not np.all(miss <= bound):
        raise DefectiveMatrixError(
            f"the principal log reconstructs the channel only to {float(miss.max()):.3e};"
            " the channel is defective or nearly so"
        )
    return log


def logm_principal(m) -> np.ndarray:
    """Principal matrix logarithm via eigendecomposition, of one square
    matrix or of each matrix in a stack of shape (..., d, d).

    Accepted by the one rule of `_accepted_log`, each matrix of a stack
    judged alone: an eigenvalue within ``BRANCH_TOL`` of the closed
    negative real axis (the branch cut, including 0) raises
    ``BranchCutError``; a singular eigenbasis, or a log whose exponential
    misses its matrix by more than 1e-12 of that matrix's Frobenius norm
    (at least 1), raises ``DefectiveMatrixError``.  Eigenvalue arguments
    lie in (-pi, pi).
    """
    m = _as_square_finite(m)
    eigvals, eigvecs = np.linalg.eig(m)

    def logarithm():
        # LinAlgError is a ValueError, which the CLI reads as bad input.
        try:
            inverse = np.linalg.inv(eigvecs)
        except np.linalg.LinAlgError:
            raise DefectiveMatrixError(
                "eigenbasis is singular; the matrix is defective and has no"
                " eigendecomposition logarithm"
            ) from None
        log = (eigvecs * np.log(eigvals)[..., None, :]) @ inverse
        return log, expm(log)

    return _accepted_log(m, eigvals, logarithm)


def _half_gap(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = (a - d) / 2 and s = +-sqrt(p^2 + b c) of each complex 2 x 2 matrix
    [[a, b], [c, d]] of a stack, the sign of s taken so that
    |p + s|^2 >= |p|^2 + |s|^2: its eigenvalues are (a + d) / 2 +- s."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    p = (a - d) / 2
    s = np.sqrt(p * p + b * c)
    return p, np.where((np.conj(p) * s).real < 0, -s, s)


def _expm_2x2(x: np.ndarray) -> np.ndarray:
    """exp(X) = e^nu [cosh s I + (sinh s / s) (X - nu I)] of each 2 x 2
    matrix of a stack, nu = tr X / 2 and nu +- s its eigenvalues; cosh s
    and sinh s / s are even in s, so a defective X (s = 0) is no
    exception."""
    nu = (x[..., 0, 0] + x[..., 1, 1]) / 2
    _, s = _half_gap(x)
    small = np.abs(s) < 1e-4
    sinhc = np.where(small, 1 + s * s / 6 + s**4 / 120, np.sinh(s) / np.where(small, 1.0, s))
    eye = np.eye(2)
    return np.exp(nu)[..., None, None] * (
        np.cosh(s)[..., None, None] * eye
        + sinhc[..., None, None] * (x - nu[..., None, None] * eye))


def _logm_2x2(stack) -> np.ndarray:
    """Principal logarithm of each 2 x 2 matrix [[a, b], [c, d]] of a stack,
    shape (..., 2, 2), in closed form, accepted by the rule of
    `_accepted_log`.

    The eigenvalues are l1 = a + b c / (p + s) and l2 = d - b c / (p + s)
    (`_half_gap`): each is its diagonal entry plus a correction, so a small
    one keeps its digits beside a large one, and l1 - l2 = 2 s.  With them,
    Cayley-Hamilton gives log M = log(l2) I + L (M - l2 I), where
    L = log[l1, l2] is the divided difference of log (Higham, *Functions of
    Matrices*, SIAM 2008, ch. 11): the difference quotient where l1 and l2
    lie far apart; (2 atanh(z) + 2 pi i U) / (l1 - l2) where they are close,
    |z| <= 1/2 with z = (l1 - l2) / (l1 + l2) and U the unwinding number of
    log l1 - log l2, whose 2 pi i the atanh does not see; and 1 / l1 where
    they are equal, so a defective matrix is a removable case.  The log is
    rebuilt by the closed-form `_expm_2x2`, so no eigenbasis, inverse or
    solve is formed.
    """
    m = _as_square_finite(stack)
    if m.shape[-1] != 2:
        raise ValueError(f"expected a stack of 2 x 2 matrices, got shape {m.shape}")
    p, s = _half_gap(m)
    # b c / (p + s) equals s - p, but keeps the digits that s - p loses where
    # b c is small beside p^2.  A denominator below 1e-150 would overflow
    # numpy's complex division; there s - p is exact far below 1e-8, the
    # smallest eigenvalue the branch cut accepts.
    sized = np.abs(p + s) > 1e-150
    shift = np.where(sized, m[..., 0, 1] * m[..., 1, 0] / np.where(sized, p + s, 1.0), s - p)
    l1, l2 = m[..., 0, 0] + shift, m[..., 1, 1] - shift

    def logarithm():
        log1, log2 = np.log(l1), np.log(l2)
        unwinding = np.ceil((log1.imag - log2.imag - math.pi) / (2 * math.pi))
        # Each form is evaluated everywhere and kept where it holds, and no
        # kept quotient overflows: |s| > 3e-9 where l1 and l2 lie far apart
        # or U != 0 (each eigenvalue is 1e-8 off the cut), and |z| < 1e-4
        # takes the series of atanh(z) / z.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z = 2 * s / (l1 + l2)
            far = (log1 - log2) / (2 * s)
            small = np.abs(z) < 1e-4
            atanhc = np.where(small, 1 + z * z / 3 + z**4 / 5,
                              np.arctanh(z) / np.where(small, 1.0, z))
            close = 2 * atanhc / (l1 + l2) + np.where(
                unwinding == 0, 0.0, 1j * math.pi * unwinding / s)
        divided = np.where(np.abs(z) <= 0.5, close, far)
        eye = np.eye(2)
        log = (log2[..., None, None] * eye
               + divided[..., None, None] * (m - l2[..., None, None] * eye))
        return log, _expm_2x2(log)

    return _accepted_log(m, np.stack([l1, l2], axis=-1), logarithm)


def op_norm(m) -> float:
    """Largest singular value of one square matrix, or the largest over a
    stack of shape (..., d, d); of a block-diagonal matrix, the largest
    over its blocks."""
    m = _as_square_finite(m)
    return float(np.linalg.norm(m, 2, axis=(-2, -1)).max())


def _composite_rule(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1]."""
    width = 1.0 / cells
    offsets = width * (_GL_NODES + 1.0) / 2.0
    nodes = (np.arange(cells)[:, None] * width + offsets).ravel()
    weights = np.tile(_GL_WEIGHTS * width / 2.0, cells)
    return nodes, weights


def _frobenius(a: np.ndarray) -> float:
    """||a||_F without overflow in the squares: the entries are scaled by a
    power of two near the largest magnitude, exactly, before they are
    squared, so the norm keeps its bits wherever the plain sum fits.  The
    squared real and imaginary parts are summed by numpy's pairwise sums,
    whose bits do not depend on the BLAS thread count."""
    exponent = min(max(math.frexp(float(np.abs(a).max(initial=0.0)))[1], -1000), 1000)
    with np.errstate(over="ignore"):
        scaled = a * 2.0**-exponent
        return float(np.sqrt(np.sum(scaled.real**2) + np.sum(scaled.imag**2)) * 2.0**exponent)


def _refine(f, grid, tol: float, max_evaluations: int, name: str) -> QuadratureResult:
    """Cell-doubling refinement shared by both quadratures.

    ``grid(cells)`` returns one level's points, a tuple of coordinate
    arrays, and their weights; ``f`` is called once per level on those
    arrays and returns its values with the point axis last (a scalar
    broadcasts), in its own dtype: a real integrand gives a real value.
    Levels double the cell count until two successive ones agree to
    ``tol`` in Frobenius norm; the budget counts points.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    previous = None
    estimate = math.inf
    evaluations = 0
    cells = 1
    while True:
        points, weights = grid(cells)
        if evaluations + weights.size > max_evaluations:
            best = None
            if previous is not None and math.isfinite(estimate):
                best = QuadratureResult(previous, estimate, evaluations)
            raise QuadratureError(
                f"{name} quadrature did not reach tol={tol:g} within"
                f" {max_evaluations} evaluations (best estimate"
                f" {estimate:.3e})",
                best=best,
            )
        current = (np.asarray(f(*points)) * weights).sum(axis=-1)
        evaluations += weights.size
        if previous is not None:
            estimate = _frobenius(current - previous)
            if estimate <= tol:
                return QuadratureResult(current, estimate, evaluations)
        previous = current
        cells *= 2


def interval_quadrature(f, upper: float, tol: float = 1e-9,
                        max_evaluations: int = 2**20) -> QuadratureResult:
    """Integrate f(t) over [0, upper] by cell-doubling refinement; ``f``
    takes a level's time array and returns values on its last axis, and
    the value has their dtype (real for a real integrand)."""
    if upper <= 0:
        raise ValueError(f"upper limit must be positive, got {upper}")

    def grid(cells):
        nodes, weights = _composite_rule(cells)
        return (upper * nodes,), upper * weights

    return _refine(f, grid, tol, max_evaluations, "interval")


def triangle_quadrature(f, tau: float, tol: float = 1e-9,
                        max_evaluations: int = 2**20) -> QuadratureResult:
    """Integrate f(t1, t2) over the time-ordered triangle 0 <= t2 <= t1 <= tau.

    The triangle maps onto the unit square through (t1, t2) =
    (tau u, tau u v) with Jacobian tau^2 u, then a composite 4-point
    Gauss-Legendre product rule is applied and the cell count doubled
    until successive levels agree to ``tol`` in Frobenius norm.  ``f``
    takes a level's (t1, t2) arrays and returns values on their last axis,
    and the value has their dtype (real for a real integrand).

    Raises ``QuadratureError`` (carrying the best estimate) if ``tol``
    is not reached within ``max_evaluations`` integrand points, and
    ``ResolutionError`` up front where tau^2 overflows (above 1.3e154).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not math.isfinite(tau * tau):
        raise ResolutionError(
            f"tau={tau!r} is too long: the triangle's Jacobian tau^2 overflows"
            " double precision"
        )

    def grid(cells):
        nodes, weights = _composite_rule(cells)
        u, v = np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)
        return (tau * u, tau * u * v), np.outer(weights, weights).ravel() * u * (tau * tau)

    return _refine(f, grid, tol, max_evaluations, "triangle")
