"""Liouville-space (vectorized) operators.

Convention: density matrices are flattened row-major, so the action
rho -> A rho B becomes (A kron B^T) on vec(rho).  Under this single
convention a Hamiltonian H generates the superoperator
H kron I - I kron H^T, a unitary U acts as U kron U*, and a Pauli word
P acts as the involution P kron P*.  Every module in this package
assumes row-major stacking; the round-trip and conjugation tests in
``test_liouville`` guard it.

Each noise kind is defined once, as the exact real 4 x 4 Pauli-transfer
generator of its Lindblad term on one qubit at unit rate,
T[i, j] = tr(P_i D(P_j)) / 2 with D(rho) = L rho L^dag - (1/2){L^dag L, rho}
(`_NOISE_TABLES`).  The noise on n qubits is the Kronecker sum of
``rate * T`` over the target qubits (`_noise_transfer`), in the
Pauli-transfer basis that `pst_core` works in; `dissipator_superop` is
its row-major Liouville view, for callers that want that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .numerics import _as_square_finite
from .pauli import PauliString, _liouville_view, check_qubit_count, matrix_of

__all__ = [
    "HERMITICITY_TOL",
    "NOISE_KINDS",
    "UNITARITY_TOL",
    "NoiseSpec",
    "devectorize",
    "dissipator_superop",
    "hamiltonian_superop",
    "matrix_from_json",
    "matrix_to_json",
    "pauli_unitary_superop",
    "unitary_superop",
    "vectorize",
]

# Tight tolerances: all inputs in scope are analytically exact.
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10

# T[i, j] = tr(P_i D(P_j)) / 2 of one qubit's Lindblad term D at unit rate,
# rows and columns in group order I, X, Y, Z.
_NOISE_TABLES = {
    "none": ((0,) * 4,) * 4,
    # L = sigma_z: D(P) = Z P Z - P is -2 P on X and Y, 0 on I and Z.
    "pauli_z": ((0, 0, 0, 0), (0, -2, 0, 0), (0, 0, -2, 0), (0, 0, 0, 0)),
    # L = |0><1|, L^dag L = |1><1|: D(I) = Z, D(X) = -X/2, D(Y) = -Y/2,
    # D(Z) = -Z, so row Z reads +1 at I and -1 at Z.
    "amplitude_damping": ((0, 0, 0, 0), (0, -0.5, 0, 0), (0, 0, -0.5, 0), (1, 0, 0, -1)),
}
NOISE_KINDS = tuple(_NOISE_TABLES)


@dataclass(frozen=True)
class NoiseSpec:
    """Incoherent-noise description: kind, dimensionless rate, target qubits.

    ``targets=None`` places one jump operator on every qubit, all sharing
    the same rate; pass explicit indices (at least one) to localize the noise.
    """

    kind: str = "none"
    rate: float = 0.0
    targets: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(
                f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}"
            )
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"noise rate must be finite and >= 0, got {self.rate}")
        if self.targets is not None:
            # A tuple keeps the frozen spec hashable.
            object.__setattr__(self, "targets", tuple(self.targets))
            if not self.targets:
                raise ValueError("noise targets must name at least one qubit, got ()")
            if len(set(self.targets)) != len(self.targets):
                raise ValueError(f"noise targets must be distinct, got {self.targets}")
            if any(t < 0 for t in self.targets):
                raise ValueError(f"noise targets must be >= 0, got {self.targets}")

    def resolved_targets(self, n_qubits: int) -> tuple[int, ...]:
        if self.targets is None:
            return tuple(range(n_qubits))
        if any(t >= n_qubits for t in self.targets):
            raise ValueError(
                f"noise targets {self.targets} out of range for {n_qubits} qubits"
            )
        return self.targets


def _finite_matrix(m) -> np.ndarray:
    """`_as_square_finite` of one matrix, not a stack."""
    m = _as_square_finite(m)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def vectorize(rho) -> np.ndarray:
    """Flatten a square matrix row-major into a length dim^2 vector."""
    return _finite_matrix(rho).reshape(-1)


def devectorize(v) -> np.ndarray:
    """Inverse of `vectorize`; requires a perfect-square length."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    dim = math.isqrt(v.size)
    if dim * dim != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(dim, dim)


def hamiltonian_superop(h) -> np.ndarray:
    """Commutator superoperator H kron I - I kron H^T of a Hermitian H."""
    h = _finite_matrix(h)
    scale = np.abs(h).max()
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("Hamiltonian must be Hermitian to within 1e-12 (relative)")
    eye = np.eye(h.shape[0])
    return np.kron(h, eye) - np.kron(eye, h.T)


def unitary_superop(u) -> np.ndarray:
    """Conjugation superoperator U kron U* of a unitary U."""
    u = _finite_matrix(u)
    eye = np.eye(u.shape[0])
    if np.abs(u.conj().T @ u - eye).max() > UNITARITY_TOL:
        raise ValueError("input must be unitary to within 1e-10")
    return np.kron(u, u.conj())


def pauli_unitary_superop(p: PauliString) -> np.ndarray:
    """Channel of a perfect Pauli gate, P kron P*; squares to the identity."""
    m = matrix_of(p)
    return np.kron(m, m.conj())


def _noise_transfer(spec: NoiseSpec, n_qubits: int) -> np.ndarray:
    """The real 4^n x 4^n Pauli-transfer generator of the noise: the
    Kronecker sum of ``rate * T`` over the resolved targets, T the kind's
    one-qubit table.  A rate whose generator overflows double precision
    raises ``ResolutionError``."""
    check_qubit_count(n_qubits)
    out = np.zeros((4**n_qubits,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        table = spec.rate * np.array(_NOISE_TABLES[spec.kind])
        for target in spec.resolved_targets(n_qubits):
            out += np.kron(np.kron(np.eye(4**target), table), np.eye(4 ** (n_qubits - 1 - target)))
        finite = math.isfinite(np.abs(out).sum(axis=1).max())
    if not finite:
        raise ResolutionError(
            f"the {spec.kind} dissipator at rate {spec.rate!r} overflows double"
            " precision; reduce the noise rate"
        )
    return out


def dissipator_superop(spec: NoiseSpec, n_qubits: int) -> np.ndarray:
    """Vectorized Lindblad generator of the noise spec, the row-major
    Liouville view of `_noise_transfer`; exp of it is completely positive
    and trace preserving.  An overflowing rate raises ``ResolutionError``."""
    return _liouville_view(_noise_transfer(spec, n_qubits))


def matrix_to_json(m) -> list:
    """Nested lists of [re, im] pairs, for debugging dumps."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("expected nested lists of [re, im] pairs")
    return arr[..., 0] + 1.0j * arr[..., 1]
