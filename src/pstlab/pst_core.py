"""Exact pseudo-twirl ensemble channels and effective-generator extraction.

One twirl realization applies a Pauli frame, drives the gate with the
drive terms' signs flipped according to their commutation with the frame
word (the physical coherent error and noise act unconjugated in that
frame), then closes the frame.  `pst_realization` returns that driven
generator G; the realization's channel is (P kron P*) exp(G) (P kron P*).

The ensemble channel is the exact uniform average over all 4^n frames
(no sampling), but it is not computed frame by frame.  A frame changes
only the drive-sign pattern s, so the k drive terms realize at most 2^k
distinct Hamiltonians H_s = error + sum_j s_j c_j P_j (dependent drive
words realize fewer), each exponentiated once.  Pauli frames are
diagonal in the Pauli-transfer basis: column i of B is
vec(P_i)/sqrt(2^n) (row-major), and B^dag (P_a kron P_a*) B = diag(chi_a),
with chi_a(P_i) the commutation sign of the frame word and P_i.  The
frames of one pattern form a coset of the centralizer of the drive
words, and the sum of chi_a(Q) over such a coset vanishes unless Q lies
in the group <D> the drive words generate (2^m words); on <D>, chi_a is
the character chi_s that the pattern fixes.  So the averaged
Pauli-transfer matrix is block diagonal over the cosets of <D>,

    K_PTM[i, j] = 2^-m sum_s chi_s(P_i P_j) R_s[i, j]   if P_i P_j in <D>,

and 0 otherwise, with R_s the pattern channel's Pauli-transfer matrix:
4^n / 2^m blocks of size 2^m (2 x 2 for one drive word).  Words are
indexed in the group order of `pauli` (`PauliString.index`), where
P_i P_g = w(i, g) P_(i XOR g) with w a Kronecker product of one-qubit
phases, so <D> is a set of indices closed under XOR and its cosets
are rep XOR <D>; its 2^m characters form a Sylvester Hadamard matrix,
the m-th Kronecker power of the 2 x 2 one.

Only the bands R_s[i, i XOR g], g in <D>, are needed.  A Pauli sum is a row
W of its 4^n word weights; pattern s of spec k is error_rows[k] +
sum_j s_j drive_rows[j] (`_pattern_weights`), and `pauli` owns the
change of basis between rows and matrices (`_pauli_sums`,
`_pauli_spectra`).  Both branches exponentiate a chunk of specs x
patterns as one stack, each matrix with the arithmetic it gets alone,
check one bound and average the bands in one fixed order, so a channel
is the same bits in any batch.  With noise, `expm` of
noise - i tau H(H_s) built in the Pauli-transfer basis is R_s itself (the
basis is unitary).  There H_g = P_g kron I - I kron P_g^T has the entry
2 w(g, j) = conj(w(j, g)) - w(j, g) at (g XOR j, j) for each j that
anticommutes with g, and no other; w(j, g) is +-i there, so -i H_g is
real, with entries +-2.  The noise is real there too, and built there
(`liouville._noise_transfer`), so the whole generator is real and no
change of basis is made.  Without noise (kind "none" or rate 0) the
pattern is the unitary U_s = exp(-i tau H_s), from one stacked `eigh`,
and its bands follow from Pauli spectra alone: with
a_k = tr(P_k U_s) / 2^n and b_k the same coefficients of P_g U_s^dag,

    R_s[i, i XOR g] = conj(w(i, g)) sum_k chi(i, k) a_k b_k,

where chi(i, k) is the commutation sign.  The coefficients, the sign sum
(a symplectic Walsh-Hadamard transform) and w are Kronecker powers of
one 4 x 4 table per qubit, so each transform is one pass of
`pauli._per_leg`, O(n 4^n), and no 4^n x 4^n array is formed.
The bound refuses a pattern whose Hamiltonian part -i tau H(H_s) takes
`expm` more than 26 squarings; by the entries above, its 1-norm is
2 tau max_j sum_k |W_k| over the words k that anticommute with j, from
one sign table per call.  A spec whose 1-norm overflows double precision
is refused before any pattern matrix is built.
`twirled_channels` returns a `TwirledChannel`; its `dense` takes the
blocks to the row-major Liouville basis once, as B K_PTM B^dag
(`pauli._liouville_view`, one `_per_leg` pass per side).

`EffectiveGenerator.from_generator` projects a generator (a Liouvillian
or a channel log) onto Pauli commutator superoperators
H_g = P_g kron I - I kron P_g^T, whose pairwise inner products are 2*4^n
for distinct non-identity words; what the projection leaves is the
dissipative remainder.  With X the scaled generator as a tensor
X[a,b,c,d] and its partial traces L[a,c] = sum_b X[a,b,c,b] and
R[b,d] = sum_a X[a,b,a,d], <H_g, X> = <P_g, L - R^T>, so the Hamiltonian
part is the one traceless Hermitian matrix h = herm(L - R^T) / 2^(n+1)
= sum_g c_g P_g, and a word's weight is c_g = tr(P_g h) / 2^n (an ideal
gate reads 1 on its drive word).  A channel has no generator of its
own: `effective_generator` takes its principal log first, and so reads
the generator back only while the channel eigenphases stay inside
(-pi, pi).  `logm_principal` alone accepts the log, by one rule for every
caller: the branch cut, then reconstruction to 1e-12 of the matrix's norm.

`TwirledChannel.weights` never forms the dense log.  The log of a
block-diagonal matrix is the block-diagonal matrix of the blocks' logs,
so it logs the coset blocks as one stack of 2^m x 2^m matrices, which
`logm_principal` accepts or refuses block by block, each against its own
norm.  H_g has Pauli-transfer entries only at (g XOR j, j) (see above),
so with X = log / (-i tau) the weight
c_g = Re <H_g, X> / (2 * 4^n) = sum_i Im w(i, g) Re log[i, i XOR g] / (tau 4^n)
reads the (i, i XOR g) band alone, and every word outside <D> weighs 0;
`table1` reads its twirled row off these weights by word index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .liouville import (
    NoiseSpec,
    _finite_matrix,
    _noise_transfer,
    dissipator_superop,
    hamiltonian_superop,
    unitary_superop,
)
from .magnus import (
    CoherentErrorSpec,
    DriveSpec,
    check_drive_error_compat,
)
from .numerics import expm, expm_hermitian, logm_principal, op_norm, squarings_for
from .pauli import (
    _kron_columns,
    _liouville_view,
    _numpy_table,
    _pauli_spectra,
    _pauli_sums,
    _per_leg,
    _product_phases,
    _SIGNS,
    PauliString,
    check_qubit_count,
    commutation_sign,
    enumerate_group,
    pauli_from_label,
)
from .sinc_law import calibrate_tau

__all__ = [
    "EffectiveGenerator",
    "TwirledChannel",
    "effective_generator",
    "ideal_channel",
    "pst_channel",
    "pst_realization",
    "twirled_channels",
]

# Patterns are exponentiated as stacks of whole error specs that hold at
# most this many pattern-matrix entries, and at least one spec: at n = 2,
# 8 specs of two 16 x 16 noisy patterns or 128 of two 4 x 4 noiseless
# ones.  `expm` keeps about ten arrays of a stack's size alive.
_EXPM_STACK_ENTRIES = 4096

# `expm` squares its Pade approximant s times, and each squaring can double
# the rounding error, to about 2^s eps: the orthogonality defect
# ||R R^T - I||_max of a noiseless pattern's transfer matrix R measures
# 7.7e-12 at s = 14, 2.1e-8 at s = 27 and 4.6e-4 at s = 41.  Past
# s = 26, 2^s eps exceeds sqrt(eps), about 1.5e-8: fewer than half of the
# double-precision digits survive, and the channel is refused.  Noiseless
# patterns degrade alike: an even sweep's +-delta rows part by 1e-8 at 27.
_MAX_HAMILTONIAN_SQUARINGS = 26


def _weight_rows(term_lists, n: int) -> np.ndarray:
    """W[k, g], the weight of word g in the k-th list of (word, c) terms."""
    rows = np.zeros((len(term_lists), 4**n))
    for k, terms in enumerate(term_lists):
        rows[k, [word.index for word, _ in terms]] = [c for _, c in terms]
    return rows


def _pattern_weights(error_rows, patterns, drive_rows) -> np.ndarray:
    """Row c of spec k: error_rows[k] + sum_j patterns[c, j] drive_rows[j]."""
    # Summed elementwise: a real matmul would page in about 0.14 MB more code.
    return error_rows[:, None] + (patterns[:, :, None] * drive_rows).sum(axis=1)


def pst_realization(drive: DriveSpec, err: CoherentErrorSpec,
                    noise: NoiseSpec, alpha: PauliString) -> np.ndarray:
    """The generator driven between the gates of frame word ``alpha``:
    noise - i tau H(error + sum_j s_j c_j P_j)."""
    check_drive_error_compat(drive, err)
    if alpha.n_qubits != drive.n_qubits:
        raise ValueError(
            f"frame word acts on {alpha.n_qubits} qubits, drive on {drive.n_qubits}"
        )
    signs = np.array([[commutation_sign(alpha, word) for word, _ in drive.terms]], dtype=float)
    rows = _weight_rows([err.scaled_terms()] + [[term] for term in drive.terms], drive.n_qubits)
    [[weights]] = _pattern_weights(rows[:1], signs, rows[1:])  # the error row, the drive rows
    return (dissipator_superop(noise, drive.n_qubits)
            - 1.0j * drive.tau * hamiltonian_superop(_pauli_sums(weights)))


def _coset_index(drive: DriveSpec) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The drive group <D> and its cosets, as word indices.

    Returns (group, position, cosets): ``group[p]`` is the XOR of the
    independent drive words at the set bits of p, so group[p] XOR group[q]
    is group[p XOR q]; ``position[j]`` is drive word j's element, and
    ``cosets[b]`` lists the b-th coset, rep XOR group, with its smallest
    index as rep (``cosets[0]`` is the group itself).
    """
    group, position = np.zeros(1, dtype=np.intp), []
    for word, _ in drive.terms:
        index = word.index
        found = np.flatnonzero(group == index)
        position.append(found[0] if found.size else group.size)
        if not found.size:
            group = np.concatenate([group, group ^ index])
    words = np.arange(4**drive.n_qubits)
    cosets = words[(words[:, None] ^ group).min(axis=1) == words][:, None] ^ group
    return group, position, cosets


def _commutator_transfers(weights: np.ndarray, n: int) -> np.ndarray:
    """-i H(sum_g W_g P_g) in the Pauli-transfer basis, real 4^n x 4^n (see
    the module notes), for each weight row W of a stack."""
    words = np.arange(4**n)
    support = np.flatnonzero(weights.reshape(-1, words.size).any(axis=0))
    phases = _product_phases(support, n).imag
    out = np.zeros(weights.shape[:-1] + (words.size,) * 2)
    # Distinct words write distinct entries (g XOR j, j).
    out[..., words ^ support[:, None], words] -= 2 * weights[..., support, None] * phases
    return out


def _commutator_norms(weights: np.ndarray, n: int) -> np.ndarray:
    """||-i H(sum_g W_g P_g)||_1 in the Pauli-transfer basis for each weight
    row W (see the module notes), from one sign table."""
    support = np.flatnonzero(weights.any(axis=0))
    anticommuting = (1 - _kron_columns(_numpy_table(_SIGNS), support, n).T) / 2
    # Summed elementwise: einsum or a real matmul would page in 0.2 to
    # 0.35 MB more of resident code.
    return 2 * (anticommuting * np.abs(weights[:, None, support])).sum(axis=-1).max(axis=1)


def _check_resolved(norms: np.ndarray, errs: list[CoherentErrorSpec]) -> None:
    """Refuse the specs ``errs`` if the Hamiltonian part of a pattern, of
    1-norm ``norms[k]`` for spec k, takes `expm` more than
    _MAX_HAMILTONIAN_SQUARINGS squarings, naming the first such spec's
    scale; a dissipative part of any size loses nothing measurable."""
    for norm, err in zip(norms.tolist(), errs):
        squarings = squarings_for(norm)
        if squarings > _MAX_HAMILTONIAN_SQUARINGS:
            raise ResolutionError(
                f"a drive-sign pattern's Hamiltonian part has 1-norm {norm:.3e}, which"
                f" takes {squarings} squarings to exponentiate, past the"
                f" {_MAX_HAMILTONIAN_SQUARINGS} that keep rounding below sqrt(eps)"
                f" (the first refused spec has error scale {err.scale!r});"
                " reduce the error scale or tau"
            )


def _check_tau(tau: float) -> None:
    """A log divided by -i tau reads a generator only for a positive tau."""
    if not math.isfinite(tau) or tau <= 0:
        raise ValueError(f"tau must be finite and positive, got {tau}")


@dataclass(frozen=True, eq=False)
class TwirledChannel:
    """A twirled channel in block form (see the module notes): its 2^m x 2^m
    Pauli-transfer ``blocks[b]`` on the b-th coset ``cosets[b]`` of <D>, 0
    elsewhere, and the gate duration ``tau`` its log is read at.
    Instances hold arrays, so they compare by identity."""

    blocks: np.ndarray
    cosets: np.ndarray
    tau: float

    @property
    def _n_qubits(self) -> int:
        return (self.cosets.size.bit_length() - 1) // 2  # the cosets hold all 4^n words

    def dense(self) -> np.ndarray:
        """The 4^n x 4^n row-major Liouville matrix."""
        ptm = np.zeros((self.cosets.size,) * 2, dtype=complex)
        ptm[self.cosets[:, :, None], self.cosets[:, None, :]] = self.blocks
        return _liouville_view(ptm)

    def weights(self) -> np.ndarray:
        """The row of Pauli weights c_g, over all 4^n words, of the principal
        log's Hamiltonian part: read off the log's (i, i XOR g) bands for g
        in <D>, 0 elsewhere (see the module notes), as
        `EffectiveGenerator.from_generator` reads them from the dense log.
        `logm_principal` refuses, by its one rule, a block near the branch cut
        or whose log misses it by more than 1e-12 of its norm
        (``BranchCutError``, ``DefectiveMatrixError``)."""
        _check_tau(self.tau)
        cosets, n = self.cosets, self._n_qubits
        group, log = cosets[0], logm_principal(self.blocks)
        p = np.arange(group.size)
        bands = log[:, p, p ^ p[:, None]].real.swapaxes(0, 1)  # [q, b, p]: log[b, p, p XOR q]
        terms = _product_phases(group, n).imag[:, cosets] * bands
        weights = np.zeros(cosets.size)
        # fsum rounds each band's sum once, independent of its order.
        weights[group[1:]] = [math.fsum(row.ravel()) for row in terms[1:]]
        return weights / (self.tau * cosets.size)

    def distance(self, other: TwirledChannel) -> float:
        """||self - other||_op, the largest over the blocks (the Pauli-transfer
        basis is unitary); channels on different cosets raise ``ValueError``."""
        return other.distances([self])[0]

    def distances(self, others: list[TwirledChannel]) -> list[float]:
        """`distance` from each channel of ``others`` to this one,
        ||other - self||_op, from one norm of the stacked blocks."""
        if any(not np.array_equal(other.cosets, self.cosets) for other in others):
            raise ValueError("the channels sit on the cosets of different drive groups")
        if not others:
            return []
        differences = np.stack([other.blocks for other in others]) - self.blocks
        return np.linalg.norm(differences, 2, axis=(-2, -1)).max(axis=-1).tolist()


def twirled_channels(drive: DriveSpec, errs: list[CoherentErrorSpec],
                     noise: NoiseSpec | None = None) -> list[TwirledChannel]:
    """The twirled channel of each error spec in ``errs``, exact over all
    4^n frames, with one exponential per realized drive-sign pattern (see
    the module notes).  What depends on the drive and the noise alone is
    built once for all the specs."""
    noise = noise if noise is not None else NoiseSpec()
    for err in errs:
        check_drive_error_compat(drive, err)
    n = check_qubit_count(drive.n_qubits)
    tau = drive.tau
    error_rows = _weight_rows([err.scaled_terms() for err in errs], n)
    drive_rows = _weight_rows([[term] for term in drive.terms], n)
    # Every pattern of a spec has the |W_g| of the identity frame's row.  A
    # huge amplitude overflows a norm to inf, or to nan where an inf meets
    # a 0; such a spec is refused before any pattern matrix is built.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = tau * _commutator_norms(error_rows + drive_rows.sum(axis=0), n)
    for norm, err in zip(norms.tolist(), errs):
        if not math.isfinite(norm):
            raise ResolutionError(
                f"a drive-sign pattern's Hamiltonian part overflows double precision"
                f" (its 1-norm reads {norm}; the first refused spec has error scale"
                f" {err.scale!r}); reduce the error scale or tau"
            )
    group, position, cosets = _coset_index(drive)
    words = np.arange(4**n)

    # chi_c(element p) = (-1)^popcount(c & p), the Sylvester Hadamard
    # matrix, a Kronecker power of one 2 x 2 table over the independent
    # drive words; character c is the drive-sign pattern chi_c[position],
    # and chi_c(P_i P_j) = chi_c[p XOR q] on the (p, q) entry of a block.
    # Patterns are summed in this fixed order, so the channel is
    # reproducible bit for bit.
    characters = _per_leg(np.eye(group.size), np.array([[1.0, 1.0], [1.0, -1.0]]))
    patterns = characters[:, position]

    # bands(weights)[k, c, p, i] is R_s[i, i XOR group[p]] of the
    # Pauli-transfer matrix R_s of weight row weights[k, c], the only
    # entries the twirl keeps.
    p, partners = np.arange(group.size), words ^ group[:, None]
    noiseless = noise.kind == "none" or noise.rate == 0
    if noiseless:
        phases = _product_phases(group, n)

        def bands(weights) -> np.ndarray:
            # Pauli spectra a of U_s and b of P_g U_s^dag; the latter is
            # sum_l conj(a_l) w(g, l) P_(g XOR l), with w(g, l) = conj(w(l, g)).
            a = _pauli_spectra(expm_hermitian(_pauli_sums(weights), tau))[..., None, :]
            b = np.conj(a * phases)[..., p[:, None], partners]
            return np.conj(phases) * _per_leg(a * b, _numpy_table(_SIGNS))
    else:
        dissipator = _noise_transfer(noise, n)

        def bands(weights) -> np.ndarray:
            return expm(dissipator + tau * _commutator_transfers(weights, n))[..., words, partners]

    pattern_entries = (2**n if noiseless else 4**n) ** 2
    chunk_size = max(1, _EXPM_STACK_ENTRIES // (len(patterns) * pattern_entries))
    channels = []
    for start in range(0, len(errs), chunk_size):
        chunk = errs[start:start + chunk_size]
        kept = bands(_pattern_weights(error_rows[start:start + chunk_size], patterns, drive_rows))
        _check_resolved(norms[start:start + chunk_size], chunk)  # an expm overflow raises first
        average = np.zeros((len(chunk), group.size, words.size), dtype=complex)
        for chi, band in zip(characters, kept.swapaxes(0, 1)):
            average += chi[:, None] * band
        average /= group.size
        channels += [TwirledChannel(blocks, cosets, tau)
                     for blocks in average[:, p[:, None] ^ p, cosets[:, :, None]]]
    return channels


def pst_channel(drive: DriveSpec, err: CoherentErrorSpec | None = None,
                noise: NoiseSpec | None = None) -> np.ndarray:
    """Uniform average of P_alpha exp(flipped generator) P_alpha over all
    4^n frame words, computed exactly with one exponential per realized
    drive-sign pattern, block by block over the cosets of the drive group
    (see the module notes)."""
    err = err if err is not None else CoherentErrorSpec()
    return twirled_channels(drive, [err], noise)[0].dense()


def ideal_channel(drive: DriveSpec) -> np.ndarray:
    """Noiseless, error-free gate channel exp(-i tau H_drive): the
    identity frame's realization, lifted from its 2^n x 2^n unitary."""
    [weights] = _weight_rows([drive.terms], drive.n_qubits)
    return unitary_superop(expm_hermitian(_pauli_sums(weights), drive.tau))


@dataclass(frozen=True, eq=False)
class EffectiveGenerator:
    """Decomposition of a generator into Pauli-Hamiltonian weights plus a
    dissipative remainder: G = -i tau H(hamiltonian) + remainder, with
    hamiltonian = sum_g c_g P_g traceless Hermitian (2^n x 2^n).
    Instances hold arrays, so they compare by identity.
    """

    tau: float
    hamiltonian: np.ndarray
    dissipative_remainder: np.ndarray

    def coefficient(self, word: str | PauliString) -> float:
        """tr(P_word h) / 2^n; the identity, whose commutator vanishes, weighs 0."""
        word = pauli_from_label(word) if isinstance(word, str) else word
        n = self.hamiltonian.shape[0].bit_length() - 1
        if word.n_qubits != n:
            raise ValueError(f"word {word.label} has {word.n_qubits} qubits, the Hamiltonian {n}")
        return 0.0 if word.is_identity else float(_pauli_spectra(self.hamiltonian)[word.index].real)

    @property
    def hamiltonian_coeffs(self) -> dict[PauliString, float]:
        """c_g for every non-identity word, in group order."""
        n = self.hamiltonian.shape[0].bit_length() - 1
        weights = _pauli_spectra(self.hamiltonian).real.tolist()
        return dict(zip(enumerate_group(n)[1:], weights[1:]))

    def remainder_norm(self) -> float:
        return op_norm(self.dissipative_remainder)

    @classmethod
    def from_generator(cls, generator: np.ndarray, tau: float) -> EffectiveGenerator:
        """Project a 4^n x 4^n generator onto the Pauli commutator
        superoperators (see the module notes); `reconstructed` inverts it."""
        _check_tau(tau)
        generator = _finite_matrix(generator)
        dim = generator.shape[0]
        n = (dim.bit_length() - 1) // 2
        if dim < 4 or 4**n != dim:
            raise ValueError(f"generator dimension {dim} is not a power of 4 (n >= 1)")
        check_qubit_count(n)

        side = 2**n
        scaled = (generator / (-1.0j * tau)).reshape(side, side, side, side)
        left = np.trace(scaled, axis1=1, axis2=3)    # L[a,c] = sum_b X[a,b,c,b]
        right = np.trace(scaled, axis1=0, axis2=2)   # R[b,d] = sum_a X[a,b,a,d]
        # <H_g, X> = <P_g, L - R^T> and <H_g, H_g'> = 2 * 4^n * delta_gg'.
        projected = (left - right.T) / (2 * side)
        h = (projected + projected.conj().T) / 2
        return cls(tau, h, generator + 1.0j * tau * hamiltonian_superop(h))

    def reconstructed(self) -> np.ndarray:
        """-i tau H(hamiltonian) + remainder; equals the projected generator."""
        superop = hamiltonian_superop(self.hamiltonian)
        return self.dissipative_remainder - 1.0j * self.tau * superop

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "coeffs": {word.label: value for word, value in self.hamiltonian_coeffs.items()},
            "remainder_norm": self.remainder_norm(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def effective_generator(k: np.ndarray, tau: float) -> EffectiveGenerator:
    """Extract drive-normalized Pauli weights and the dissipative remainder
    from a channel: `EffectiveGenerator.from_generator` of its principal log.

    The weights are those of the channel's generator only while the
    channel eigenphases stay inside (-pi, pi); for a Hamiltonian h, while
    tau times the eigenvalue spread of h stays below pi.  The principal
    log raises a branch error only within ``numerics.BRANCH_TOL`` of the cut.
    Past it, the log returns another branch without an error, and the
    weights are aliased.

    A log whose exponential misses the channel by more than 1e-12 times
    its Frobenius norm (at least 1) raises ``DefectiveMatrixError``; that
    rule, like the branch cut's, is `logm_principal`'s.
    """
    return EffectiveGenerator.from_generator(logm_principal(k), tau)
