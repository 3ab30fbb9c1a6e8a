"""Dense reference constructions of the twirled channel's coset blocks.

`pst_core` builds a noiseless pattern's coset blocks from Pauli spectra of
its 2^n x 2^n unitary, with no 4^n x 4^n array, and a noisy pattern's from
the exponential of its generator built in the Pauli-transfer basis.  The
oracles here take the long way: lift each pattern unitary to U kron U*,
or exponentiate its row-major Liouville generator noise - i tau H(H_s),
transform the whole channel to the Pauli-transfer basis and gather the
blocks; or average every one of the 4^n frames one Pauli-transfer matrix
at a time.  Each oracle returns the twirl as a `TwirledChannel`.  The
change of basis is `pauli_transfer_matrix`, with B built densely, and the
noise is `jump_dissipator`, the vectorized Lindblad terms of the jump
operators, where `liouville` writes the noise as a Kronecker sum of
one-qubit Pauli-transfer tables.

`magnus` builds the dressed error parts of every twirl frame as Pauli
weight rows; `dressed_parts` and `frame_parts` build them word by word
from `matrix_of` and frame by frame from `commutation_sign`.
"""

import math

import numpy as np

from pstlab import pst_core
from pstlab.liouville import (
    hamiltonian_superop,
    pauli_unitary_superop,
    unitary_superop,
)
from pstlab.magnus import CoherentErrorSpec
from pstlab.numerics import expm, expm_hermitian, logm_principal
from pstlab.pauli import commutation_sign, enumerate_group, matrix_of
from pstlab.pst_core import EffectiveGenerator, TwirledChannel


_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def pauli_transfer_matrix(k):
    """B^dag K B, with column i of B vec(P_i) / sqrt(2^n), words in group order."""
    n = round(math.log(k.shape[0], 4))
    basis = np.stack(
        [matrix_of(word).reshape(-1) for word in enumerate_group(n)], axis=1
    ) / math.sqrt(2**n)
    return basis.conj().T @ k @ basis


def _embed_single(op, target, n_qubits):
    m = np.array([[1.0 + 0.0j]])
    for k in range(n_qubits):
        m = np.kron(m, op if k == target else np.eye(2))
    return m


def _lindblad_term(jump):
    """L kron L* - (1/2)(L^dag L kron I + I kron (L^dag L)^T), row-major."""
    dim = jump.shape[0]
    eye = np.eye(dim)
    jj = jump.conj().T @ jump
    return np.kron(jump, jump.conj()) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))


def jump_dissipator(spec, n_qubits):
    """The row-major Liouville Lindblad generator of a `NoiseSpec`, summed
    over its targets from the embedded jump operators: sqrt(rate) sigma_z
    for pauli_z, sqrt(rate) |0><1| for amplitude_damping."""
    dim = 2**n_qubits
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    if spec.kind != "none":
        op = _SIGMA_Z if spec.kind == "pauli_z" else _LOWERING
        for target in spec.resolved_targets(n_qubits):
            out += _lindblad_term(math.sqrt(spec.rate) * _embed_single(op, target, n_qubits))
    return out


def _pattern_matrix(drive, err, signs):
    """H_s = error + sum_j s_j c_j P_j of drive signs ``signs``, summed
    word by word from `matrix_of`."""
    terms = err.scaled_terms() + tuple(
        (word, s * c) for s, (word, c) in zip(signs, drive.terms))
    return sum(c * matrix_of(word) for word, c in terms)


def _gathered_blocks(drive, pattern_channel):
    """Coset blocks of the twirl, gathered from the dense Pauli-transfer
    matrix of each realized pattern's Liouville channel
    ``pattern_channel(signs)``."""
    group, position, cosets = pst_core._coset_index(drive)
    characters = np.ones((1, 1))
    while characters.shape[0] < group.size:
        characters = np.block([[characters, characters], [characters, -characters]])
    rows, cols = cosets[:, :, None], cosets[:, None, :]
    blocks = np.zeros((len(cosets), group.size, group.size), dtype=complex)
    for chi in characters:
        ptm = pauli_transfer_matrix(pattern_channel(chi[position]))
        blocks += ptm[rows, cols] * np.outer(chi, chi)
    return TwirledChannel(blocks / group.size, cosets, drive.tau)


def dense_noiseless_blocks(drive, err=None):
    """Coset blocks of the noiseless twirl, gathered from each realized
    pattern's dense Pauli-transfer matrix B^dag (U kron U*) B."""
    err = err if err is not None else CoherentErrorSpec()
    return _gathered_blocks(drive, lambda signs: unitary_superop(
        expm_hermitian(_pattern_matrix(drive, err, signs), drive.tau)))


def liouville_noisy_blocks(drive, err, noise):
    """Coset blocks of the noisy twirl, gathered from each realized
    pattern's dense Pauli-transfer matrix B^dag expm(noise - i tau H(H_s)) B,
    exponentiated in the row-major Liouville basis."""
    dissipator = jump_dissipator(noise, drive.n_qubits)
    return _gathered_blocks(drive, lambda signs: expm(
        dissipator - 1j * drive.tau * hamiltonian_superop(_pattern_matrix(drive, err, signs))))


def frame_average_blocks(drive, err=None):
    """Coset blocks of the noiseless twirl as the plain average over all
    4^n frames of P_a U_a P_a, each frame's channel lifted and transformed
    to the Pauli-transfer basis on its own."""
    err = err if err is not None else CoherentErrorSpec()
    n = drive.n_qubits
    _, _, cosets = pst_core._coset_index(drive)
    total = np.zeros((4**n,) * 2, dtype=complex)
    for alpha in enumerate_group(n):
        signs = [commutation_sign(alpha, word) for word, _ in drive.terms]
        frame = pauli_unitary_superop(alpha)
        lift = unitary_superop(expm_hermitian(_pattern_matrix(drive, err, signs), drive.tau))
        total += pauli_transfer_matrix(frame @ lift @ frame)
    return TwirledChannel((total / 4**n)[cosets[:, :, None], cosets[:, None, :]], cosets,
                          drive.tau)


def dressed_parts(words, beta):
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


def frame_parts(drive, err):
    """(c0, c1, c2) of the dressed error sum in every twirl frame, in group
    order, stacked (3, 4^n, 2^n, 2^n): the `dressed_parts` weighted by each
    frame's signs chi_alpha(P_w), one word at a time."""
    n, terms = drive.n_qubits, err.scaled_terms()
    weights = np.array([[commutation_sign(alpha, word) * amplitude for word, amplitude in terms]
                        for alpha in enumerate_group(n)]).reshape(4**n, -1)
    parts = dressed_parts([word for word, _ in terms], drive.single_pauli())
    return np.einsum("fw,kwij->kfij", weights, parts)


def densified_log_generator(channel):
    """`EffectiveGenerator.from_generator` of the principal log of a
    `TwirledChannel`'s blocks, written out as a dense 4^n x 4^n Liouville
    matrix."""
    log = TwirledChannel(logm_principal(channel.blocks), channel.cosets, channel.tau)
    return EffectiveGenerator.from_generator(log.dense(), channel.tau)
