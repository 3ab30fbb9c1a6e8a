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

`dense_pattern_bands` is the band step `pst_core._pattern_bands` taken
the same long way, one weight row at a time.

`magnus` builds the dressed error parts of every twirl frame as Pauli
weight rows; `dressed_parts` and `frame_parts` build them word by word
from `matrix_of` and frame by frame from `commutation_sign`.

`magnus` sums one frame per sign class; `sign_rank` is the rank r that
sets the class count 2^r, from the error words alone.

`experiments.run_magnus_crosscheck` builds each error set's frame work
once, reweights it per tau and reads its norms off 2^n x 2^n generators;
`magnus_crosscheck_rows` is the row loop that calls the public
`omega2_avg`, `omega2_avg_closed` and `omega1_avg` afresh for every
(tau, error set) pair and takes the norms of their Liouville matrices,
and `rebuilt_crosscheck_rows` the loop that builds the frame work afresh
for every pair.  `assert_rows_agree` compares rows whose norms took
different paths.

`sinc_law` sums a Taylor series for (1 - sinc(2 tau)) / 2 at small tau;
`exact_sinc_coefficient` sums more of its terms in rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np

from pstlab import pst_core
from pstlab.errors import QuadratureError, ResolutionError
from pstlab.experiments import MagnusCheckRow
from pstlab.liouville import (
    hamiltonian_superop,
    pauli_unitary_superop,
    unitary_superop,
)
from pstlab.magnus import (
    CoherentErrorSpec,
    DriveSpec,
    _crosscheck_norms,
    _frame_work,
    _resolved,
    omega1_avg,
    omega2_avg,
    omega2_avg_closed,
)
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
    group, position, _, cosets = pst_core._coset_index(drive)
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


def dense_pattern_bands(weights, tau, group, n, dissipator=None):
    """bands[..., p, i] = R[i, i XOR group[p]] of the dense Pauli-transfer
    matrix R of each weight row W of ``weights``, with H = sum_g W_g P_g
    summed word by word: of U kron U*, U = exp(-i tau H), without a
    ``dissipator``, else of expm(dissipator - i tau H(H)) in the row-major
    Liouville basis."""
    words, partners = enumerate_group(n), np.arange(4**n) ^ group[:, None]
    bands = []
    for row in np.reshape(weights, (-1, 4**n)):
        h = sum(w * matrix_of(word) for w, word in zip(row, words))
        channel = (unitary_superop(expm_hermitian(h, tau)) if dissipator is None
                   else expm(dissipator - 1j * tau * hamiltonian_superop(h)))
        bands.append(pauli_transfer_matrix(channel)[np.arange(4**n), partners])
    return np.reshape(bands, np.shape(weights)[:-1] + partners.shape)


def frame_average_blocks(drive, err=None):
    """Coset blocks of the noiseless twirl as the plain average over all
    4^n frames of P_a U_a P_a, each frame's channel lifted and transformed
    to the Pauli-transfer basis on its own."""
    err = err if err is not None else CoherentErrorSpec()
    n = drive.n_qubits
    _, _, _, cosets = pst_core._coset_index(drive)
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


def sign_rank(words):
    """Rank over GF(2) of the ``words`` as vectors of index bits, where a
    product of words is the XOR of their indices up to phase: the rank of
    their sign map, since the commutation form is non-degenerate."""
    basis = []
    for vector in (word.index for word in words):
        for element in basis:
            vector = min(vector, vector ^ element)
        if vector:
            basis.append(vector)
    return len(basis)


def densified_log_generator(channel):
    """`EffectiveGenerator.from_generator` of the principal log of a
    `TwirledChannel`'s blocks, written out as a dense 4^n x 4^n Liouville
    matrix."""
    log = TwirledChannel(logm_principal(channel.blocks), channel.cosets, channel.tau)
    return EffectiveGenerator.from_generator(log.dense(), channel.tau)


def exact_sinc_coefficient(tau):
    """(1 - sin(x)/x) / 2 at x = 2 tau, |x| <= 1, as a `Fraction`: 20 terms of
    its Taylor series sum_k (-1)^(k+1) x^(2k) / (2 (2k+1)!), whose first
    omitted term is below 1e-50 of the first."""
    x2 = Fraction(2 * tau) ** 2
    assert x2 <= 1
    term, total = x2 / 12, Fraction(0)
    for k in range(1, 21):
        total += term
        term *= -x2 / ((2 * k + 2) * (2 * k + 3))
    return total


def _frobenius(a):
    """The Frobenius norm of a Liouville matrix from numpy's own sums of the
    squared parts, not a BLAS dot whose last bit depends on the thread
    count."""
    return float(np.sqrt((a.real**2).sum() + (a.imag**2).sum()))


def _public_term_norms(drive, err, tol, max_evaluations):
    with np.errstate(over="ignore", invalid="ignore"):
        averaged = omega2_avg(drive, err, tol, max_evaluations)
        closed = omega2_avg_closed(drive, err)
        discrepancy = _resolved(_frobenius(averaged - closed), "discrepancy norm")
        omega1_norm = _resolved(_frobenius(omega1_avg(drive, err, tol, max_evaluations)),
                                "first-order term norm")
    return discrepancy, omega1_norm


def _rebuilt_norms(drive, err, tol, max_evaluations):
    return _crosscheck_norms(_frame_work(drive, err, None), drive, err, tol, max_evaluations)


def _crosscheck_rows(config, norms):
    """The rows of `run_magnus_crosscheck(config)`, tau-major, with the two
    norms of every (tau, error set) pair from ``norms``."""
    specs = [(pairs, CoherentErrorSpec.from_amplitudes(pairs))
             for pairs in config.resolved_error_sets()]
    rows = []
    for tau in config.taus:
        drive = DriveSpec.single(config.drive, tau)
        for pairs, err in specs:
            try:
                discrepancy, omega1_norm = norms(drive, err, config.quadrature_tol,
                                                 config.max_evaluations)
                note = ""
            except (QuadratureError, ResolutionError) as exc:
                discrepancy = omega1_norm = None
                note = str(exc)
            within = (discrepancy is not None and discrepancy <= config.tolerance
                      and omega1_norm <= config.omega1_tolerance)
            rows.append(MagnusCheckRow(tau, pairs, discrepancy, omega1_norm, within, note))
    return tuple(rows)


def magnus_crosscheck_rows(config):
    """The rows of `run_magnus_crosscheck(config)`, one public call per
    term for every (tau, error set) pair, the norms taken of the lifted
    4^n x 4^n terms."""
    return _crosscheck_rows(config, _public_term_norms)


def rebuilt_crosscheck_rows(config):
    """The rows of `run_magnus_crosscheck(config)`, the frame work of every
    (tau, error set) pair built afresh at that tau."""
    return _crosscheck_rows(config, _rebuilt_norms)


def assert_rows_agree(rows, expected):
    """``rows`` equal ``expected`` in every field but the two norms, which
    agree to 1e-15 relative: norms read off the 2^n x 2^n generators and
    norms of the lifted terms sum their squares in different orders."""
    assert len(rows) == len(expected)
    for row, other in zip(rows, expected):
        assert (row.tau, row.errors, row.note, row.within_tolerance) == (
            other.tau, other.errors, other.note, other.within_tolerance)
        for norm, reference in ((row.discrepancy, other.discrepancy),
                                (row.omega1_norm, other.omega1_norm)):
            assert (norm is None) == (reference is None)
            assert norm is None or math.isclose(norm, reference, rel_tol=1e-15), (
                row, other)
