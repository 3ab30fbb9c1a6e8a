"""Symplectic n-qubit Pauli strings.

A Pauli word is stored as two bit-vectors (x, z) of length n: qubit k
carries sigma_x if x[k] is set, sigma_z if z[k] is set, sigma_y if both
are set, and the identity if neither is.  Commutation signs then reduce
to a symplectic form over GF(2), so no matrices are built until
`matrix_of` is called explicitly.

Products are tracked without phases: every operation here needs only
commutation signs and conjugations, which are phase-free.  The
symplectic form runs on Python-int bit masks, one x and one z mask per
word: a pair anticommutes when ((x_a & z_b) ^ (z_a & x_b)) has odd
popcount.  `commutation_sign` and the ``sign-table`` command (its CSV
from `sign_table_csv`, its JSON rows from `_sign_rows`) use the masks
alone, so neither loads numpy.

This module owns the group order that every other module indexes by:
lexicographic with I < X < Y < Z per qubit and the leftmost qubit most
significant, so `PauliString.index` has the base-4 digits I=0, X=1, Y=2,
Z=3 (`word_at` inverts it).  In these digits one-qubit words multiply by
XOR, P_a P_b = _PRODUCT_PHASE[a][b] P_(a XOR b), and the phase squares to
the commutation sign.  Group order is a Kronecker order, so every table
the twirl needs over n qubits is a Kronecker power of one one-qubit
table.  `_per_leg` is the one routine that applies such a power: along
the last axis of a stack, one leg at a time (4 for Pauli words, 2 for
elements of a drive group), leftmost leg most significant.  The numpy
sign table (`sign_table`) and `pst_core`'s product phases, Pauli spectra,
twirl characters and Pauli-transfer basis all run through it.  numpy is
imported only where arrays are built, by `matrix_of` and `sign_table`.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PauliParseError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "MAX_QUBITS_ENV",
    "PauliString",
    "check_qubit_count",
    "commutation_sign",
    "enumerate_group",
    "identity_string",
    "matrix_of",
    "max_qubits",
    "multiply",
    "pauli_from_label",
    "sign_table",
    "sign_table_csv",
    "word_at",
]

MAX_QUBITS_ENV = "PSTLAB_MAX_QUBITS"
DEFAULT_MAX_QUBITS = 4

# The one-qubit words in group order.
_LETTERS = "IXYZ"
_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}

_SINGLE_QUBIT = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
}
# P_a P_b = _PRODUCT_PHASE[a][b] P_(a XOR b) for one-qubit words a, b in
# group order; the phase squares to their commutation sign.
_PRODUCT_PHASE = ((1, 1, 1, 1), (1, 1, 1j, -1j), (1, -1j, 1, 1j), (1, 1j, -1j, 1))


def max_qubits() -> int:
    """Resource bound on the qubit count (default 4, Liouville dim 256).

    Overridden by the PSTLAB_MAX_QUBITS environment variable.
    """
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        bound = int(raw)
    except ValueError:
        raise ResourceLimitError(
            f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}"
        ) from None
    if bound < 1:
        raise ResourceLimitError(f"{MAX_QUBITS_ENV} must be >= 1, got {bound}")
    return bound


def check_qubit_count(n: int) -> int:
    """Validate 1 <= n <= max_qubits(); return n."""
    if n < 1:
        raise ResourceLimitError(f"qubit count must be positive, got {n}")
    bound = max_qubits()
    if n > bound:
        raise ResourceLimitError(
            f"n={n} exceeds the resource bound of {bound} qubits"
            f" (set {MAX_QUBITS_ENV} to raise it)"
        )
    return n


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli word in symplectic (x-bits, z-bits) form."""

    n_qubits: int
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if len(self.x_bits) != self.n_qubits or len(self.z_bits) != self.n_qubits:
            raise ValueError("bit-vector lengths must equal n_qubits")
        if not (set(self.x_bits) | set(self.z_bits)) <= {0, 1}:
            raise ValueError("bit-vectors must contain only 0 and 1")

    @property
    def is_identity(self) -> bool:
        return not any(self.x_bits) and not any(self.z_bits)

    @property
    def label(self) -> str:
        return "".join(
            _BITS_TO_LETTER[x, z] for x, z in zip(self.x_bits, self.z_bits)
        )

    def __str__(self) -> str:
        return self.label

    @functools.cached_property
    def _masks(self) -> tuple[int, int]:
        """The x and z bits as two ints, qubit k at bit k."""
        x = sum(bit << k for k, bit in enumerate(self.x_bits))
        z = sum(bit << k for k, bit in enumerate(self.z_bits))
        return x, z

    @functools.cached_property
    def index(self) -> int:
        """Position in group order: base-4 digits I=0, X=1, Y=2, Z=3,
        leftmost qubit most significant; `word_at` inverts it."""
        index = 0
        for x, z in zip(self.x_bits, self.z_bits):
            index = 4 * index + 2 * z + (x ^ z)
        return index

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def pauli_from_label(label: str) -> PauliString:
    """Parse an uppercase label like "ZX" into a PauliString."""
    if not label:
        raise PauliParseError("Pauli label must be non-empty")
    x_bits = []
    z_bits = []
    for position, letter in enumerate(label):
        try:
            x, z = _LETTER_TO_BITS[letter]
        except KeyError:
            raise PauliParseError(
                f"invalid Pauli character {letter!r} at position {position}"
                f" in {label!r} (expected I, X, Y or Z)"
            ) from None
        x_bits.append(x)
        z_bits.append(z)
    return PauliString(len(label), tuple(x_bits), tuple(z_bits))


def identity_string(n: int) -> PauliString:
    return PauliString(n, (0,) * n, (0,) * n)


def word_at(index: int, n: int) -> PauliString:
    """The n-qubit word at ``index`` in group order (`PauliString.index`
    inverted)."""
    digits = ((index >> shift) & 3 for shift in range(2 * n - 2, -1, -2))
    return pauli_from_label("".join(_LETTERS[digit] for digit in digits))


def _require_same_size(a: PauliString, b: PauliString) -> None:
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"Pauli strings act on different registers: {a.n_qubits} vs {b.n_qubits} qubits"
        )


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product of two Pauli words, discarding the +-1, +-i phase."""
    _require_same_size(a, b)
    return PauliString(
        a.n_qubits,
        tuple(xa ^ xb for xa, xb in zip(a.x_bits, b.x_bits)),
        tuple(za ^ zb for za, zb in zip(a.z_bits, b.z_bits)),
    )


def commutation_sign(a: PauliString, b: PauliString) -> int:
    """+1 if the words commute, -1 if they anticommute.

    Equals tr(P_a P_b P_a P_b) / 2^n, evaluated symplectically as
    (-1)^(sum_k x_a z_b + z_a x_b mod 2) with no matrices involved.
    """
    _require_same_size(a, b)
    return -1 if _anticommute(a._masks, b._masks) else 1


def _anticommute(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Symplectic parity of two words given as (x, z) masks: 1 if they
    anticommute, 0 if they commute."""
    (xa, za), (xb, zb) = a, b
    return ((xa & zb) ^ (za & xb)).bit_count() & 1


def enumerate_group(n: int) -> list[PauliString]:
    """All 4^n Pauli words, lexicographic (I < X < Y < Z), identity first."""
    check_qubit_count(n)
    return [
        pauli_from_label("".join(letters))
        for letters in itertools.product(_LETTERS, repeat=n)
    ]


def matrix_of(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the word (Kronecker product of factors).

    The result is cached per word and read-only; the qubit bound is
    checked on every call, so lowering it also refuses cached words.
    """
    check_qubit_count(p.n_qubits)
    return _cached_matrix(p)


@functools.lru_cache(maxsize=None)
def _cached_matrix(p: PauliString) -> np.ndarray:
    import numpy as np

    m = np.array([[1.0 + 0.0j]])
    for letter in p.label:
        m = np.kron(m, np.array(_SINGLE_QUBIT[letter], dtype=complex))
    m.setflags(write=False)
    return m


def _per_leg(t: np.ndarray, table: np.ndarray) -> np.ndarray:
    """kron(table, ..., table) applied along the last axis of ``t``, one
    leg of the table's size at a time (4 for Pauli words, 2 for elements
    of a drive group), the leftmost leg most significant, so the Kronecker
    power is never built.  A stack may be empty."""
    head, size, leg = t.shape[:-1], t.shape[-1], len(table)
    for _ in range((size.bit_length() - 1) // (leg.bit_length() - 1)):
        # Transform the last leg and move it to the front.
        t = (t.reshape(*head, size // leg, leg) @ table.T).swapaxes(-1, -2).reshape(*head, size)
    return t


def _kron_columns(table: np.ndarray, columns: np.ndarray, n: int) -> np.ndarray:
    """The ``columns`` (word indices) of the n-th Kronecker power of a
    one-qubit 4 x 4 ``table`` in group order, as rows: `_per_leg` of unit rows."""
    import numpy as np

    return _per_leg((columns[:, None] == np.arange(4**n)).astype(table.dtype), table)


def sign_table(n: int, words: list[PauliString] | None = None) -> np.ndarray:
    """Commutation signs (+-1 ints) of every n-qubit word, the rows in
    group order, against ``words`` (default: the whole group): the
    columns of the n-th Kronecker power of the one-qubit sign table that
    the words' indices pick."""
    import numpy as np

    check_qubit_count(n)
    for word in words or ():
        if word.n_qubits != n:
            raise ValueError(f"word {word.label} acts on {word.n_qubits} qubits, expected {n}")
    columns = (np.arange(4**n) if words is None
               else np.array([word.index for word in words], dtype=np.intp))
    phase = np.array(_PRODUCT_PHASE)
    return _kron_columns((phase * phase).real.astype(int), columns, n).T


def _sign_rows(group: list[PauliString]) -> list[list[int]]:
    """Commutation signs of every pair of ``group``, as lists of +-1 ints,
    from the bit masks alone."""
    masks = [word._masks for word in group]
    return [[1 - 2 * _anticommute(a, b) for b in masks] for a in masks]


def sign_table_csv(n: int) -> str:
    """Sign table as CSV text with a header row (and column) of labels."""
    group = enumerate_group(n)
    labels = [p.label for p in group]
    lines = ["label," + ",".join(labels)]
    for label, row in zip(labels, _sign_rows(group)):
        lines.append(label + "," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"
