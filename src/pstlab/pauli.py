"""Symplectic n-qubit Pauli strings.

A Pauli word is its position `PauliString.index` in the group order that
every other module indexes by: lexicographic with I < X < Y < Z per
qubit and the leftmost qubit most significant, so the index has the
base-4 digits I=0, X=1, Y=2, Z=3.  A digit is 2z + (x XOR z), so the
word's symplectic (x, z) bits are read from its digits: z is a digit's
high bit and x the XOR of its two bits.  Labels, products, signs and
matrices are all read from the index, and no matrices are built until
`matrix_of` is called explicitly.

Products are tracked without phases: every operation here needs only
commutation signs and conjugations, which are phase-free.  In these
digits one-qubit words multiply by XOR, P_a P_b = _PRODUCT_PHASE[a][b]
P_(a XOR b), and the phase squares to the commutation sign; so n-qubit
words multiply by the XOR of their indices.  Commutation signs reduce
to a symplectic form over GF(2): a pair anticommutes when
((x_a & z_b) ^ (z_a & x_b)) has odd popcount, with the x and z bits of
every qubit read from the index as two Python ints (`_anticommute`).
`commutation_sign` and the ``sign-table`` command (its CSV from
`sign_table_csv`, its JSON rows from `_sign_rows`) use the indices
alone, so neither loads numpy.

Group order is a Kronecker order, so every table the twirl needs over n
qubits is a Kronecker power of one one-qubit table.  `_per_leg` is the
one routine that applies such a power: along the last axis of a stack,
one leg at a time (4 for Pauli words, 2 for elements of a drive group),
leftmost leg most significant.  The numpy sign table, the product phases
and `pst_core`'s twirl characters run through it, and so do the changes
of basis, on the qubit legs that `_qubit_legs` alone fixes: between rows
W of 4^n Pauli weights and 2^n x 2^n matrices m, `_pauli_sums` (W to
sum_k W_k P_k, the only builder of Pauli matrices, `matrix_of` included)
and `_pauli_spectra` (m to tr(P_k m) / 2^n); and from a 4^n x 4^n
Pauli-transfer matrix to the row-major Liouville basis, `_liouville_view`.
numpy is imported only inside the functions that build arrays.
"""

from __future__ import annotations

import functools
import math
import operator
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
]

MAX_QUBITS_ENV = "PSTLAB_MAX_QUBITS"
DEFAULT_MAX_QUBITS = 4

# The one-qubit words in group order.
_LETTERS = "IXYZ"

# Row k is vec(P_k), row-major, for the one-qubit words in group order.
_PAULI_ROWS = ((1, 0, 0, 1), (0, 1, 1, 0), (0, -1j, 1j, 0), (1, 0, 0, -1))
# P_a P_b = _PRODUCT_PHASE[a][b] P_(a XOR b) for one-qubit words a, b in
# group order; the phase squares to their commutation sign, _SIGNS[a][b].
_PRODUCT_PHASE = ((1, 1, 1, 1), (1, 1, 1j, -1j), (1, -1j, 1, 1j), (1, 1j, -1j, 1))
_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


@functools.cache
def _numpy_table(table: tuple) -> np.ndarray:
    """A one-qubit table as a read-only numpy array, built on first use."""
    import numpy as np

    array = np.array(table)
    array.setflags(write=False)
    return array


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
    """An n-qubit Pauli word, held as its ``index`` in group order (see
    the module notes); its label, product, signs and matrix are read from
    the index.  Any integer type is accepted and stored as an int, so a
    numpy index hashes and compares like one."""

    n_qubits: int
    index: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        index = operator.index(self.index)
        if not 0 <= index < 4**self.n_qubits:
            raise ValueError(f"index {index} lies outside [0, 4^{self.n_qubits})")
        object.__setattr__(self, "index", index)

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    @property
    def label(self) -> str:
        shifts = range(2 * self.n_qubits - 2, -1, -2)
        return "".join(_LETTERS[(self.index >> shift) & 3] for shift in shifts)

    def __str__(self) -> str:
        return self.label

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def pauli_from_label(label: str) -> PauliString:
    """Parse an uppercase label like "ZX" into a PauliString."""
    if not label:
        raise PauliParseError("Pauli label must be non-empty")
    index = 0
    for position, letter in enumerate(label):
        digit = _LETTERS.find(letter)
        if digit < 0:
            raise PauliParseError(
                f"invalid Pauli character {letter!r} at position {position}"
                f" in {label!r} (expected I, X, Y or Z)"
            )
        index = 4 * index + digit
    return PauliString(len(label), index)


def identity_string(n: int) -> PauliString:
    return PauliString(n, 0)


def _require_same_size(a: PauliString, b: PauliString) -> None:
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"Pauli strings act on different registers: {a.n_qubits} vs {b.n_qubits} qubits"
        )


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product of two Pauli words, discarding the +-1, +-i phase."""
    _require_same_size(a, b)
    return PauliString(a.n_qubits, a.index ^ b.index)


def commutation_sign(a: PauliString, b: PauliString) -> int:
    """+1 if the words commute, -1 if they anticommute.

    Equals tr(P_a P_b P_a P_b) / 2^n, evaluated symplectically as
    (-1)^(sum_k x_a z_b + z_a x_b mod 2) with no matrices involved.
    """
    _require_same_size(a, b)
    return -1 if _anticommute(a.index, b.index, a.n_qubits) else 1


def _anticommute(a: int, b: int, n: int) -> int:
    """Symplectic parity of the n-qubit words at indices ``a`` and ``b``:
    1 if they anticommute, 0 if they commute.  Each word's z bits are its
    digits' high bits, shifted down, and its x bits the XOR of each
    digit's two bits, both kept at the low bit of each digit."""
    low = (4**n - 1) // 3  # binary 01...01, the low bit of every digit
    za, zb = (a >> 1) & low, (b >> 1) & low
    xa, xb = (a ^ (a >> 1)) & low, (b ^ (b >> 1)) & low
    return ((xa & zb) ^ (za & xb)).bit_count() & 1


def enumerate_group(n: int) -> list[PauliString]:
    """All 4^n Pauli words, lexicographic (I < X < Y < Z), identity first."""
    check_qubit_count(n)
    return [PauliString(n, index) for index in range(4**n)]


def matrix_of(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the word: `_pauli_sums` of its unit
    weight row.

    The result is cached per word and read-only; the qubit bound is
    checked on every call, so lowering it also refuses cached words.
    """
    check_qubit_count(p.n_qubits)
    return _cached_matrix(p)


@functools.lru_cache(maxsize=None)
def _cached_matrix(p: PauliString) -> np.ndarray:
    import numpy as np

    m = _pauli_sums(np.eye(1, 4**p.n_qubits, p.index))[0]  # the unit row of the word
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


def _product_phases(group: np.ndarray, n: int) -> np.ndarray:
    """w[p, i] with P_i P_g = w[p, i] P_(i XOR g) for g = group[p] and
    every word i: a Kronecker product of one-qubit phase columns."""
    return _kron_columns(_numpy_table(_PRODUCT_PHASE), group, n)


def _qubit_legs(t: np.ndarray, n: int, back: bool = False) -> np.ndarray:
    """``t`` with its last axis, a row-major 2^n x 2^n index, regrouped into
    one leg of size 4 per qubit, its (row, column) bit pair, as `_per_leg`
    reads legs; ``back`` regroups such legs into the row-major index."""
    import numpy as np

    pairs = [axis - 2 * n for q in range(n) for axis in (q, n + q)]
    ends = (range(-2 * n, 0), pairs) if back else (pairs, range(-2 * n, 0))
    return np.moveaxis(t.reshape(*t.shape[:-1], *(2,) * (2 * n)), *ends).reshape(t.shape)


def _pauli_spectra(m: np.ndarray) -> np.ndarray:
    """tr(P_k m) / 2^n of every word k, for each 2^n x 2^n matrix of a stack."""
    n, rows = m.shape[-1].bit_length() - 1, _numpy_table(_PAULI_ROWS)
    return _per_leg(_qubit_legs(m.reshape(*m.shape[:-2], 4**n), n), rows.conj() / 2)


def _pauli_sums(weights: np.ndarray) -> np.ndarray:
    """sum_k W_k P_k of each weight row W of a stack; inverts `_pauli_spectra`."""
    n = (weights.shape[-1].bit_length() - 1) // 2
    m = _qubit_legs(_per_leg(weights, _numpy_table(_PAULI_ROWS).T), n, back=True)
    return m.reshape(*weights.shape[:-1], 2**n, 2**n)


def _liouville_view(ptm: np.ndarray) -> np.ndarray:
    """B m B^dag, a 4^n x 4^n Pauli-transfer matrix m in the row-major
    Liouville basis, where column i of B is vec(P_i) / sqrt(2^n): one
    `_per_leg` pass of the one-qubit basis and a transpose per side, on
    the legs of `_qubit_legs`, so B is never built densely."""
    n = (ptm.shape[-1].bit_length() - 1) // 2
    one = _numpy_table(_PAULI_ROWS).T / math.sqrt(2)
    # The passes give (m B^dag)^T, then B m B^dag.
    for table in (one.conj(), one):
        ptm = _qubit_legs(_per_leg(ptm, table), n, back=True).T
    return ptm


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
    return _kron_columns(_numpy_table(_SIGNS), columns, n).T


def _sign_rows(group: list[PauliString]) -> list[list[int]]:
    """Commutation signs of every pair of ``group``, as lists of +-1 ints,
    from the indices alone."""
    return [[1 - 2 * _anticommute(a.index, b.index, a.n_qubits) for b in group]
            for a in group]


def sign_table_csv(n: int) -> str:
    """Sign table as CSV text with a header row (and column) of labels."""
    group = enumerate_group(n)
    labels = [p.label for p in group]
    lines = ["label," + ",".join(labels)]
    for label, row in zip(labels, _sign_rows(group)):
        lines.append(label + "," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"
