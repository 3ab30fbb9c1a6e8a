"""Tests for the symplectic Pauli-string algebra."""

import functools
import hashlib
import itertools
import operator
from collections import Counter

import numpy as np
import pytest
from pst_oracles import sign_rank

from pstlab.errors import PauliParseError, ResourceLimitError
from pstlab.pauli import (
    MAX_QUBITS_ENV,
    PauliString,
    commutation_sign,
    enumerate_group,
    identity_string,
    matrix_of,
    multiply,
    pauli_from_label,
    sign_table,
    sign_table_csv,
    _per_leg,
    _sign_rows,
    _span,
)

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # without the `test` extra the index property is not collected
    st = None


class TestParsing:
    def test_zx_encoding(self):
        p = pauli_from_label("ZX")
        assert p.index == 4 * 3 + 1
        assert p.label == "ZX"

    def test_identity(self):
        p = pauli_from_label("II")
        assert p.is_identity
        assert p == identity_string(2)

    def test_y_sets_both_bits(self):
        # Digit 2 = 2z + (x XOR z) with x = z = 1: Y anticommutes with X and Z.
        p = pauli_from_label("Y")
        assert p.index == 2
        assert commutation_sign(p, pauli_from_label("X")) == -1
        assert commutation_sign(p, pauli_from_label("Z")) == -1

    def test_empty_label_rejected(self):
        with pytest.raises(PauliParseError):
            pauli_from_label("")

    def test_invalid_character_names_position(self):
        with pytest.raises(PauliParseError, match="position 1"):
            pauli_from_label("ZQ")

    def test_index_invariants(self):
        with pytest.raises(ValueError, match="outside"):
            PauliString(2, 16)
        with pytest.raises(ValueError, match="outside"):
            PauliString(2, -1)
        with pytest.raises(ValueError):
            PauliString(0, 0)
        with pytest.raises(TypeError):
            PauliString(1, 1.0)

    def test_numpy_index_is_an_int(self):
        word = PauliString(2, np.intp(13))
        assert word == pauli_from_label("ZX")
        assert hash(word) == hash(pauli_from_label("ZX"))
        assert type(word.index) is int


if st is not None:
    @st.composite
    def index_pairs(draw):
        """A register of 1 to 40 qubits, so indices pass 64 bits, and two
        word indices on it, drawn digit by digit so high digits are set."""
        n = draw(st.integers(1, 40))
        digits = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        index = digits.map(lambda ds: int("".join(map(str, ds)), 4))
        return n, draw(index), draw(index)

    class TestIndexAlgebra:
        """Labels, products and signs read from the index, against the
        per-qubit rules, with no numpy and no qubit bound."""

        @settings(max_examples=300, deadline=None)
        @given(index_pairs())
        def test_labels_products_and_signs(self, pair):
            n, i, j = pair
            a, b = PauliString(n, i), PauliString(n, j)
            assert pauli_from_label(a.label) == a
            assert multiply(a, b) == PauliString(n, i ^ j)
            # Two different non-identity letters anticommute.
            pairs = sum(x != y and "I" not in (x, y) for x, y in zip(a.label, b.label))
            assert commutation_sign(a, b) == (-1) ** (pairs % 2)

    @st.composite
    def word_lists(draw):
        """A register of 1 to 3 qubits and up to 6 word indices on it, each
        drawn freely or as the product of some earlier words: of none (the
        identity), of one (a repeat) or of several (a dependent word)."""
        n = draw(st.integers(1, 3))
        indices = []
        for _ in range(draw(st.integers(0, 6))):
            if indices and draw(st.booleans()):
                factors = draw(st.lists(st.sampled_from(indices), max_size=3))
                indices.append(functools.reduce(operator.xor, factors, 0))
            else:
                indices.append(draw(st.integers(0, 4**n - 1)))
        return n, indices

    class TestSpan:
        """The group, positions and characters of `_span` against the GF(2)
        rank of the words and the sign table's rows, frame by frame."""

        @settings(max_examples=200, deadline=None)
        @given(word_lists())
        # I, XX twice, YY, ZZ = XX YY and YX: rank 3.
        @example((2, [0, 5, 5, 10, 15, 9]))
        def test_characters_are_the_distinct_sign_rows(self, drawn):
            n, indices = drawn
            group, position, characters = _span(indices)
            p = np.arange(len(group))
            np.testing.assert_array_equal(group[p[:, None]] ^ group[p], group[p[:, None] ^ p])
            assert [int(group[q]) for q in position] == indices
            words = [PauliString(n, index) for index in indices]
            assert len(group) == 2 ** sign_rank(words)
            np.testing.assert_array_equal(
                characters, [[(-1) ** (c & q).bit_count() for q in range(p.size)]
                             for c in range(p.size)])
            # Every sign row is one character's, taken by 4^n / |group| frames.
            rows = Counter(map(tuple, sign_table(n, words).tolist()))
            patterns = set(map(tuple, characters[:, position].tolist()))
            assert len(patterns) == len(group)
            assert set(rows) == patterns
            assert set(rows.values()) == {4**n // len(group)}


class TestCommutationSign:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("XX", "ZZ", 1),
            ("XZ", "ZZ", -1),
            ("II", "ZX", 1),
            ("X", "Y", -1),
            ("Z", "Z", 1),
        ],
    )
    def test_examples(self, a, b, expected):
        assert commutation_sign(pauli_from_label(a), pauli_from_label(b)) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutation_sign(pauli_from_label("X"), pauli_from_label("XX"))

    def test_symmetric_and_factorwise(self):
        # The sign is (-1)^(number of anticommuting single-qubit pairs).
        for a, b in itertools.product(enumerate_group(2), repeat=2):
            s = commutation_sign(a, b)
            assert s == commutation_sign(b, a)
            pairs = sum(
                commutation_sign(
                    pauli_from_label(ca), pauli_from_label(cb)
                ) == -1
                for ca, cb in zip(a.label, b.label)
            )
            assert s == (-1) ** pairs


class TestGroupEnumeration:
    def test_single_qubit_order(self):
        assert [p.label for p in enumerate_group(1)] == ["I", "X", "Y", "Z"]

    def test_two_qubit_prefix_and_uniqueness(self):
        group = enumerate_group(2)
        assert len(group) == 16
        assert [p.label for p in group[:5]] == ["II", "IX", "IY", "IZ", "XI"]
        assert group[0].is_identity
        assert len({p.label for p in group}) == 16

    @pytest.mark.parametrize("n", [1, 2])
    def test_products_xor_the_group_indices(self, n):
        # Digits I=0, X=1, Y=2, Z=3 multiply by XOR: P_i P_j = P_(i^j) up to phase.
        group = enumerate_group(n)
        for i, j in itertools.product(range(len(group)), repeat=2):
            assert multiply(group[i], group[j]) == group[i ^ j]

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            enumerate_group(5)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "1")
        with pytest.raises(ResourceLimitError):
            enumerate_group(2)
        monkeypatch.setenv(MAX_QUBITS_ENV, "5")
        assert len(enumerate_group(1)) == 4

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "many")
        with pytest.raises(ResourceLimitError):
            enumerate_group(1)

    def test_env_bound_below_one_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "0")
        with pytest.raises(ResourceLimitError, match=f"^{MAX_QUBITS_ENV} must be >= 1, got 0$"):
            enumerate_group(1)


class TestMatrices:
    def test_z_diagonal(self):
        np.testing.assert_array_equal(
            matrix_of(pauli_from_label("Z")), np.diag([1.0 + 0j, -1.0 + 0j])
        )

    def test_zx_kron(self):
        m = matrix_of(pauli_from_label("ZX"))
        assert m.shape == (4, 4)
        assert set(np.unique(m.real)) <= {-1.0, 0.0, 1.0}
        assert np.abs(m.imag).max() == 0
        expected = np.kron(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(m, expected.astype(complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_word_is_the_kronecker_product_of_its_letters(self, n):
        one = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
               "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
        for word in enumerate_group(n):
            expected = np.ones((1, 1), dtype=complex)
            for letter in word.label:
                expected = np.kron(expected, one[letter])
            m = matrix_of(word)
            assert m.dtype == complex
            np.testing.assert_array_equal(m, expected)

    def test_involution_and_hermitian(self):
        for p in enumerate_group(2):
            m = matrix_of(p)
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-15)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-15)

    def test_product_sign_consistency(self):
        # matrix_of(a) matrix_of(b) = commutation_sign(a, b) matrix_of(b) matrix_of(a)
        group = enumerate_group(2)
        for a, b in itertools.product(group, repeat=2):
            ma, mb = matrix_of(a), matrix_of(b)
            np.testing.assert_allclose(
                ma @ mb, commutation_sign(a, b) * (mb @ ma), atol=1e-15
            )

    def test_multiply_matches_matrices_up_to_phase(self):
        group = enumerate_group(2)
        for a, b in itertools.product(group[:8], group[:8]):
            product = matrix_of(a) @ matrix_of(b)
            np.testing.assert_allclose(
                np.abs(product), np.abs(matrix_of(multiply(a, b))), atol=1e-15
            )
        assert multiply(pauli_from_label("X"), pauli_from_label("Z")).label == "Y"


class TestSignTable:
    def test_single_qubit_x_row(self):
        table = sign_table(1)
        np.testing.assert_array_equal(table[1], [1, 1, -1, -1])

    def test_structure(self):
        table = sign_table(2)
        np.testing.assert_array_equal(table, table.T)
        np.testing.assert_array_equal(table[0], np.ones(16, dtype=int))
        np.testing.assert_array_equal(table[:, 0], np.ones(16, dtype=int))

    @pytest.mark.parametrize("n", [1, 2])
    def test_sign_orthogonality(self, n):
        # sum_a sgn(a, g) sgn(a, g') = 4^n delta_gg', exhaustively.
        table = sign_table(n)
        np.testing.assert_array_equal(table @ table, 4**n * np.eye(4**n, dtype=int))

    def test_csv_export(self):
        text = sign_table_csv(1)
        lines = text.splitlines()
        assert lines[0] == "label,I,X,Y,Z"
        assert lines[2] == "X,1,1,-1,-1"
        assert len(lines) == 5
        assert text.endswith("\n")


class TestVectorizedSigns:
    def test_signs_against_chosen_words(self):
        words = [pauli_from_label(label) for label in ("ZX", "XX", "IY")]
        signs = sign_table(2, words)
        assert signs.shape == (16, 3) and signs.dtype == int
        for row, alpha in zip(signs, enumerate_group(2)):
            assert [int(sign) for sign in row] == [
                commutation_sign(alpha, word) for word in words
            ]

    def test_signs_reject_foreign_register(self):
        with pytest.raises(ValueError):
            sign_table(2, [pauli_from_label("XYZ")])
        # A longer word must not be read at its index's low digits.
        with pytest.raises(ValueError, match="IIX acts on 3 qubits, expected 2"):
            sign_table(2, [pauli_from_label("IIX")])

    def test_qubit_bound(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "1")
        with pytest.raises(ResourceLimitError):
            sign_table(2, [pauli_from_label("XX")])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csv_is_byte_identical_to_pairwise_signs(self, n):
        # The vectorized table against the symplectic sign of every pair.
        group = enumerate_group(n)
        lines = ["label," + ",".join(p.label for p in group)]
        for a in group:
            lines.append(
                a.label + "," + ",".join(str(commutation_sign(a, b)) for b in group)
            )
        assert sign_table_csv(n) == "\n".join(lines) + "\n"


class TestBitMaskSigns:
    """The numpy-free sign table of the sign-table command against the
    Kronecker-power table the numeric layers use, and pair by pair."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_equal_the_kronecker_table(self, n):
        rows = _sign_rows(enumerate_group(n))
        np.testing.assert_array_equal(np.array(rows), sign_table(n))

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_equal_the_pairwise_and_matrix_signs(self, n):
        group = enumerate_group(n)
        rows = _sign_rows(group)
        assert rows == [[commutation_sign(a, b) for b in group] for a in group]
        for a, row in zip(group, rows):
            pa = matrix_of(a)
            for b, sign in zip(group, row):
                pb = matrix_of(b)
                assert np.allclose(pa @ pb, sign * (pb @ pa))

    def test_four_qubit_csv_is_unchanged(self):
        # SHA-256 of the 256 x 256 table as an int8 parity matmul printed it.
        text = sign_table_csv(4)
        assert len(text) == 166278
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3727a51376003bf07296086378886e5046a859dde0a8a8b0001122c124810bea"
        )


class TestPerLeg:
    """The one Kronecker-power kernel against the dense power."""

    @pytest.mark.parametrize("legs", [1, 2, 3])
    @pytest.mark.parametrize("head", [(), (3,), (2, 3), (0,), (0, 2)])
    @pytest.mark.parametrize("table", [
        np.random.default_rng(4).normal(size=(4, 4)) @ np.diag([1, 1j, -1, -1j]),
        np.array([[1.0, 1.0], [1.0, -1.0]]),
    ], ids=["random-4x4", "hadamard"])
    def test_equals_the_dense_kronecker_power(self, table, head, legs):
        power = np.ones((1, 1))
        for _ in range(legs):
            power = np.kron(power, table)
        t = np.random.default_rng(legs).normal(size=(*head, len(power)))
        got = _per_leg(t, table)
        assert got.shape == t.shape
        np.testing.assert_allclose(got, t @ power.T, rtol=0, atol=1e-13)


class TestMatrixCache:
    def test_repeat_calls_share_a_read_only_array(self):
        word = pauli_from_label("XY")
        first = matrix_of(word)
        assert matrix_of(pauli_from_label("XY")) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 2.0
        with pytest.raises(ValueError):
            first *= 2.0

    def test_bound_is_checked_on_cache_hits(self, monkeypatch):
        word = pauli_from_label("ZX")
        matrix_of(word)
        monkeypatch.setenv(MAX_QUBITS_ENV, "1")
        with pytest.raises(ResourceLimitError):
            matrix_of(word)
