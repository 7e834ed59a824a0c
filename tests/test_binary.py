import random

import pytest
from hypothesis import given, strategies as st

from stabwitness.binary import (
    BitMatrix,
    _insert_reduced,
    _reduce_into,
    PauliOperator,
    anticommutation_mask,
    commutes,
    multiply,
    parse_pauli,
    pauli_from_row,
    pauli_row,
    rank_mod2,
    rows_rank,
    rows_rref,
    solve_mod2,
)


def naive_invert_mod2(m):
    """Inverse of a square binary matrix; raises ValueError if singular.

    Reduces the augmented rows [A_i | e_i].  For invertible A the reduced
    row with high half e_k carries row k of the inverse in its low half; a
    reduced row with a zero high half is a dependency among the rows of A.
    """
    n = m.n_rows
    reduced = rows_rref((row << n) | (1 << i) for i, row in enumerate(m.row_bits))
    if any(r >> n == 0 for r in reduced):
        raise ValueError("matrix is singular over GF(2)")
    low = (1 << n) - 1
    return BitMatrix(n, n, tuple(r & low for r in reversed(reduced)))


def letters_commute(a, b, qubit):
    """True iff the single-qubit letters at a 1-based position commute:
    they are equal or one of them is I."""
    pair = {a.letter_at(qubit), b.letter_at(qubit)}
    return len(pair) == 1 or "I" in pair


def naive_rank(rows, n_cols):
    """Independent rank oracle on lists of 0/1 entries."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def naive_echelon(rows):
    """Forward elimination written out as one loop, with no step helper:
    each row clears its leading bit with the basis row that owns it until
    it is 0 or owns a free leading bit."""
    by_pivot = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in by_pivot:
                by_pivot[lead] = row
                break
            row ^= by_pivot[lead]
    return list(by_pivot.values())


def naive_rref(rows):
    """``naive_echelon`` back-substituted, sorted descending."""
    basis = naive_echelon(rows)
    for i in range(len(basis)):
        pivot = 1 << (basis[i].bit_length() - 1)
        for j in range(len(basis)):
            if i != j and basis[j] & pivot:
                basis[j] ^= basis[i]
    return sorted(basis, reverse=True)


def random_rows(rng):
    """Random rows of random width, some of them sums of earlier rows, so
    that dependent rows and zero rows both occur."""
    width = rng.randrange(1, 24)
    rows = []
    for _ in range(rng.randrange(0, width + 5)):
        if rows and rng.random() < 0.3:
            row = 0
            for earlier in rng.sample(rows, rng.randrange(1, len(rows) + 1)):
                row ^= earlier
        else:
            row = rng.getrandbits(width)
        rows.append(row)
    return rows


def random_pauli(rng, n):
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))


paulis = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    )
).map(lambda t: PauliOperator(*t))


class TestPauliText:
    def test_round_trip(self):
        for text in ["ZZZZIII", "IXYZ", "Y", "XXXXXXX"]:
            assert parse_pauli(text).to_text() == text

    def test_leftmost_character_is_qubit_one(self):
        p = parse_pauli("ZIIIIII")
        assert p.letter_at(1) == "Z"
        assert p.support() == (1,)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            parse_pauli("XZQ")
        with pytest.raises(ValueError):
            parse_pauli("")

    def test_letter_encoding(self):
        p = parse_pauli("IXYZ")
        assert [p.letter_at(q) for q in (1, 2, 3, 4)] == ["I", "X", "Y", "Z"]
        # letter (z, x) bit pairs: I=(0,0) X=(0,1) Y=(1,1) Z=(1,0)
        assert p.z_bits == 0b1100
        assert p.x_bits == 0b0110


class TestMultiply:
    def test_single_qubit_x_times_y_is_z(self):
        x = parse_pauli("X")
        y = parse_pauli("Y")
        assert multiply(x, y).to_text() == "Z"

    def test_self_inverse(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_pauli(rng, 5)
            assert multiply(p, p).is_identity

    def test_disjoint_supports(self):
        a = parse_pauli("XI")
        b = parse_pauli("IZ")
        assert multiply(a, b).to_text() == "XZ"

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            multiply(parse_pauli("X"), parse_pauli("XX"))

    @given(paulis, paulis, paulis)
    def test_associative_and_commutative(self, a, b, c):
        n = max(a.n_qubits, b.n_qubits, c.n_qubits)
        a, b, c = (
            PauliOperator(n, p.z_bits, p.x_bits) for p in (a, b, c)
        )
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestCommutes:
    def test_x_z_anticommute(self):
        assert not commutes(parse_pauli("X"), parse_pauli("Z"))

    def test_two_anticommuting_sites_cancel(self):
        assert commutes(parse_pauli("XX"), parse_pauli("ZZ"))

    def test_color_code_generators_commute(self):
        assert commutes(parse_pauli("ZZZZIII"), parse_pauli("IXXIXXI"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutes(parse_pauli("X"), parse_pauli("XX"))

    @given(paulis, paulis)
    def test_symmetry(self, a, b):
        n = max(a.n_qubits, b.n_qubits)
        a = PauliOperator(n, a.z_bits, a.x_bits)
        b = PauliOperator(n, b.z_bits, b.x_bits)
        assert commutes(a, b) == commutes(b, a)
        assert commutes(a, multiply(a, b)) == commutes(a, b)

    @given(paulis, paulis)
    def test_global_matches_parity_of_local(self, a, b):
        n = max(a.n_qubits, b.n_qubits)
        a = PauliOperator(n, a.z_bits, a.x_bits)
        b = PauliOperator(n, b.z_bits, b.x_bits)
        odd_sites = sum(
            0 if letters_commute(a, b, q) else 1 for q in range(1, n + 1)
        )
        assert commutes(a, b) == (odd_sites % 2 == 0)


class TestLocalCommutes:
    def test_z_against_x_plaquettes(self):
        srz = parse_pauli("ZZZZIII")
        sbx = parse_pauli("IXXIXXI")
        assert anticommutation_mask(srz, sbx) == 0b110  # Z vs X on qubits 2, 3
        assert not letters_commute(srz, sbx, 2)  # Z vs X
        assert letters_commute(srz, sbx, 5)  # I vs X

    def test_outside_both_supports(self):
        a = parse_pauli("XII")
        b = parse_pauli("IZI")
        assert anticommutation_mask(a, b) == 0
        assert letters_commute(a, b, 3)

    def test_index_out_of_range(self):
        # the mask has no bit past the last qubit; the letterwise check
        # reads letters, which refuse a qubit outside 1..N
        assert anticommutation_mask(parse_pauli("X"), parse_pauli("Z")) == 1
        with pytest.raises(IndexError):
            letters_commute(parse_pauli("X"), parse_pauli("Z"), 2)


class TestRank:
    def test_zero_matrix(self):
        assert rank_mod2(BitMatrix.zeros(3, 5)) == 0

    def test_identity(self):
        for k in (1, 4, 7):
            assert rank_mod2(BitMatrix.identity(k)) == k

    def test_connected_four_vertex_incidence(self):
        # 4-vertex star: edge columns {1,2},{1,3},{1,4} of the six vertex pairs
        rows = [
            [1, 1, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
        ]
        assert rank_mod2(BitMatrix.from_rows(rows)) == 3

    def test_matches_naive_elimination(self):
        rng = random.Random(11)
        for _ in range(100):
            n_rows = rng.randint(1, 12)
            n_cols = rng.randint(1, 12)
            rows = [
                [rng.randint(0, 1) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            assert rank_mod2(BitMatrix.from_rows(rows)) == naive_rank(rows, n_cols)

    def test_input_not_mutated(self):
        m = BitMatrix.from_rows([[1, 1], [1, 0]])
        before = m.row_bits
        rank_mod2(m)
        assert m.row_bits == before


class TestReduceInto:
    """The two elimination steps: ``_echelon`` loops over ``_reduce_into``
    and the direct search's leaf test runs it until its verdict;
    ``rows_rref`` folds ``_insert_reduced`` and the graph census runs it
    once per child key."""

    def test_independent_exactly_when_the_rank_grows(self):
        rng = random.Random(3701)
        added = dependent = 0
        for _ in range(400):
            rows = random_rows(rng)
            basis = {}
            for i, row in enumerate(rows):
                grows = rows_rank(rows[: i + 1]) > rows_rank(rows[:i])
                assert _reduce_into(basis, row) == grows, (rows, i)
                added += grows
                dependent += not grows
            assert len(basis) == rows_rank(rows)
            # each basis row is filed under its own leading bit
            assert all(row.bit_length() == lead for lead, row in basis.items())
        assert added and dependent

    def test_reduced_insertion_folds_to_the_rref(self):
        # every prefix of the rows, folded one insertion at a time, is the
        # rref of that prefix; a zero or dependent row returns the key as
        # it was
        rng = random.Random(3703)
        kept = skipped = 0
        for _ in range(400):
            rows = random_rows(rng)
            key = ()
            for i, row in enumerate(rows):
                grown = _insert_reduced(key, row)
                assert list(grown) == naive_rref(rows[: i + 1]), (rows, i)
                if len(grown) == len(key):
                    assert grown is key
                    skipped += 1
                else:
                    assert len(grown) == len(key) + 1
                    kept += 1
                key = grown
        assert kept and skipped

    def test_rank_and_rref_match_one_loop_elimination(self):
        rng = random.Random(3702)
        for _ in range(400):
            rows = random_rows(rng)
            assert rows_rank(rows) == len(naive_echelon(rows))
            assert rows_rref(rows) == naive_rref(rows)
            assert rows_rref(iter(rows)) == naive_rref(rows)


class TestSolve:
    def test_identity_system(self):
        sol, null = solve_mod2(BitMatrix.identity(4), 0b1010)
        assert sol == 0b1010
        assert null == []

    def test_zero_matrix_full_nullspace(self):
        sol, null = solve_mod2(BitMatrix.zeros(3, 4), 0)
        assert sol == 0
        assert len(null) == 4
        assert rows_rank(null) == 4

    def test_inconsistent(self):
        sol, _ = solve_mod2(BitMatrix.zeros(2, 2), 0b01)
        assert sol is None

    def test_random_instances_verify_by_multiplication(self):
        rng = random.Random(3)
        inconsistent = 0
        # square, wide and tall systems; every other right-hand side is
        # random, which leaves many of them outside the column space
        for n_rows, n_cols in [(10, 10), (6, 10), (10, 6)]:
            for trial in range(50):
                a = BitMatrix(
                    n_rows, n_cols,
                    tuple(rng.getrandbits(n_cols) for _ in range(n_rows)),
                )
                if trial % 2:
                    b = rng.getrandbits(n_rows)
                else:
                    # b = a @ x computed by the independent multiplication oracle
                    x_true = rng.getrandbits(n_cols)
                    b = 0
                    for i in range(n_rows):
                        if bin(a.row_bits[i] & x_true).count("1") % 2:
                            b |= 1 << i
                augmented = [
                    row + [(b >> i) & 1] for i, row in enumerate(a.to_lists())
                ]
                rank_a = naive_rank(a.to_lists(), n_cols)
                consistent = naive_rank(augmented, n_cols + 1) == rank_a
                sol, null = solve_mod2(a, b)
                assert (sol is not None) == consistent
                inconsistent += not consistent
                assert len(null) == n_cols - rank_a
                assert rows_rank(null) == len(null)
                for v in null:
                    for i in range(n_rows):
                        assert bin(a.row_bits[i] & v).count("1") % 2 == 0
                if sol is None:
                    continue
                for candidate in [sol] + [sol ^ v for v in null]:
                    for i in range(n_rows):
                        parity = bin(a.row_bits[i] & candidate).count("1") % 2
                        assert parity == (b >> i) & 1
        assert inconsistent >= 20


class TestRref:
    def test_rref_is_canonical_under_row_scrambling(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [rng.getrandbits(8) for _ in range(4)]
            base = rows_rref(rows)
            # random invertible combinations preserve the span
            scrambled = list(rows)
            for _ in range(10):
                i, j = rng.sample(range(4), 2)
                scrambled[i] ^= scrambled[j]
            rng.shuffle(scrambled)
            assert rows_rref(scrambled) == base


class TestInvert:
    def test_round_trip(self):
        rng = random.Random(9)
        found = 0
        while found < 20:
            m = BitMatrix(6, 6, tuple(rng.getrandbits(6) for _ in range(6)))
            if rank_mod2(m) < 6:
                continue
            found += 1
            inv = naive_invert_mod2(m)
            assert (m @ inv).row_bits == BitMatrix.identity(6).row_bits

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            naive_invert_mod2(BitMatrix.zeros(3, 3))


class TestPacking:
    @given(paulis)
    def test_row_round_trip(self, p):
        assert pauli_from_row(pauli_row(p), p.n_qubits) == p

    @given(paulis, paulis)
    def test_anticommutation_mask_is_local_indicator(self, a, b):
        n = max(a.n_qubits, b.n_qubits)
        a = PauliOperator(n, a.z_bits, a.x_bits)
        b = PauliOperator(n, b.z_bits, b.x_bits)
        mask = anticommutation_mask(a, b)
        for q in range(1, n + 1):
            assert ((mask >> (q - 1)) & 1) == (not letters_commute(a, b, q))
