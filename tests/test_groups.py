import itertools
import random

import pytest

from stabwitness.binary import (
    BitMatrix,
    PauliOperator,
    commutes,
    multiply,
    parse_pauli,
    pauli_from_row,
    pauli_row,
)
from stabwitness.groups import (
    GeneratorSet,
    GeneratorSubset,
    InvalidGeneratorSetError,
    InvalidRecombinationError,
    RecombinationMatrix,
    basis_key,
    build_color_code,
    code_from_json,
    code_to_json,
    load_named_code,
    recombine,
    span_group,
    span_paulis,
)
from stabwitness.witnesses import WitnessSpec

from conftest import random_stabilizer_set


def naive_binary_matrix(s):
    """2N x N matrix whose column i is generator i (Z-block on top)."""
    n = s.n_qubits
    # rows of the transpose: the X-block columns of the packed rows, then Z
    cols = BitMatrix(n, 2 * n, tuple(pauli_row(g) for g in s.generators))
    rows = cols.transpose().row_bits
    return BitMatrix(2 * n, n, rows[n:] + rows[:n])


def random_nonsingular(rng, n):
    from stabwitness.binary import rows_rank

    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        m = BitMatrix.from_rows(rows)
        if rows_rank(m.row_bits) == n:
            return RecombinationMatrix(m)


def element_texts(group_like):
    return sorted(e.to_text() for e in group_like)


class TestColorCode:
    def test_generators_and_labels(self):
        code = build_color_code()
        assert code.n_qubits == 7
        assert [g.to_text() for g in code.generators] == [
            "ZZZZIII",
            "IZZIZZI",
            "IIZZIZZ",
            "XXXXIII",
            "IXXIXXI",
            "IIXXIXX",
            "XXXXXXX",
        ]
        assert code.labels == (
            "s_R^Z", "s_B^Z", "s_G^Z", "s_R^X", "s_B^X", "s_G^X", "s_L^X",
        )

    def test_span_has_128_elements(self):
        group = span_group(build_color_code())
        assert len(group) == 128
        assert group.element(0).is_identity

    def test_product_of_z_plaquettes(self):
        code = build_color_code()
        product = multiply(multiply(code.generators[0], code.generators[1]),
                           code.generators[2])
        # oracle: XOR of the three plaquette supports
        support = set()
        for g in code.generators[:3]:
            support ^= set(g.support())
        expected = "".join(
            "Z" if q in support else "I" for q in range(1, 8)
        )
        assert product.to_text() == expected == "ZIZIZIZ"

    def test_binary_matrix_blocks(self):
        m = naive_binary_matrix(build_color_code())
        z_rows = [[m.entry(i, j) for j in range(7)] for i in range(7)]
        x_rows = [[m.entry(i + 7, j) for j in range(7)] for i in range(7)]
        assert z_rows == [
            [1, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
        ]
        assert x_rows == [
            [0, 0, 0, 1, 0, 0, 1],
            [0, 0, 0, 1, 1, 0, 1],
            [0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 1, 1],
        ]


class TestSpanGroup:
    def test_single_qubit_z(self):
        group = span_group(GeneratorSet.from_texts(["Z"]))
        assert element_texts(group) == ["I", "Z"]

    def test_ghz_closure_by_brute_force(self):
        group = span_group(GeneratorSet.from_texts(["XXX", "ZZI", "IZZ"]))
        assert len(group) == 8
        texts = set(element_texts(group))
        for a, b in itertools.product(group, repeat=2):
            assert multiply(a, b).to_text() in texts

    def test_all_pairs_commute(self):
        group = span_group(build_color_code())
        rng = random.Random(0)
        for _ in range(200):
            a, b = rng.choice(group.elements), rng.choice(group.elements)
            assert commutes(a, b)

    def test_rejects_anticommuting(self):
        with pytest.raises(InvalidGeneratorSetError):
            GeneratorSet.from_texts(["XX", "ZI"])

    def test_rejects_dependent(self):
        with pytest.raises(InvalidGeneratorSetError):
            GeneratorSet.from_texts(["XX", "ZZ", "YY"])


class TestRecombine:
    def test_identity_recombination(self):
        code = build_color_code()
        out = recombine(code, RecombinationMatrix.identity(7))
        assert out.generators == code.generators

    def test_color_code_y_basis(self):
        # pair each Z plaquette with the X plaquette on the same face
        code = build_color_code()
        rows = [
            [1, 0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 1],
        ]
        out = recombine(code, RecombinationMatrix.from_rows(rows))
        texts = [g.to_text() for g in out.generators]
        assert texts[0] == "YYYYIII"
        assert texts[1] == "IYYIYYI"
        assert texts[2] == "IIYYIYY"
        assert texts[3:] == ["XXXXIII", "IXXIXXI", "IIXXIXX", "XXXXXXX"]
        # first three rows contain only Y on their support
        for t in texts[:3]:
            assert set(t) <= {"I", "Y"}

    def test_random_recombination_preserves_span(self):
        rng = random.Random(21)
        base = GeneratorSet.from_texts(["XXII", "ZZII", "IIXX", "IIZZ"])
        for _ in range(25):
            r = random_nonsingular(rng, 4)
            out = recombine(base, r)
            assert element_texts(span_group(out)) == element_texts(span_group(base))

    def test_singular_matrix_rejected(self):
        with pytest.raises(InvalidRecombinationError):
            RecombinationMatrix.from_rows([[1, 0], [1, 0]])

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidRecombinationError):
            recombine(build_color_code(), RecombinationMatrix.identity(3))


class TestSubgroupKey:
    def test_identity_only(self):
        assert basis_key([PauliOperator.identity(3)]) == ()

    def test_recombined_bases_share_key(self):
        # two bases of the same rank-4 subgroup of the color code
        e1 = [parse_pauli(t) for t in ("YYYYIII", "ZZZZIII", "IZZIZZI", "IIZZIZZ")]
        e2 = [parse_pauli(t) for t in ("XXXXIII", "ZIZIZIZ", "IZZIZZI", "IIZZIZZ")]
        assert basis_key(e1) == basis_key(e2)
        assert basis_key(span_paulis(e1)) == basis_key(span_paulis(e2)) == basis_key(e1)

    def test_random_bases_of_random_subgroup(self):
        rng = random.Random(13)
        group = span_group(build_color_code())
        for _ in range(30):
            while True:
                basis = rng.sample(group.elements[1:], 3)
                if len(set(basis_key(basis))) == 3 and len(basis_key(basis)) == 3:
                    break
            r = random_nonsingular(rng, 3)
            other = []
            for row in r.matrix.row_bits:
                acc = PauliOperator.identity(7)
                for i in range(3):
                    if (row >> i) & 1:
                        acc = multiply(acc, basis[i])
                other.append(acc)
            assert basis_key(basis) == basis_key(other)

    def test_key_elements_round_trip(self):
        basis = [parse_pauli(t) for t in ("XXXX", "ZZII", "IIZZ")]
        key = basis_key(basis)
        elems = span_paulis([pauli_from_row(r, 4) for r in key])
        assert len(elems) == 8
        assert basis_key(elems) == key

    def test_key_independent_of_element_order(self):
        from hypothesis import given, strategies as st

        basis = [parse_pauli(t) for t in ("XXXX", "ZZII", "IIZZ")]
        elems = span_paulis(basis)
        key = basis_key(elems)

        @given(st.permutations(elems))
        def check(shuffled):
            assert basis_key(shuffled) == key

        check()


def naive_span_paulis(paulis):
    """The product recurrence ``span_paulis`` replaced: entry e is entry
    e minus its lowest set bit times the Pauli of that bit."""
    if not paulis:
        raise ValueError("cannot span an empty sequence")
    out = [PauliOperator.identity(paulis[0].n_qubits)]
    for e in range(1, 1 << len(paulis)):
        low = e & -e
        out.append(multiply(out[e ^ low], paulis[low.bit_length() - 1]))
    return out


def naive_recombine(s, r):
    """The XOR loop ``recombine`` replaced: new generator i is the product
    of the old generators selected by row i of the matrix."""
    new_gens = []
    for row in r.matrix.row_bits:
        z = x = 0
        rest = row
        while rest:
            low = rest & -rest
            g = s.generators[low.bit_length() - 1]
            z ^= g.z_bits
            x ^= g.x_bits
            rest ^= low
        new_gens.append(PauliOperator(s.n_qubits, z, x))
    return GeneratorSet(s.n_qubits, tuple(new_gens))


def ring_code(n):
    return GeneratorSet.from_texts([
        "".join(
            "X" if j == i else "Z" if (j - i) % n in (1, n - 1) else "I"
            for j in range(n)
        )
        for i in range(n)
    ])


# the color code, the 7-qubit ring and graphs 0-3 of the random-state
# recipe on 8 qubits
ORACLE_CASES = (
    [("color_code_7", build_color_code()), ("ring7", ring_code(7))]
    + [(f"recipe8_{g}", random_stabilizer_set(random.Random(g), 8)) for g in range(4)]
)


def texts(paulis):
    return [p.to_text() for p in paulis]


@pytest.mark.parametrize(
    "code", [c for _, c in ORACLE_CASES], ids=[name for name, _ in ORACLE_CASES]
)
class TestPackedSpanMatchesOracles:
    """Members are formed as packed rows (``_span_rows``) and recombined
    generators as ``R @ G``; the Pauli-level loops are the oracles, and
    text and order must agree."""

    def test_span_paulis(self, code):
        gens = list(code.generators)
        assert texts(span_paulis(gens)) == texts(naive_span_paulis(gens))
        rng = random.Random(code.n_qubits)
        for k in range(1, len(gens)):
            picks = rng.sample(gens, k)
            assert texts(span_paulis(picks)) == texts(naive_span_paulis(picks))

    def test_span_group_elements_and_exponents(self, code):
        group = span_group(code)
        expected = naive_span_paulis(list(code.generators))
        assert texts(group.elements) == texts(expected)
        assert group.elements == tuple(expected)
        assert len(group) == len(expected) == 1 << code.n_qubits
        for i, member in enumerate(expected):
            assert group.exponent_of(member) == i
            assert group.element(i) == member

    def test_recombine(self, code):
        rng = random.Random(100 + code.n_qubits)
        for _ in range(10):
            r = random_nonsingular(rng, code.n_qubits)
            out = recombine(code, r)
            assert texts(out.generators) == texts(naive_recombine(code, r).generators)

    def test_key_elements(self, code):
        group = span_group(code)
        rng = random.Random(200 + code.n_qubits)
        keys = [group.key] + [
            basis_key(rng.sample(group.elements[1:], k))
            for k in range(1, code.n_qubits)
        ]
        for key in keys:
            paulis = [pauli_from_row(r, code.n_qubits) for r in key]
            members = span_paulis(paulis)
            assert texts(members) == texts(naive_span_paulis(paulis))
            assert basis_key(members) == key


class TestSpanPaulisInput:
    def test_refuses_empty(self):
        with pytest.raises(ValueError, match="empty"):
            span_paulis([])

    def test_refuses_mixed_sizes(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            span_paulis([parse_pauli("XX"), parse_pauli("ZZZ")])
        with pytest.raises(ValueError):
            naive_span_paulis([parse_pauli("XX"), parse_pauli("ZZZ")])

    def test_exponent_of_other_size_is_none(self):
        group = span_group(GeneratorSet.from_texts(["XX", "ZZ"]))
        assert group.exponent_of(parse_pauli("XX")) == 1
        assert group.exponent_of(parse_pauli("XXI")) is None
        assert parse_pauli("XXI") not in group


class TestCodeJson:
    def test_round_trip(self):
        code = build_color_code()
        name, parsed = code_from_json(code_to_json(code, "color_code_7"))
        assert name == "color_code_7"
        assert parsed.generators == code.generators
        assert parsed.labels == code.labels

    def test_named_lookup(self):
        assert load_named_code("color_code_7").n_qubits == 7
        with pytest.raises(KeyError):
            load_named_code("nope")

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            code_from_json("{not json")
        with pytest.raises(ValueError):
            code_from_json('{"name": "x"}')
        with pytest.raises(ValueError):
            code_from_json(
                '{"name": "x", "n_qubits": 3, "generators": ["XX", "ZZ"]}'
            )


class TestGeneratorSubset:
    def test_structural_validation(self):
        stabilizers = (parse_pauli("ZZZZIII"), parse_pauli("IXXIXXI"))
        GeneratorSubset((2, 3), stabilizers)
        with pytest.raises(ValueError):
            GeneratorSubset((3, 2), stabilizers)
        with pytest.raises(ValueError):
            GeneratorSubset((2,), stabilizers)
        with pytest.raises(ValueError):
            GeneratorSubset((0, 3), stabilizers)

    @pytest.mark.parametrize(
        "omega,named",
        [((1.0, 2), "1.0"), (("1", "2"), "'1', '2'"), ((True, 2), "True")],
        ids=["float", "str", "bool"],
    )
    def test_labels_that_are_not_ints_are_named(self, omega, named):
        # a float label was accepted and failed later in check_direct, str
        # labels raised a bare TypeError from the sort, and True was taken
        # for qubit 1
        stabilizers = (parse_pauli("ZZI"), parse_pauli("XXI"))
        with pytest.raises(ValueError) as err:
            GeneratorSubset(omega, stabilizers)
        assert str(err.value) == f"omega has labels that are not integers: {named}"
        with pytest.raises(ValueError) as err:
            WitnessSpec("standard", omega, 3, (0b110 << 3, 0b011))
        assert str(err.value) == f"omega has labels that are not integers: {named}"

    def test_omega_mask(self):
        subset = GeneratorSubset(
            (2, 3, 4),
            (parse_pauli("ZZZZIII"), parse_pauli("IXXIXXI"), parse_pauli("IIXXIXX")),
        )
        assert subset.omega_mask == 0b0001110
