import hashlib
import itertools
import random

import pytest

from stabwitness.binary import (
    BitMatrix,
    PauliOperator,
    commutes,
    multiply,
    parse_pauli,
    pauli_row,
    rows_rank,
)
from stabwitness.cliffords import (
    SINGLE_QUBIT_CLIFFORDS,
    LocalClifford,
    _map_row,
    apply,
    apply_to_generators,
    find_graph_equivalence,
    find_local_symmetries,
)
from stabwitness.graphs import Graph, graph_generators, lc_orbit, local_complement
from stabwitness.groups import (
    GeneratorSet,
    RecombinationMatrix,
    basis_key,
    build_color_code,
    recombine,
    span_group,
)
from stabwitness import witnesses
from stabwitness.witnesses import direct_census, enumerate_graph_based

from conftest import random_stabilizer_set
from test_binary import naive_invert_mod2
from test_graphs import CODE_GRAPH, K4, random_graph
from test_groups import naive_binary_matrix, random_nonsingular
from test_witnesses import naive_lc_unitary, ring_group


def random_local_clifford(rng, n):
    return LocalClifford(tuple(rng.choice(SINGLE_QUBIT_CLIFFORDS) for _ in range(n)))


def naive_map_letters(q, z_bits, x_bits):
    """Letter maps applied to packed (Z-block, X-block) bits by grouping the
    qubits by letter map and branching on each map's matrix entries."""
    masks = {}
    for mu, c in enumerate(q.per_qubit):
        masks[c] = masks.get(c, 0) | (1 << mu)
    z = x = 0
    for c, mask in masks.items():
        pz = z_bits & mask
        px = x_bits & mask
        if c.a:
            z |= pz if not c.b else pz ^ px
        elif c.b:
            z |= px
        if c.c:
            x |= pz if not c.d else pz ^ px
        elif c.d:
            x |= px
    return z, x


class TestSingleQubit:
    def test_six_distinct_invertible_maps(self):
        mats = {(c.a, c.b, c.c, c.d) for c in SINGLE_QUBIT_CLIFFORDS}
        assert len(mats) == 6
        for c in SINGLE_QUBIT_CLIFFORDS:
            assert (c.a & c.d) ^ (c.b & c.c) == 1

    def test_letter_actions(self):
        actions = {}
        for c in SINGLE_QUBIT_CLIFFORDS:
            q = LocalClifford((c,))
            actions[c.name] = {
                letter: apply(q, parse_pauli(letter)).to_text()
                for letter in "XYZ"
            }
        assert actions["I"] == {"X": "X", "Y": "Y", "Z": "Z"}
        assert actions["H"] == {"X": "Z", "Y": "Y", "Z": "X"}
        assert actions["S"] == {"X": "Y", "Y": "X", "Z": "Z"}
        assert actions["HSH"] == {"X": "X", "Y": "Z", "Z": "Y"}
        assert actions["HS"] == {"Z": "X", "X": "Y", "Y": "Z"}
        assert actions["SH"] == {"Z": "Y", "Y": "X", "X": "Z"}

    def test_compose_matches_sequential_apply(self):
        for c1, c2 in itertools.product(SINGLE_QUBIT_CLIFFORDS, repeat=2):
            composed = c1.compose(c2)
            for letter in "XYZ":
                step = apply(LocalClifford((c2,)), parse_pauli(letter))
                step = apply(LocalClifford((c1,)), step)
                assert apply(LocalClifford((composed,)), parse_pauli(letter)) == step

    def test_inverse(self):
        for c in SINGLE_QUBIT_CLIFFORDS:
            assert c.compose(c.inverse()).name == "I"


class TestApply:
    def test_hadamard_on_first_qubit(self):
        q = LocalClifford.hadamards(7, [1])
        assert apply(q, parse_pauli("ZIZIZIZ")).to_text() == "XIZIZIZ"

    def test_identity(self):
        q = LocalClifford.identity(4)
        p = parse_pauli("XYZI")
        assert apply(q, p) == p

    def test_mapping_to_graph_generators(self):
        # letter swaps on qubits 1, 2, 4 turn an X/Z basis into graph form
        v = LocalClifford.hadamards(7, [1, 2, 4])
        images = {
            "XXXXIII": "ZZXZIII",
            "ZIZIZIZ": "XIZIZIZ",
            "IZZIZZI": "IXZIZZI",
            "IIZZIZZ": "IIZXIZZ",
        }
        for src, dst in images.items():
            assert apply(v, parse_pauli(src)).to_text() == dst

    def test_color_code_to_graph_correspondence(self):
        # swaps on qubits 1, 5, 7 map these seven stabilizers onto the
        # generators of CODE_GRAPH, in vertex order
        code = build_color_code()
        by_label = dict(zip(code.labels, code.generators))
        pulled = [
            by_label["s_R^Z"],
            multiply(by_label["s_G^X"], by_label["s_L^X"]),
            multiply(multiply(by_label["s_R^X"], by_label["s_B^X"]), by_label["s_G^X"]),
            multiply(by_label["s_B^X"], by_label["s_L^X"]),
            by_label["s_B^Z"],
            multiply(by_label["s_R^X"], by_label["s_L^X"]),
            by_label["s_G^Z"],
        ]
        u = LocalClifford.hadamards(7, [1, 5, 7])
        images = [apply(u, p) for p in pulled]
        assert images == list(graph_generators(CODE_GRAPH).generators)

    def test_preserves_commutation(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 7)
            a = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
            b = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
            q = random_local_clifford(rng, n)
            assert commutes(apply(q, a), apply(q, b)) == commutes(a, b)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply(LocalClifford.identity(2), parse_pauli("XXX"))

    def test_map_row_matches_grouped_letter_maps(self):
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randint(1, 9)
            q = random_local_clifford(rng, n)
            row = rng.getrandbits(2 * n)
            z, x = naive_map_letters(q, row >> n, row & ((1 << n) - 1))
            assert _map_row(q, row) == (z << n) | x

    def test_image_rows_are_the_letter_images(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(1, 7)
            q = random_local_clifford(rng, n)
            z_image = x_image = 0
            for mu in range(n):
                z_image |= pauli_row(apply(q, PauliOperator(n, 1 << mu, 0)))
                x_image |= pauli_row(apply(q, PauliOperator(n, 0, 1 << mu)))
            assert (q.z_image, q.x_image) == (z_image, x_image)

    def test_text_round_trip(self):
        q = LocalClifford.parse("H,I,S,HS,SH,HSH,I")
        assert q.to_text() == "H,I,S,HS,SH,HSH,I"
        assert q.compose(q.inverse()).is_identity()


class TestLcUnitary:
    def test_path_to_triangle(self):
        path = Graph.from_edges(3, [(1, 2), (2, 3)])
        u = naive_lc_unitary(path, 2)
        assert u.to_text() == "S,HSH,S"
        images = [apply(u, g) for g in graph_generators(path).generators]
        target = graph_generators(local_complement(path, 2)).generators
        assert basis_key(images) == basis_key(target)

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [(1, 2)])
        u = naive_lc_unitary(g, 3)
        images = [apply(u, p) for p in graph_generators(g).generators]
        assert basis_key(images) == basis_key(graph_generators(g).generators)

    def test_random_graphs_span_complemented_group(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(rng, 5)
            v = rng.randint(1, 5)
            u = naive_lc_unitary(g, v)
            images = [apply(u, p) for p in graph_generators(g).generators]
            target = graph_generators(local_complement(g, v)).generators
            assert basis_key(images) == basis_key(target)


class TestGraphEquivalence:
    def test_color_code(self):
        code = build_color_code()
        q, r, graph = find_graph_equivalence(code)
        mapped = apply_to_generators(q, recombine(code, r))
        assert mapped.generators == graph_generators(graph).generators
        # only letter swaps are needed for this X/Z code
        assert set(c.name for c in q.per_qubit) <= {"I", "H"}
        assert graph in lc_orbit(CODE_GRAPH)

    def test_graph_input_is_fixed_point(self):
        gens = graph_generators(K4)
        q, r, graph = find_graph_equivalence(gens)
        assert q.is_identity()
        assert r.matrix.row_bits == tuple(1 << i for i in range(4))
        assert graph == K4

    def test_random_round_trips(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_graph(rng, 4)
            scramble = random_local_clifford(rng, 4)
            source = apply_to_generators(scramble, graph_generators(g))
            q, r, recovered = find_graph_equivalence(source)
            mapped = apply_to_generators(q, recombine(source, r))
            assert mapped.generators == graph_generators(recovered).generators
            # recovered graph describes the same state up to local maps
            assert recovered in lc_orbit(g)


def naive_find_graph_equivalence(s):
    """Graph form by block algebra on the 2N x N generator matrix: letter
    swaps on the qubits outside a greedy row basis of the X block (lowest
    qubit first) make that block invertible; its inverse is the
    recombination, the Z block times it is the adjacency matrix, and
    X <-> Y maps clear the diagonal."""
    n = s.n_qubits
    blocks = naive_binary_matrix(s).row_bits
    z_rows = list(blocks[:n])
    x_rows = list(blocks[n:])
    basis_rows = []
    for mu in range(n):
        candidate = [x_rows[nu] for nu in basis_rows] + [x_rows[mu]]
        if rows_rank(candidate) > len(basis_rows):
            basis_rows.append(mu)
    swap_qubits = [mu for mu in range(n) if mu not in basis_rows]
    for mu in swap_qubits:
        z_rows[mu], x_rows[mu] = x_rows[mu], z_rows[mu]
    r_matrix = naive_invert_mod2(BitMatrix(n, n, tuple(x_rows)))
    adjacency = list((BitMatrix(n, n, tuple(z_rows)) @ r_matrix).row_bits)
    names = ["H" if mu in swap_qubits else "I" for mu in range(n)]
    for mu in range(n):
        if (adjacency[mu] >> mu) & 1:
            adjacency[mu] ^= 1 << mu
            names[mu] = {"I": "S", "H": "SH"}[names[mu]]
    # R is column-convention in the block algebra; recombination rows are
    # row-convention, so transpose
    return (
        LocalClifford.from_names(names),
        RecombinationMatrix(r_matrix.transpose()),
        Graph(n, tuple(adjacency)),
    )


def equivalence_cases():
    yield "color_code_7", build_color_code()
    for n in range(7, 11):
        yield f"ring{n}", ring_group(n).generator_set
    for seed in range(1200):
        rng = random.Random(seed)
        n = 2 + seed % 8
        state = random_stabilizer_set(rng, n)
        yield f"random{seed}", state
        yield f"recombined{seed}", recombine(state, random_nonsingular(rng, n))


class TestGraphEquivalenceMatchesBlockAlgebra:
    """``find_graph_equivalence`` reduces the rows [X | Z | e_i] once; the
    block algebra ``naive_find_graph_equivalence`` (transpose, inverse,
    product, transpose) is its oracle."""

    def test_same_letter_maps_recombination_and_graph(self):
        checked = 0
        for name, state in equivalence_cases():
            q, r, graph = find_graph_equivalence(state)
            nq, nr, ngraph = naive_find_graph_equivalence(state)
            assert q.to_text() == nq.to_text(), name
            assert r.matrix == nr.matrix, name
            assert graph == ngraph, name
            checked += 1
        assert checked == 2405

    def test_cases_need_swaps_phase_maps_and_recombinations(self):
        # the cases exercise letter swaps, X <-> Y maps and recombinations
        # that are not symmetric, so leaving R untransposed changes them.
        # No swapped qubit needs an X <-> Y map: its X row is a sum of
        # earlier basis qubits' rows, which all vanish on its reduced row.
        names = set()
        asymmetric = 0
        for _, state in itertools.islice(equivalence_cases(), 400):
            q, r, _ = find_graph_equivalence(state)
            names.update(c.name for c in q.per_qubit)
            asymmetric += r.matrix != r.matrix.transpose()
        assert names == {"I", "H", "S"}
        assert asymmetric > 100


class TestLocalSymmetries:
    def test_identity_always_present(self):
        sym = find_local_symmetries(GeneratorSet.from_texts(["XX", "ZZ"]))
        assert any(q.is_identity() for q in sym)

    def test_two_qubit_example_matches_brute_force(self):
        gens = GeneratorSet.from_texts(["XX", "ZZ"])
        group = span_group(gens)
        expected = []
        for pair in itertools.product(SINGLE_QUBIT_CLIFFORDS, repeat=2):
            q = LocalClifford(pair)
            if all(apply(q, e) in group for e in group.elements):
                expected.append(q.to_text())
        sym = find_local_symmetries(gens)
        assert sorted(q.to_text() for q in sym) == sorted(expected)
        assert "H,H" in expected

    def test_color_code_contains_letter_rotation(self):
        # Z <-> Y on every qubit maps the code group onto itself
        sym = find_local_symmetries(build_color_code())
        texts = {q.to_text() for q in sym}
        assert ",".join(["HSH"] * 7) in texts
        assert ",".join(["I"] * 7) in texts

    def test_symmetries_map_group_onto_itself(self):
        gens = build_color_code()
        group = span_group(gens)
        key = basis_key(group.elements)
        sym = find_local_symmetries(gens)
        rng = random.Random(53)
        for q in rng.sample(sym, min(10, len(sym))):
            assert basis_key([apply(q, e) for e in group.elements]) == key

    def test_closed_under_composition(self):
        gens = GeneratorSet.from_texts(["XXX", "ZZI", "IZZ"])
        sym = find_local_symmetries(gens)
        texts = {q.to_text() for q in sym}
        rng = random.Random(59)
        for _ in range(30):
            a, b = rng.choice(sym), rng.choice(sym)
            assert a.compose(b).to_text() in texts


def naive_local_symmetries(s):
    """Oracle: the 6^N scan over per-qubit letter maps, pruned qubit by
    qubit; a partial assignment survives only while every generator image,
    restricted to the assigned qubits, matches the restriction of some
    group element."""
    n = s.n_qubits
    group = span_group(s)
    prefix_sets = []
    for k in range(1, n + 1):
        mask = (1 << k) - 1
        prefix_sets.append(
            {(e.z_bits & mask, e.x_bits & mask) for e in group.elements}
        )
    gens = s.generators
    found = []

    def extend(depth, images, chosen):
        if depth == n:
            found.append(LocalClifford(tuple(chosen)))
            return
        mask = (2 << depth) - 1
        for q in SINGLE_QUBIT_CLIFFORDS:
            new_images = []
            for g, (z, x) in zip(gens, images):
                zb = (g.z_bits >> depth) & 1
                xb = (g.x_bits >> depth) & 1
                z |= ((q.a & zb) ^ (q.b & xb)) << depth
                x |= ((q.c & zb) ^ (q.d & xb)) << depth
                if (z & mask, x & mask) not in prefix_sets[depth]:
                    break
                new_images.append((z, x))
            else:
                chosen.append(q)
                extend(depth + 1, new_images, chosen)
                chosen.pop()

    extend(0, [(0, 0)] * len(gens), [])
    return found


def benchmark_state(graph_seed, scramble, n):
    """The benchmark's random state: the recipe's graph for ``graph_seed``
    under the letter maps of ``scramble`` (0 is the recipe's own)."""
    rng = random.Random(graph_seed)
    letters = random_local_clifford(rng, n)
    graph = random_graph(rng, n)
    if scramble:
        letters = random_local_clifford(
            random.Random(f"scramble:{graph_seed}:{scramble}"), n
        )
    return apply_to_generators(letters, graph_generators(graph))


def named_graph(name, n):
    edges = {
        "edgeless": [],
        "star": [(1, k) for k in range(2, n + 1)],
        "complete": list(itertools.combinations(range(1, n + 1), 2)),
        "matching": [(k, k + 1) for k in range(1, n, 2)],
        "ring": [(k, k % n + 1) for k in range(1, n + 1)],
    }[name]
    return graph_generators(Graph.from_edges(n, edges))


def symmetry_texts(symmetries):
    texts = {q.to_text() for q in symmetries}
    assert len(texts) == len(symmetries)
    return texts


class TestSymmetrySolveMatchesScan:
    """``find_local_symmetries`` solves one GF(2) system on the graph form;
    the backtracking scan ``naive_local_symmetries`` is its oracle."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_states(self, n):
        rng = random.Random(1000 + n)
        for _ in range(60):
            s = random_stabilizer_set(rng, n)
            assert symmetry_texts(find_local_symmetries(s)) == symmetry_texts(
                naive_local_symmetries(s)
            )

    def test_color_code(self):
        s = build_color_code()
        assert symmetry_texts(find_local_symmetries(s)) == symmetry_texts(
            naive_local_symmetries(s)
        )

    @pytest.mark.parametrize("graph_seed", range(4))
    def test_benchmark_states(self, graph_seed):
        for scramble in range(8):
            s = benchmark_state(graph_seed, scramble, 8)
            assert symmetry_texts(find_local_symmetries(s)) == symmetry_texts(
                naive_local_symmetries(s)
            )

    @pytest.mark.parametrize("name", ["edgeless", "star", "complete", "matching"])
    def test_symmetric_graphs(self, name):
        s = named_graph(name, 8)
        assert symmetry_texts(find_local_symmetries(s)) == symmetry_texts(
            naive_local_symmetries(s)
        )


class TestSymmetriesFromOneEquivalence:
    """The graph census solves for the symmetries on the graph form it has
    already found; the list is the one ``find_local_symmetries`` returns."""

    # (count, sha256 of the symmetry texts in order) before the census
    # shared its graph form with the solve
    LISTS = {
        "color_code_7": (2, "ee6868922042fe6e9cc66aecc92ddff5622352b19fce48eeedc83523d67e1096"),
        0: (2, "c29a0faade2f0f1f4a0e989f6a3d65885ff5185232c697e6b9ed3d4c137e440e"),
        1: (1, "542ac53390c9677a05ddaf36e6939c529728c7c567807bf36fd384f2529239f8"),
        2: (8, "a313ee5a6e268f37783bad38874405e6471e920766bddff957029b496db10b31"),
        3: (4, "b44dc171ef5623d3de6d451d7c56742f8ac42df55f225c26d5db3a164e31585f"),
    }

    @pytest.mark.parametrize("state", ["color_code_7", 0, 1, 2, 3])
    def test_symmetry_list_unchanged(self, state, monkeypatch):
        if state == "color_code_7":
            s = build_color_code()
        else:
            s = benchmark_state(state, 0, 8)
        texts = [q.to_text() for q in find_local_symmetries(s)]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert (len(texts), digest) == self.LISTS[state]

        equivalences = []
        solved = []
        find = witnesses.find_graph_equivalence
        solve = witnesses._local_symmetries

        def counted_find(s):
            equivalences.append(None)
            return find(s)

        def recorded_solve(q_le, graph):
            solved.append(solve(q_le, graph))
            return solved[-1]

        monkeypatch.setattr(witnesses, "find_graph_equivalence", counted_find)
        monkeypatch.setattr(witnesses, "_local_symmetries", recorded_solve)
        enumerate_graph_based(s)
        assert len(equivalences) == 1
        [symmetries] = solved
        assert [q.to_text() for q in symmetries] == texts


class TestSymmetriesAtNine:
    """Past the old scan's reach: N = 9 checked against the group itself."""

    @pytest.mark.parametrize(
        "name,count",
        [("edgeless", 512), ("star", 256), ("matching", 2592), ("ring", 1)],
    )
    def test_maps_send_group_onto_itself(self, name, count):
        s = named_graph(name, 9)
        sym = find_local_symmetries(s)
        assert len(symmetry_texts(sym)) == count
        group = span_group(s)
        members = set(group.elements)
        # a letter map is a bijection, so generator images in the group
        # span all of it
        for q in sym:
            assert all(apply(q, g) in members for g in s.generators)
        key = basis_key(group.elements)
        for q in random.Random(909).sample(sym, min(8, len(sym))):
            assert basis_key([apply(q, e) for e in group.elements]) == key

    def test_ring9_graph_census_inside_direct_census(self):
        group = ring_group(9)
        graph_based = enumerate_graph_based(group.generator_set)
        direct = direct_census(group)
        assert sum(map(len, graph_based.values())) == 38301
        assert sum(map(len, direct.values())) == 74640
        for omega, specs in graph_based.items():
            assert set(specs) <= set(direct[omega])
