import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

from stabwitness.binary import BitMatrix, rank_mod2
from stabwitness.graphs import (
    MAX_GRAPH_VERTICES,
    CapacityError,
    Graph,
    LcOrbit,
    _connected_mask,
    graph_from_json,
    graph_generators,
    graph_to_json,
    is_connected_within,
    lc_orbit,
    local_complement,
    reduced_generator_subset,
)

from test_groups import naive_binary_matrix

STAR4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
K4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])

# Graph locally equivalent to the seven-qubit color code after Hadamards
# on qubits 1, 5, and 7.
CODE_GRAPH = Graph.from_edges(
    7,
    [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (3, 7), (4, 7), (5, 6), (6, 7)],
)


def bfs_components(g: Graph) -> int:
    seen = set()
    count = 0
    for start in range(1, g.n_vertices + 1):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(g.neighbors(v))
    return count


def naive_incidence_matrix(g: Graph) -> BitMatrix:
    """N x C(N,2) edge-membership matrix over all vertex pairs, the rank
    form of connectivity the paper states.

    Column order is lexicographic over pairs (mu, nu) with mu < nu; columns
    of absent edges are zero, so the rank is unaffected by the convention.
    """
    n = g.n_vertices
    rows = [0] * n
    for col, (mu, nu) in enumerate(itertools.combinations(range(n), 2)):
        if (g.adjacency[mu] >> nu) & 1:
            rows[mu] |= 1 << col
            rows[nu] |= 1 << col
    return BitMatrix(n, n * (n - 1) // 2, tuple(rows))


def naive_reduced_incidence_matrix(g: Graph, omega) -> BitMatrix:
    """Incidence matrix of the reduced graph on a 1-based vertex subset:
    the induced subgraph, its vertices relabeled 1..n in sorted order."""
    verts = sorted(set(omega))
    edges = [
        (i + 1, j + 1)
        for (i, mu), (j, nu) in itertools.combinations(enumerate(verts), 2)
        if (g.adjacency[mu - 1] >> (nu - 1)) & 1
    ]
    return naive_incidence_matrix(Graph.from_edges(len(verts), edges))


def naive_connected_components(g: Graph) -> int:
    """Component count via the incidence rank: m = N - rank(M_E)."""
    return g.n_vertices - rank_mod2(naive_incidence_matrix(g))


def random_graph(rng, n):
    edges = [
        (mu, nu)
        for mu in range(1, n + 1)
        for nu in range(mu + 1, n + 1)
        if rng.random() < 0.4
    ]
    return Graph.from_edges(n, edges)


class TestGraphBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b10))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b00))  # self loop
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_edges_round_trip(self):
        assert STAR4.edges() == [(1, 2), (1, 3), (1, 4)]
        assert Graph.from_edges(4, STAR4.edges()) == STAR4

    def test_json_round_trip(self):
        assert graph_from_json(graph_to_json(CODE_GRAPH)) == CODE_GRAPH
        with pytest.raises(ValueError):
            graph_from_json("[]")

    @pytest.mark.parametrize("n", [MAX_GRAPH_VERTICES + 1, 10**9])
    def test_json_refuses_oversized_n_before_building(self, n, monkeypatch):
        def build(cls, n_vertices, edges):
            raise AssertionError("built a graph past the cap")

        monkeypatch.setattr(Graph, "from_edges", classmethod(build))
        with pytest.raises(ValueError) as err:
            graph_from_json(json.dumps({"n": n, "edges": []}))
        assert str(err.value) == (
            f'graph JSON field "n" is {n}; '
            f"the cap is {MAX_GRAPH_VERTICES} vertices"
        )


class TestGraphGenerators:
    def test_edgeless(self):
        gens = graph_generators(Graph.edgeless(3)).generators
        assert [g.to_text() for g in gens] == ["XII", "IXI", "IIX"]

    def test_star_generators(self):
        gens = graph_generators(STAR4).generators
        assert [g.to_text() for g in gens] == ["XZZZ", "ZXII", "ZIXI", "ZIIX"]

    def test_binary_blocks_are_adjacency_and_identity(self):
        m = naive_binary_matrix(graph_generators(CODE_GRAPH))
        n = CODE_GRAPH.n_vertices
        for mu in range(n):
            for i in range(n):
                assert m.entry(mu, i) == (CODE_GRAPH.adjacency[mu] >> i) & 1
                assert m.entry(mu + n, i) == (1 if mu == i else 0)


class TestConnectivity:
    def test_star_is_connected(self):
        assert is_connected_within(STAR4, (1, 2, 3, 4))
        assert rank_mod2(naive_incidence_matrix(STAR4)) == 3

    def test_edgeless_components(self):
        assert naive_connected_components(Graph.edgeless(5)) == 5
        assert not is_connected_within(Graph.edgeless(5), (1, 2, 3, 4, 5))

    def test_random_graphs_match_bfs(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_graph(rng, 8)
            m = bfs_components(g)
            assert naive_connected_components(g) == m
            assert is_connected_within(g, range(1, 9)) == (m == 1)

    def test_code_graph_subsets(self):
        assert is_connected_within(CODE_GRAPH, (5, 6))
        assert not is_connected_within(CODE_GRAPH, (2, 3, 4))

    def test_edgeless_never_connected(self):
        assert not is_connected_within(Graph.edgeless(4), (1, 2))

    def test_small_omega_rejected(self):
        with pytest.raises(ValueError):
            is_connected_within(STAR4, (2,))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            is_connected_within(STAR4, (1, 5))

    def test_flood_fill_matches_incidence_rank(self):
        rng = random.Random(23)
        for _ in range(200):
            g = random_graph(rng, 7)
            k = rng.randint(2, 6)
            omega = sorted(rng.sample(range(1, 8), k))
            mask = 0
            for q in omega:
                mask |= 1 << (q - 1)
            by_rank = rank_mod2(naive_reduced_incidence_matrix(g, omega)) == k - 1
            assert _connected_mask(g.adjacency, mask) == by_rank
            assert is_connected_within(g, omega) == by_rank


class TestLocalComplement:
    def test_star_becomes_complete(self):
        assert local_complement(STAR4, 1) == K4

    def test_isolated_vertex_unchanged(self):
        g = Graph.from_edges(3, [(1, 2)])
        assert local_complement(g, 3) == g

    def test_involution(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_graph(rng, 7)
            v = rng.randint(1, 7)
            assert local_complement(local_complement(g, v), v) == g

    def test_matches_edge_toggling(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 9)
            g = random_graph(rng, n)
            v = rng.randint(1, n)
            assert local_complement(g, v) == naive_local_complement(g, v)

    @pytest.mark.parametrize("vertex", [True, False, 1.0, "1", None])
    def test_vertex_that_is_not_an_int_is_refused(self, vertex):
        # True would complement vertex 1; a float or str raised a bare
        # TypeError from the range comparison
        with pytest.raises(ValueError, match="vertex must be an integer"):
            local_complement(STAR4, vertex)
        with pytest.raises(ValueError, match="vertex must be an integer"):
            STAR4.neighbors(vertex)

    @pytest.mark.parametrize("vertex", [0, 5, -1])
    def test_vertex_out_of_range_keeps_its_index_error(self, vertex):
        with pytest.raises(IndexError, match=f"vertex {vertex} out of range 1..4"):
            local_complement(STAR4, vertex)


def naive_local_complement(g: Graph, vertex: int) -> Graph:
    """Toggle each edge between two neighbors of ``vertex``, on the edge
    list."""
    edges = set(g.edges())
    hood = g.neighbors(vertex)
    for i, mu in enumerate(hood):
        for nu in hood[i + 1 :]:
            edges ^= {(mu, nu)}
    return Graph.from_edges(g.n_vertices, edges)


def naive_lc_orbit(g: Graph) -> LcOrbit:
    """Breadth-first closure that builds a Graph for every complement, each
    by ``naive_local_complement``."""
    seen = {g.adjacency: ()}
    order = [g]
    queue = deque([g])
    while queue:
        current = queue.popleft()
        seq = seen[current.adjacency]
        for vertex in range(1, g.n_vertices + 1):
            nxt = naive_local_complement(current, vertex)
            if nxt.adjacency not in seen:
                seen[nxt.adjacency] = seq + (vertex,)
                order.append(nxt)
                queue.append(nxt)
    return LcOrbit(tuple(order), tuple(seen[h.adjacency] for h in order))


def ring(n: int) -> Graph:
    return Graph.from_edges(n, [(mu, mu % n + 1) for mu in range(1, n + 1)])


# rings of 5..8 vertices and random graphs of 5..8, the graph_random8
# workload's size included
ORBIT_SEEDS = [(f"ring{n}", ring(n)) for n in range(5, 9)] + [
    (f"random{n}_{k}", random_graph(random.Random(10 * n + k), n))
    for n in (5, 6, 7, 8)
    for k in range(2)
]


class TestOrbit:
    def test_order_and_sequences_match_naive_closure(self):
        rng = random.Random(43)
        graphs = [PATH3, STAR4, CODE_GRAPH] + [
            random_graph(rng, n) for n in (5, 6, 7) for _ in range(3)
        ]
        for g in graphs + [g for _, g in ORBIT_SEEDS]:
            assert lc_orbit(g) == naive_lc_orbit(g)

    @pytest.mark.parametrize(
        "g", [g for _, g in ORBIT_SEEDS], ids=[i for i, _ in ORBIT_SEEDS]
    )
    def test_members_are_checked_graphs(self, g):
        # members after the seed skip Graph.__post_init__; each must be the
        # graph the checked constructor builds from its rows, field for field
        orbit = lc_orbit(g)
        assert len(orbit) > 1
        for member in orbit.graphs:
            checked = Graph(member.n_vertices, member.adjacency)
            assert type(member) is Graph
            assert member == checked
            assert hash(member) == hash(checked)
            assert list(vars(member).items()) == list(vars(checked).items())

    def test_single_edge_fixed(self):
        g = Graph.from_edges(2, [(1, 2)])
        orbit = lc_orbit(g)
        assert len(orbit) == 1
        assert orbit.graphs == (g,)

    def test_path_orbit_contains_triangle(self):
        orbit = lc_orbit(PATH3)
        assert TRIANGLE in orbit
        assert len(orbit) == 4  # three stars plus the triangle

    def test_sequences_reproduce_members(self):
        orbit = lc_orbit(CODE_GRAPH)
        rng = random.Random(31)
        for g, seq in rng.sample(list(orbit.items()), 12):
            current = CODE_GRAPH
            for v in seq:
                current = local_complement(current, v)
            assert current == g

    def test_orbit_same_from_any_member(self):
        orbit = lc_orbit(PATH3)
        for g in orbit.graphs:
            assert set(h.adjacency for h in lc_orbit(g).graphs) == set(
                h.adjacency for h in orbit.graphs
            )

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            lc_orbit(CODE_GRAPH, max_size=3)

    @pytest.mark.parametrize("max_size", [0, -3])
    def test_cap_below_one_is_refused(self, max_size):
        # the seed alone is an orbit of one member, which such a cap forbids
        with pytest.raises(ValueError, match=f"max_size must be at least 1, got {max_size}"):
            lc_orbit(Graph.edgeless(1), max_size=max_size)

    @pytest.mark.parametrize("max_size", ["3", True, 2.5, None])
    def test_cap_that_is_not_an_int_is_refused(self, max_size):
        # "3" raised a bare TypeError, and True and 2.5 were taken as caps
        with pytest.raises(ValueError, match="max_size must be an integer"):
            lc_orbit(CODE_GRAPH, max_size=max_size)

    def test_code_graph_orbit_size_regression(self):
        # labeled-orbit size for the color-code graph; derived once from the
        # breadth-first closure and pinned as a regression value
        orbit = lc_orbit(CODE_GRAPH)
        assert len(orbit) == 532
        # closure is independent of the starting member
        other = lc_orbit(orbit.graphs[-1])
        assert set(g.adjacency for g in other.graphs) == set(
            g.adjacency for g in orbit.graphs
        )


graphs_st = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.builds(
        lambda edges: Graph.from_edges(n, edges),
        st.lists(
            st.tuples(
                st.integers(1, n), st.integers(1, n)
            ).filter(lambda e: e[0] != e[1]),
            max_size=n * n,
        ),
    )
)


class TestGraphProperties:
    @given(graphs_st, st.data())
    def test_complement_involution_and_validity(self, g, data):
        v = data.draw(st.integers(1, g.n_vertices))
        once = local_complement(g, v)
        # construction re-validates symmetry and the empty diagonal
        assert Graph(once.n_vertices, once.adjacency) == once
        assert local_complement(once, v) == g

    @given(graphs_st)
    def test_component_count_in_range(self, g):
        m = naive_connected_components(g)
        assert 1 <= m <= g.n_vertices
        assert (m == g.n_vertices) == all(a == 0 for a in g.adjacency)
        assert is_connected_within(g, range(1, g.n_vertices + 1)) == (m == 1)


class TestReducedSubset:
    def test_full_omega_is_generator_set(self):
        subset = reduced_generator_subset(STAR4, (1, 2, 3, 4))
        assert subset.stabilizers == graph_generators(STAR4).generators

    def test_restriction_matches_reduced_graph_generators(self):
        # complete graph on {2,3,4}: restriction of the subset onto omega
        # equals the generators of the reduced graph relabeled to omega
        omega = (2, 3, 4)
        subset = reduced_generator_subset(K4, omega)
        reduced = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        expected = [g.to_text() for g in graph_generators(reduced).generators]
        restricted = [
            "".join(p.letter_at(q) for q in omega) for p in subset.stabilizers
        ]
        assert restricted == expected

    def test_reduced_incidence_rank(self):
        m = naive_reduced_incidence_matrix(K4, (2, 3, 4))
        assert (m.n_rows, m.n_cols) == (3, 3)
        assert rank_mod2(m) == 2
        assert is_connected_within(K4, (2, 3, 4))
