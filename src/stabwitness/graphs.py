"""Graphs underlying graph states: complementation orbits and connectivity.

Vertices are labeled 1..N to match the qubit labels used everywhere else.
The adjacency matrix is stored one bit-packed neighbor mask per vertex.
Connectivity of a vertex subset is decided through the rank of the reduced
incidence matrix: a graph on n vertices is connected within the subset iff
that rank is n - 1.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .binary import BitMatrix, PauliOperator, rank_mod2
from .groups import GeneratorSet, GeneratorSubset

__all__ = [
    "Graph",
    "CapacityError",
    "LcOrbit",
    "graph_generators",
    "incidence_matrix",
    "reduced_incidence_matrix",
    "connected_components",
    "is_connected_within",
    "local_complement",
    "lc_orbit",
    "reduced_generator_subset",
    "graph_to_json",
    "graph_from_json",
]


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured size cap."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph as a symmetric, zero-diagonal adjacency matrix."""

    n_vertices: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n_vertices
        if n <= 0:
            raise ValueError("graph needs at least one vertex")
        if len(self.adjacency) != n:
            raise ValueError("adjacency row count mismatch")
        limit = 1 << n
        for mu, row in enumerate(self.adjacency):
            if not 0 <= row < limit:
                raise ValueError("adjacency row out of range")
            if (row >> mu) & 1:
                raise ValueError(f"vertex {mu + 1} has a self-loop")
        for mu in range(n):
            for nu in range(mu + 1, n):
                if ((self.adjacency[mu] >> nu) & 1) != ((self.adjacency[nu] >> mu) & 1):
                    raise ValueError("adjacency matrix is not symmetric")

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[Sequence[int]]) -> "Graph":
        rows = [0] * n_vertices
        for edge in edges:
            mu, nu = edge
            if not (1 <= mu <= n_vertices and 1 <= nu <= n_vertices):
                raise ValueError(f"edge {edge} outside 1..{n_vertices}")
            if mu == nu:
                raise ValueError(f"self-loop at vertex {mu}")
            rows[mu - 1] |= 1 << (nu - 1)
            rows[nu - 1] |= 1 << (mu - 1)
        return cls(n_vertices, tuple(rows))

    @classmethod
    def edgeless(cls, n_vertices: int) -> "Graph":
        return cls(n_vertices, (0,) * n_vertices)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted 1-based edge list (mu < nu)."""
        out = []
        for mu in range(self.n_vertices):
            row = self.adjacency[mu] >> (mu + 1)
            nu = mu + 1
            while row:
                if row & 1:
                    out.append((mu + 1, nu + 1))
                row >>= 1
                nu += 1
        return out

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        self._check_vertex(vertex)
        row = self.adjacency[vertex - 1]
        return tuple(v for v in range(1, self.n_vertices + 1) if (row >> (v - 1)) & 1)

    def has_edge(self, mu: int, nu: int) -> bool:
        self._check_vertex(mu)
        self._check_vertex(nu)
        return bool((self.adjacency[mu - 1] >> (nu - 1)) & 1)

    def adjacency_matrix(self) -> BitMatrix:
        return BitMatrix(self.n_vertices, self.n_vertices, self.adjacency)

    def _check_vertex(self, vertex: int) -> None:
        if not 1 <= vertex <= self.n_vertices:
            raise IndexError(
                f"vertex {vertex} out of range 1..{self.n_vertices}"
            )


def graph_generators(g: Graph) -> GeneratorSet:
    """One generator per vertex: X there, Z on each of its neighbors."""
    gens = tuple(
        PauliOperator(g.n_vertices, g.adjacency[mu], 1 << mu)
        for mu in range(g.n_vertices)
    )
    labels = tuple(f"g_{mu + 1}" for mu in range(g.n_vertices))
    return GeneratorSet(g.n_vertices, gens, labels)


def incidence_matrix(g: Graph) -> BitMatrix:
    """N x C(N,2) edge-membership matrix over all vertex pairs.

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


def reduced_incidence_matrix(g: Graph, omega: Sequence[int]) -> BitMatrix:
    """Incidence matrix of the reduced graph on a 1-based vertex subset:
    the induced subgraph, its vertices relabeled 1..n in sorted order."""
    verts = sorted(set(omega))
    for v in verts:
        g._check_vertex(v)
    edges = [
        (i + 1, j + 1)
        for (i, mu), (j, nu) in itertools.combinations(enumerate(verts), 2)
        if g.has_edge(mu, nu)
    ]
    return incidence_matrix(Graph.from_edges(len(verts), edges))


def connected_components(g: Graph) -> int:
    """Component count via the incidence rank: m = N - rank(M_E)."""
    return g.n_vertices - rank_mod2(incidence_matrix(g))


def is_connected_within(g: Graph, omega: Sequence[int]) -> bool:
    """True iff the reduced graph on omega (edges inside it) is connected."""
    verts = sorted(set(omega))
    if len(verts) < 2:
        raise ValueError("omega needs at least two vertices")
    return rank_mod2(reduced_incidence_matrix(g, verts)) == len(verts) - 1


def _connected_mask(adjacency: Sequence[int], mask: int) -> bool:
    """Flood-fill connectivity of the induced subgraph on a vertex bit mask."""
    if mask == 0:
        return False
    start = mask & -mask
    reached = start
    frontier = start
    while frontier:
        grown = reached
        rest = frontier
        while rest:
            low = rest & -rest
            grown |= adjacency[low.bit_length() - 1] & mask
            rest ^= low
        frontier = grown & ~reached
        reached = grown
    return reached == mask


def local_complement(g: Graph, vertex: int) -> Graph:
    """Toggle every edge between two neighbors of the given vertex."""
    g._check_vertex(vertex)
    hood = g.adjacency[vertex - 1]
    rows = list(g.adjacency)
    rest = hood
    while rest:
        low = rest & -rest
        mu = low.bit_length() - 1
        rows[mu] ^= hood & ~low
        rest ^= low
    return Graph(g.n_vertices, tuple(rows))


@dataclass(frozen=True)
class LcOrbit:
    """Closure of a graph under local complementation at every vertex.

    ``graphs`` is in breadth-first discovery order starting from the seed;
    ``sequences`` holds, per member, one vertex sequence that reproduces it
    from the seed by successive complementations.
    """

    graphs: tuple[Graph, ...]
    sequences: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.graphs)

    def __contains__(self, g: Graph) -> bool:
        return g in set(self.graphs)

    def items(self):
        return zip(self.graphs, self.sequences)


def lc_orbit(g: Graph, max_size: int = 10**6) -> LcOrbit:
    """Breadth-first fixpoint of local complementation over labeled graphs."""
    seen = {g.adjacency: ()}
    order = [g]
    queue = deque([g])
    while queue:
        current = queue.popleft()
        seq = seen[current.adjacency]
        for vertex in range(1, g.n_vertices + 1):
            nxt = local_complement(current, vertex)
            if nxt.adjacency in seen:
                continue
            if len(seen) >= max_size:
                raise CapacityError(
                    f"local-complementation orbit exceeds {max_size} graphs"
                )
            seen[nxt.adjacency] = seq + (vertex,)
            order.append(nxt)
            queue.append(nxt)
    return LcOrbit(tuple(order), tuple(seen[h.adjacency] for h in order))


def reduced_generator_subset(g: Graph, omega: Sequence[int]) -> GeneratorSubset:
    """The graph-state generators of the vertices in omega, packaged with it."""
    verts = tuple(sorted(set(omega)))
    gens = graph_generators(g).generators
    return GeneratorSubset(verts, tuple(gens[v - 1] for v in verts))


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.n_vertices, "edges": [list(e) for e in g.edges()]}
    )


def graph_from_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError('graph JSON must carry "n" and "edges"')
    return Graph.from_edges(payload["n"], payload["edges"])
