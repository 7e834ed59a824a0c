"""Graphs underlying graph states: complementation orbits and connectivity.

Vertices are labeled 1..N to match the qubit labels used everywhere else.
The adjacency matrix is stored one bit-packed neighbor mask per vertex.
The orbit walk packs those rows into one N^2-bit int, so complementing at a
vertex is one XOR with a mask read off its neighbourhood (``_toggle``), the
step ``local_complement`` takes too.  Connectivity of a vertex subset is
decided by one flood fill over the neighbor masks.  The incidence-matrix
form the paper states, a graph on n vertices being connected iff the rank
of its incidence matrix is n - 1, lives in the tests as the oracle of that
flood fill.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .binary import PauliOperator
from .groups import GeneratorSet, GeneratorSubset, _qubit_mask

__all__ = [
    "Graph",
    "CapacityError",
    "LcOrbit",
    "graph_generators",
    "is_connected_within",
    "local_complement",
    "lc_orbit",
    "reduced_generator_subset",
    "graph_to_json",
    "graph_from_json",
]


# The largest vertex count ``graph_from_json`` accepts.  ``Graph`` checks
# symmetry over every vertex pair, which takes 0.04-0.06 s at this size.
MAX_GRAPH_VERTICES = 1000


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

    def _check_vertex(self, vertex: int) -> None:
        if isinstance(vertex, bool) or not isinstance(vertex, int):
            raise ValueError(f"vertex must be an integer, got {vertex!r}")
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


def is_connected_within(g: Graph, omega: Sequence[int]) -> bool:
    """True iff the reduced graph on omega (edges inside it) is connected."""
    verts = sorted(set(omega))
    if len(verts) < 2:
        raise ValueError("omega needs at least two vertices")
    for v in verts:
        g._check_vertex(v)
    return _connected_mask(g.adjacency, _qubit_mask(verts))


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


def _packed(adjacency: Sequence[int], n_vertices: int) -> int:
    """The adjacency rows as one N^2-bit int: row mu in bits mu*N..mu*N + N - 1."""
    packed = 0
    for mu, row in enumerate(adjacency):
        packed |= row << mu * n_vertices
    return packed


def _unpacked(packed: int, n_vertices: int) -> tuple[int, ...]:
    """The adjacency rows of a packed adjacency int."""
    row_mask = (1 << n_vertices) - 1
    shifts = range(0, n_vertices * n_vertices, n_vertices)
    return tuple(packed >> shift & row_mask for shift in shifts)


def _toggle(hood: int, n_vertices: int) -> int:
    """The mask whose XOR complements a packed adjacency at a vertex with
    neighbour mask ``hood``: each neighbour's row gains every other
    neighbour.  The vertex's own row and column do not change."""
    toggle = 0
    rest = hood
    while rest:
        low = rest & -rest
        toggle |= (hood ^ low) << (low.bit_length() - 1) * n_vertices
        rest ^= low
    return toggle


def local_complement(g: Graph, vertex: int) -> Graph:
    """Toggle every edge between two neighbors of the given vertex."""
    g._check_vertex(vertex)
    n = g.n_vertices
    packed = _packed(g.adjacency, n) ^ _toggle(g.adjacency[vertex - 1], n)
    return Graph(n, _unpacked(packed, n))


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
    """Breadth-first fixpoint of local complementation over labeled graphs.

    The walk holds each member as one packed N^2-bit adjacency int
    (``_packed``).  Complementing at a vertex is one XOR with the toggle
    mask of its neighbourhood (``_toggle``), kept per distinct
    neighbourhood, and complements are compared as ints.  A ``Graph`` is
    built only for a newly discovered member, and without
    ``Graph.__post_init__``'s O(N^2) check: complementing keeps a graph's
    rows symmetric, loop-free and in range, so each member is filled in
    field by field, in the order its ``__init__`` sets them.  ``max_size``
    caps the member count, the seed included, so it must be an int of at
    least 1.
    """
    if isinstance(max_size, bool) or not isinstance(max_size, int):
        raise ValueError(f"max_size must be an integer, got {max_size!r}")
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    new, put = object.__new__, object.__setattr__
    n_vertices = g.n_vertices
    row_mask = (1 << n_vertices) - 1
    shifts = range(0, n_vertices * n_vertices, n_vertices)
    toggles: dict[int, int] = {}
    queue = [_packed(g.adjacency, n_vertices)]
    seen = set(queue)
    order = [g]
    sequences: list[tuple[int, ...]] = [()]
    # the loop visits the members appended to the queue while it runs
    for current, seq in zip(queue, sequences):
        for vertex, shift in enumerate(shifts, 1):
            hood = current >> shift & row_mask
            toggle = toggles.get(hood)
            if toggle is None:
                toggle = toggles[hood] = _toggle(hood, n_vertices)
            nxt = current ^ toggle
            if nxt in seen:
                continue
            if len(seen) >= max_size:
                raise CapacityError(
                    f"local-complementation orbit exceeds {max_size} graphs"
                )
            seen.add(nxt)
            queue.append(nxt)
            sequences.append(seq + (vertex,))
            member = new(Graph)
            put(member, "n_vertices", n_vertices)
            put(member, "adjacency", _unpacked(nxt, n_vertices))
            order.append(member)
    return LcOrbit(tuple(order), tuple(sequences))


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
    n, edges = payload["n"], payload["edges"]
    if type(n) is not int:
        raise ValueError('graph JSON field "n" must be an integer')
    if n > MAX_GRAPH_VERTICES:
        raise ValueError(
            f'graph JSON field "n" is {n}; the cap is {MAX_GRAPH_VERTICES} vertices'
        )
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and [type(v) for v in e] == [int, int] for e in edges
    ):
        raise ValueError('graph JSON field "edges" must be a list of integer pairs')
    return Graph.from_edges(n, edges)
