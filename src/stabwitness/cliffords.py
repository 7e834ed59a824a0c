"""Phaseless local Clifford operators and the searches built on them.

A single-qubit Clifford, with phases discarded, is one of the six invertible
2x2 binary matrices acting on the (z, x) letter bits.  A local Clifford is
one such matrix per qubit; it preserves commutation, so applying it to a
generator set gives another generator set.  It is stored, besides its
per-qubit matrices, as two packed 2N-bit image rows (``binary.pauli_row``
layout): ``z_image`` holds on each qubit mu the image of the letter Z on
mu, and ``x_image`` the image of X.  A phaseless Pauli is a product of
single-qubit Z and X letters, so any packed row with Z block z and X block
x maps to

    (z_image & spread(z)) ^ (x_image & spread(x)),   spread(m) = (m << N) | m,

the images its letter bits select, multiplied together (``_map_row``).
This module also finds a graph generator set reachable from an arbitrary
generator set (letter swaps plus a recombination) and the local operations
that map a stabilizer group onto itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .binary import (
    BitMatrix,
    PauliOperator,
    pauli_from_row,
    pauli_row,
    rows_rank,
    rows_rref,
    solve_mod2,
)
from .groups import GeneratorSet, RecombinationMatrix, recombine
from .graphs import Graph, _check_label, graph_generators

__all__ = [
    "SingleQubitClifford",
    "LocalClifford",
    "SINGLE_QUBIT_CLIFFORDS",
    "apply",
    "apply_to_generators",
    "find_graph_equivalence",
    "find_local_symmetries",
]


@dataclass(frozen=True)
class SingleQubitClifford:
    """One of the six letter permutations as a 2x2 binary matrix (a b / c d).

    The matrix maps the letter bits by z' = a z + b x, x' = c z + d x
    (mod 2); non-singularity ad + bc = 1 makes it a letter bijection.
    """

    name: str
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if (self.a & self.d) ^ (self.b & self.c) != 1:
            raise ValueError(f"letter map {self.name} is singular")

    def compose(self, other: "SingleQubitClifford") -> "SingleQubitClifford":
        """Matrix product self @ other: apply ``other`` first."""
        a = (self.a & other.a) ^ (self.b & other.c)
        b = (self.a & other.b) ^ (self.b & other.d)
        c = (self.c & other.a) ^ (self.d & other.c)
        d = (self.c & other.b) ^ (self.d & other.d)
        return _BY_MATRIX[(a, b, c, d)]

    def inverse(self) -> "SingleQubitClifford":
        return _BY_MATRIX[(self.d, self.b, self.c, self.a)]


# The six classes, named by a representative decomposition into the Hadamard
# letter swap H (X <-> Z) and the phase-gate letter map S (X <-> Y).
SINGLE_QUBIT_CLIFFORDS = tuple(
    SingleQubitClifford(name, *mat)
    for name, mat in (
        ("I", (1, 0, 0, 1)),
        ("H", (0, 1, 1, 0)),      # X <-> Z
        ("S", (1, 1, 0, 1)),      # X <-> Y
        ("HS", (0, 1, 1, 1)),     # Z -> X -> Y -> Z
        ("SH", (1, 1, 1, 0)),     # Z -> Y -> X -> Z
        ("HSH", (1, 0, 1, 1)),    # Z <-> Y
    )
)

_BY_NAME = {c.name: c for c in SINGLE_QUBIT_CLIFFORDS}
_BY_MATRIX = {(c.a, c.b, c.c, c.d): c for c in SINGLE_QUBIT_CLIFFORDS}

_ID = _BY_NAME["I"]
_H = _BY_NAME["H"]
_S = _BY_NAME["S"]


@dataclass(frozen=True)
class LocalClifford:
    """A tensor product of single-qubit letter maps, one per qubit, and its
    two image rows ``z_image`` and ``x_image``, derived at construction."""

    per_qubit: tuple[SingleQubitClifford, ...]
    z_image: int = field(init=False, repr=False, compare=False)
    x_image: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.per_qubit:
            raise ValueError("local Clifford needs at least one qubit")
        n = len(self.per_qubit)
        z_image = x_image = 0
        for mu, q in enumerate(self.per_qubit):
            # (a b / c d) maps Z to (z, x) = (a, c) and X to (b, d)
            z_image |= (q.a << n | q.c) << mu
            x_image |= (q.b << n | q.d) << mu
        object.__setattr__(self, "z_image", z_image)
        object.__setattr__(self, "x_image", x_image)

    @classmethod
    def identity(cls, n_qubits: int) -> "LocalClifford":
        return cls((_ID,) * n_qubits)

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "LocalClifford":
        try:
            return cls(tuple(_BY_NAME[n] for n in names))
        except KeyError as exc:
            raise ValueError(f"unknown letter map {exc}") from None

    @classmethod
    def parse(cls, text: str) -> "LocalClifford":
        """Parse the comma-separated text form, e.g. "H,I,S,HS"."""
        return cls.from_names([t.strip() for t in text.split(",")])

    @classmethod
    def hadamards(cls, n_qubits: int, qubits: Iterable[int]) -> "LocalClifford":
        """Letter swaps X <-> Z on the given 1-based qubits."""
        maps = [_ID] * n_qubits
        for q in qubits:
            _check_label(q)
            if not 1 <= q <= n_qubits:
                raise IndexError(f"qubit {q} out of range 1..{n_qubits}")
            maps[q - 1] = _H
        return cls(tuple(maps))

    @property
    def n_qubits(self) -> int:
        return len(self.per_qubit)

    def to_text(self) -> str:
        return ",".join(q.name for q in self.per_qubit)

    def compose(self, other: "LocalClifford") -> "LocalClifford":
        """Apply ``other`` first, then ``self``."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("local Clifford sizes differ")
        return LocalClifford(
            tuple(a.compose(b) for a, b in zip(self.per_qubit, other.per_qubit))
        )

    def inverse(self) -> "LocalClifford":
        return LocalClifford(tuple(q.inverse() for q in self.per_qubit))

    def is_identity(self) -> bool:
        return all(q is _ID for q in self.per_qubit)


def _map_row(q: LocalClifford, row: int) -> int:
    """Apply the letter maps to a packed 2N-bit row: each of its Z and X
    letter bits selects that letter's image, and the images multiply."""
    n = len(q.per_qubit)
    z = row >> n
    x = row & ((1 << n) - 1)
    return (q.z_image & ((z << n) | z)) ^ (q.x_image & ((x << n) | x))


def apply(q: LocalClifford, p: PauliOperator) -> PauliOperator:
    """Apply the per-qubit letter maps to an operator."""
    if q.n_qubits != p.n_qubits:
        raise ValueError(
            f"operator on {p.n_qubits} qubits, map on {q.n_qubits}"
        )
    return pauli_from_row(_map_row(q, pauli_row(p)), p.n_qubits)


def apply_to_generators(q: LocalClifford, s: GeneratorSet) -> GeneratorSet:
    """Image of a generator set; commutation and independence are preserved."""
    return GeneratorSet(
        s.n_qubits, tuple(apply(q, g) for g in s.generators), s.labels
    )


def find_graph_equivalence(
    s: GeneratorSet,
) -> tuple[LocalClifford, RecombinationMatrix, Graph]:
    """Letter maps and a recombination turning a generator set into graph form.

    Returns (Q, R, graph) with apply(Q, recombine(s, R)) exactly equal to
    graph_generators(graph).  Qubit mu keeps its letters when it raises the
    rank of the generators' X blocks on qubits 1..mu + 1 (a greedy basis of
    the qubits, lowest first) and gets the letter swap X <-> Z otherwise;
    that makes the X block invertible.  One reduction of the rows
    [X_i | Z_i | e_i] then brings the X block to the identity, so reduced
    row v, counted from the bottom, is the product of the generators in its
    low N bits (row v of R) and has X block e_v.  Its Z block is v's
    adjacency row, with v's own bit set where the letter on v is Y, which
    an X <-> Y map clears.
    """
    n = s.n_qubits
    low = (1 << n) - 1
    rows = [pauli_row(g) for g in s.generators]
    maps = []
    rank = 0
    for mu in range(n):
        prefix_rank = rows_rank(row & ((2 << mu) - 1) for row in rows)
        maps.append(_ID if prefix_rank > rank else _H)
        rank = prefix_rank
    swaps = LocalClifford(tuple(maps))
    # the reduced rows [X | Z | R], bottom row first
    reduced = rows_rref(
        ((row & low) << 2 * n) | ((row >> n) << n) | (1 << i)
        for i, row in enumerate(_map_row(swaps, row) for row in rows)
    )[::-1]
    if any(r >> 2 * n != 1 << v for v, r in enumerate(reduced)):
        raise RuntimeError(
            "internal error: X-block not invertible after letter swaps"
        )

    adjacency = [(r >> n) & low for r in reduced]
    for mu in range(n):
        if (adjacency[mu] >> mu) & 1:
            adjacency[mu] ^= 1 << mu
            maps[mu] = _S.compose(maps[mu])

    graph = Graph(n, tuple(adjacency))
    clifford = LocalClifford(tuple(maps))
    recomb = RecombinationMatrix(BitMatrix(n, n, tuple(r & low for r in reduced)))

    check = apply_to_generators(clifford, recombine(s, recomb))
    if check.generators != graph_generators(graph).generators:
        raise RuntimeError("internal error: graph equivalence check failed")
    return clifford, recomb, graph


def find_local_symmetries(s: GeneratorSet) -> list[LocalClifford]:
    """All phaseless local Cliffords mapping the spanned group onto itself.

    One GF(2) solve on the graph form (Van den Nest, Dehaene and De Moor,
    PRA 70, 034302, 2004), conjugated back by ``find_graph_equivalence``'s
    letter maps.  Qubit k's letter map (a b / c d) is 4 unknowns, and the
    image of graph generator i, (Gamma_i | e_i), is in the group exactly
    when, for every j, Gamma_ij a_j + delta_ij b_i + Gamma_ij d_i
    + sum_k Gamma_ik Gamma_kj c_k = 0.  A nullspace vector from
    ``solve_mod2`` has its lowest bit at its free column, so choosing from
    the vectors qubit block by qubit block fixes one letter map at a time,
    and a branch ends at the first singular one.
    """
    q_le, _, graph = find_graph_equivalence(s)
    return _local_symmetries(q_le, graph)


def _local_symmetries(q_le: LocalClifford, graph: Graph) -> list[LocalClifford]:
    """``find_local_symmetries`` of the state that the letter maps ``q_le``
    turn into the generators of ``graph``, as ``find_graph_equivalence``
    returns them."""
    n = graph.n_vertices
    adj = graph.adjacency
    equations = []
    for i in range(n):
        for j in range(n):
            row = 1 << 4 * i + 1 if i == j else 0
            if (adj[i] >> j) & 1:
                row |= 1 << 4 * j | 1 << 4 * i + 3
            for k in range(n):
                if (adj[i] >> k) & (adj[k] >> j) & 1:
                    row |= 1 << 4 * k + 2
            equations.append(row)
    _, nullspace = solve_mod2(BitMatrix(n * n, 4 * n, tuple(equations)), 0)
    spans = [[0] for _ in range(n)]
    for vec in nullspace:
        span = spans[((vec & -vec).bit_length() - 1) // 4]
        span.extend([v ^ vec for v in span])
    by_bits = {q.a | q.b << 1 | q.c << 2 | q.d << 3: q for q in _BY_MATRIX.values()}
    partial = [(0, ())]
    for k, span in enumerate(spans):
        partial = [
            (bits, chosen + (by_bits[(bits >> 4 * k) & 15],))
            for acc, chosen in partial
            for bits in (acc ^ v for v in span)
            if (bits >> 4 * k) & 15 in by_bits
        ]
    inverse = q_le.inverse()
    return [inverse.compose(LocalClifford(c).compose(q_le)) for _, c in partial]
