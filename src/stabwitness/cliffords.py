"""Phaseless local Clifford operators and the searches built on them.

A single-qubit Clifford, with phases discarded, is one of the six invertible
2x2 binary matrices acting on the (z, x) letter bits.  A local Clifford is
one such matrix per qubit; it preserves commutation, so applying it to a
generator set gives another generator set.  This module also finds a graph
generator set reachable from an arbitrary generator set (letter swaps plus a
recombination) and the local operations that map a stabilizer group onto
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .binary import BitMatrix, PauliOperator, invert_mod2, rows_rank
from .groups import GeneratorSet, RecombinationMatrix, recombine, span_group
from .graphs import CapacityError, Graph, graph_generators

__all__ = [
    "SingleQubitClifford",
    "LocalClifford",
    "SINGLE_QUBIT_CLIFFORDS",
    "apply",
    "apply_to_generators",
    "lc_unitary_binary",
    "find_graph_equivalence",
    "find_local_symmetries",
    "MAX_SYMMETRY_QUBITS",
]

MAX_SYMMETRY_QUBITS = 8


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
_HSH = _BY_NAME["HSH"]


@dataclass(frozen=True)
class LocalClifford:
    """A tensor product of single-qubit letter maps, one per qubit."""

    per_qubit: tuple[SingleQubitClifford, ...]
    _masks: tuple[tuple[int, int, int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.per_qubit:
            raise ValueError("local Clifford needs at least one qubit")
        # Group qubits by letter map so apply() costs O(1) per distinct map.
        masks: dict[SingleQubitClifford, int] = {}
        for mu, q in enumerate(self.per_qubit):
            masks[q] = masks.get(q, 0) | (1 << mu)
        object.__setattr__(
            self,
            "_masks",
            tuple((m, q.a, q.b, q.c, q.d) for q, m in masks.items()),
        )

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


def apply(q: LocalClifford, p: PauliOperator) -> PauliOperator:
    """Apply the per-qubit letter maps to an operator."""
    if q.n_qubits != p.n_qubits:
        raise ValueError(
            f"operator on {p.n_qubits} qubits, map on {q.n_qubits}"
        )
    z = x = 0
    for mask, a, b, c, d in q._masks:
        pz = p.z_bits & mask
        px = p.x_bits & mask
        if a:
            z |= pz if not b else pz ^ px
        elif b:
            z |= px
        if c:
            x |= pz if not d else pz ^ px
        elif d:
            x |= px
    return PauliOperator(p.n_qubits, z, x)


def apply_to_generators(q: LocalClifford, s: GeneratorSet) -> GeneratorSet:
    """Image of a generator set; commutation and independence are preserved."""
    return GeneratorSet(
        s.n_qubits, tuple(apply(q, g) for g in s.generators), s.labels
    )


def lc_unitary_binary(g: Graph, vertex: int) -> LocalClifford:
    """Letter maps realizing a local complementation at ``vertex``.

    Z <-> Y on the complemented vertex and X <-> Y on each of its neighbors;
    the image of the graph generators spans the complemented graph's group.
    """
    g._check_vertex(vertex)
    maps = [_ID] * g.n_vertices
    maps[vertex - 1] = _HSH
    row = g.adjacency[vertex - 1]
    for mu in range(g.n_vertices):
        if (row >> mu) & 1:
            maps[mu] = _S
    return LocalClifford(tuple(maps))


def find_graph_equivalence(
    s: GeneratorSet,
) -> tuple[LocalClifford, RecombinationMatrix, Graph]:
    """Letter maps and a recombination turning a generator set into graph form.

    Returns (Q, R, graph) with apply(Q, recombine(s, R)) exactly equal to
    graph_generators(graph).  Swapping letters on qubits outside a row basis
    of the X-block makes that block invertible; the inverse is the
    recombination, the Z-block image is the adjacency matrix, and X <-> Y
    maps clear its diagonal.
    """
    n = s.n_qubits
    z_rows = [0] * n
    x_rows = [0] * n
    for i, g in enumerate(s.generators):
        for mu in range(n):
            if (g.z_bits >> mu) & 1:
                z_rows[mu] |= 1 << i
            if (g.x_bits >> mu) & 1:
                x_rows[mu] |= 1 << i

    # Greedy row basis of the X-block; qubits outside it get the letter swap.
    basis_rows: list[int] = []
    for mu in range(n):
        candidate = [x_rows[nu] for nu in basis_rows] + [x_rows[mu]]
        if rows_rank(candidate) > len(basis_rows):
            basis_rows.append(mu)
    swap_qubits = [mu for mu in range(n) if mu not in set(basis_rows)]
    for mu in swap_qubits:
        z_rows[mu], x_rows[mu] = x_rows[mu], z_rows[mu]

    x_block = BitMatrix(n, n, tuple(x_rows))
    try:
        r_matrix = invert_mod2(x_block)
    except ValueError as exc:
        raise RuntimeError(
            "internal error: X-block not invertible after letter swaps"
        ) from exc

    z_block = BitMatrix(n, n, tuple(z_rows))
    gamma = z_block @ r_matrix
    adjacency = list(gamma.row_bits)
    maps = [_H if mu in set(swap_qubits) else _ID for mu in range(n)]
    for mu in range(n):
        if (adjacency[mu] >> mu) & 1:
            adjacency[mu] ^= 1 << mu
            maps[mu] = _S.compose(maps[mu])

    graph = Graph(n, tuple(adjacency))
    clifford = LocalClifford(tuple(maps))
    # R is column-convention in the block algebra above; the recombination
    # type is row-convention, so transpose.
    recomb = RecombinationMatrix(r_matrix.transpose())

    check = apply_to_generators(clifford, recombine(s, recomb))
    if check.generators != graph_generators(graph).generators:
        raise RuntimeError("internal error: graph equivalence check failed")
    return clifford, recomb, graph


def _letter_bits(a: int, b: int, c: int, d: int, zb: int, xb: int) -> tuple[int, int]:
    return (a & zb) ^ (b & xb), (c & zb) ^ (d & xb)


def find_local_symmetries(s: GeneratorSet) -> list[LocalClifford]:
    """All phaseless local Cliffords mapping the spanned group onto itself.

    Exhaustive scan over the 6^N per-qubit assignments, pruned qubit by
    qubit: a partial assignment survives only while every generator image,
    restricted to the assigned qubits, still matches the restriction of some
    group element.  The identity is always in the result.
    """
    n = s.n_qubits
    if n > MAX_SYMMETRY_QUBITS:
        raise CapacityError(
            f"symmetry scan capped at {MAX_SYMMETRY_QUBITS} qubits, got {n}"
        )
    group = span_group(s)
    prefix_sets: list[set[tuple[int, int]]] = []
    for k in range(1, n + 1):
        mask = (1 << k) - 1
        prefix_sets.append(
            {(e.z_bits & mask, e.x_bits & mask) for e in group.elements}
        )

    gens = s.generators
    n_gens = len(gens)
    found: list[LocalClifford] = []

    def extend(depth: int, images: list[tuple[int, int]], chosen: list[SingleQubitClifford]) -> None:
        if depth == n:
            found.append(LocalClifford(tuple(chosen)))
            return
        bit = 1 << depth
        mask = (bit << 1) - 1
        prefixes = prefix_sets[depth]
        for q in SINGLE_QUBIT_CLIFFORDS:
            new_images = []
            ok = True
            for i in range(n_gens):
                z, x = images[i]
                zb = (gens[i].z_bits >> depth) & 1
                xb = (gens[i].x_bits >> depth) & 1
                nz = (q.a & zb) ^ (q.b & xb)
                nx = (q.c & zb) ^ (q.d & xb)
                z |= nz << depth
                x |= nx << depth
                if (z & mask, x & mask) not in prefixes:
                    ok = False
                    break
                new_images.append((z, x))
            if ok:
                chosen.append(q)
                extend(depth + 1, new_images, chosen)
                chosen.pop()

    extend(0, [(0, 0)] * n_gens, [])
    return found
