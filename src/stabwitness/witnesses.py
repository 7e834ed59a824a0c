"""Construction and enumeration of local witnesses for stabilizer states.

A witness for a qubit subset omega is seeded by n = |omega| independent,
commuting stabilizers whose pairwise letter anticommutation pattern lives
entirely inside omega and, viewed as the column set of the pseudo-incidence
matrix, has rank n - 1.  The direct method tests those conditions on a
candidate subset; the graph-based method harvests candidates from the
local-complementation orbit of an equivalent graph plus the local symmetries
of the state.  Witnesses are identified with the subgroup their seed spans,
so enumeration deduplicates by a canonical subgroup key.

``check_direct`` and the subspace scan behind the direct enumerators share
one predicate on packed 2N-bit rows, which yields the violated conditions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .binary import (
    BitMatrix,
    PauliOperator,
    pauli_from_row,
    pauli_row,
    rows_rank,
    rows_rref,
)
from .cliffords import (
    apply,
    find_graph_equivalence,
    find_local_symmetries,
    lc_unitary_binary,
)
from .graphs import _connected_mask, graph_generators, lc_orbit, local_complement
from .groups import (
    GeneratorSet,
    GeneratorSubset,
    StabilizerGroup,
    basis_key,
    span_group,
)

__all__ = [
    "WitnessKind",
    "WitnessSpec",
    "DirectCheckResult",
    "XZForm",
    "SubsystemClass",
    "MalformedSubsetError",
    "pseudo_incidence",
    "check_direct",
    "enumerate_direct",
    "direct_census",
    "enumerate_graph_based",
    "find_xz_form",
    "enumerate_two_measurement",
    "two_measurement_from_standard",
    "classify_subsystem",
    "all_subsystems",
    "WitnessCensus",
    "run_census",
]


class MalformedSubsetError(ValueError):
    """Candidate subset is structurally unusable (as opposed to merely
    failing the witness conditions)."""


class WitnessKind(str, enum.Enum):
    STANDARD = "standard"
    ALTERNATIVE = "alternative"
    TWO_MEASUREMENT = "two-measurement"


@dataclass(frozen=True)
class WitnessSpec:
    """A witness: kind, scope, and the stabilizer basis defining it.

    ``omega`` is None for genuine (whole-state) scope.  Standard and
    alternative witnesses are identified by the subgroup their basis spans;
    two-measurement witnesses by the (X-span, Z-span) pair, with the
    partitioned basis kept in ``x_basis``/``z_basis``.
    """

    kind: WitnessKind
    omega: Optional[tuple[int, ...]]
    n_qubits: int
    basis: tuple[PauliOperator, ...]
    x_basis: Optional[tuple[PauliOperator, ...]] = None
    z_basis: Optional[tuple[PauliOperator, ...]] = None

    def __post_init__(self) -> None:
        if self.kind is WitnessKind.TWO_MEASUREMENT:
            if self.x_basis is None or self.z_basis is None:
                raise ValueError("two-measurement witness needs X and Z parts")
        if self.omega is not None and len(self.omega) != len(self.basis):
            raise ValueError("need one basis stabilizer per qubit of omega")

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def is_genuine(self) -> bool:
        return self.omega is None

    @property
    def identity_key(self):
        if self.kind is WitnessKind.TWO_MEASUREMENT:
            return (basis_key(self.x_basis), basis_key(self.z_basis))
        return basis_key(self.basis)

    def subset(self) -> GeneratorSubset:
        if self.omega is None:
            raise ValueError("genuine witness has no qubit subset")
        return GeneratorSubset(self.omega, self.basis)

    @classmethod
    def standard_local(
        cls, omega: Sequence[int], basis: Sequence[PauliOperator]
    ) -> "WitnessSpec":
        basis = tuple(basis)
        return cls(
            WitnessKind.STANDARD, tuple(sorted(omega)), basis[0].n_qubits, basis
        )

    @classmethod
    def standard_genuine(cls, s: GeneratorSet) -> "WitnessSpec":
        return cls(WitnessKind.STANDARD, None, s.n_qubits, s.generators)

    @classmethod
    def alternative_from(cls, spec: "WitnessSpec") -> "WitnessSpec":
        return cls(
            WitnessKind.ALTERNATIVE, spec.omega, spec.n_qubits, spec.basis
        )


# ---------------------------------------------------------------------------
# Direct method
# ---------------------------------------------------------------------------


def _pair_masks(rows: Sequence[int], n_qubits: int) -> list[int]:
    """Per-pair anticommutation masks of packed 2N-bit rows, lexicographic
    over pairs (i, j), i < j."""
    return [
        ((a >> n_qubits) & b) ^ (a & (b >> n_qubits))
        for a, b in itertools.combinations(rows, 2)
    ]


def pseudo_incidence(w: GeneratorSubset) -> BitMatrix:
    """N x C(n,2) matrix of per-qubit letter anticommutation of each pair.

    Column l = {i, j} (lexicographic, i < j) has a 1 in row mu exactly when
    the letters of stabilizers i and j anticommute on qubit mu.
    """
    masks = _pair_masks([pauli_row(p) for p in w.stabilizers], w.n_qubits)
    return BitMatrix(len(masks), w.n_qubits, tuple(masks)).transpose()


def _failed_conditions(
    rows: Sequence[int], omega_mask: int, n_qubits: int
) -> Iterator[str]:
    """Lazily yield each violated direct condition, "i".."iv" in order, for
    n packed 2N-bit stabilizer rows and a qubit bit mask omega."""
    n = len(rows)
    masks = _pair_masks(rows, n_qubits)
    # (i) independent and mutually commuting
    if any(bin(m).count("1") % 2 for m in masks) or rows_rank(rows) != n:
        yield "i"
    # (ii) the restrictions to omega are independent and mutually commuting
    omega_rows = (omega_mask << n_qubits) | omega_mask
    if rows_rank([r & omega_rows for r in rows]) != n or any(
        bin(m & omega_mask).count("1") % 2 for m in masks
    ):
        yield "ii"
    # (iii) letterwise commutation outside omega
    if any(m & ~omega_mask for m in masks):
        yield "iii"
    # (iv) the pseudo-incidence matrix, whose columns are the masks, has
    # rank n - 1
    if rows_rank(masks) != n - 1:
        yield "iv"


@dataclass(frozen=True)
class DirectCheckResult:
    """Outcome of the direct-method test; falsy when any condition failed.

    ``failed_conditions`` lists every violated condition as "i".."iv".
    """

    ok: bool
    failed_conditions: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failed_condition(self) -> Optional[str]:
        return self.failed_conditions[0] if self.failed_conditions else None


def check_direct(w: GeneratorSubset) -> DirectCheckResult:
    """Decide whether a subset seeds a valid local witness for its omega.

    The four conditions: (i) the stabilizers are independent and mutually
    commute; (ii) their restrictions to omega are independent and mutually
    commute; (iii) every pair commutes letterwise on each qubit outside
    omega; (iv) the pseudo-incidence matrix has rank n - 1.  All four are
    evaluated and every violation is reported; raises MalformedSubsetError
    for subsets that are structurally out of scope.
    """
    n = w.size
    n_qubits = w.n_qubits
    if not 2 <= n <= n_qubits - 1:
        raise MalformedSubsetError(
            f"witness subsets need 2 <= n <= {n_qubits - 1}, got n={n}"
        )
    rows = [pauli_row(p) for p in w.stabilizers]
    failed = tuple(_failed_conditions(rows, w.omega_mask, n_qubits))
    return DirectCheckResult(not failed, failed)


def _rref_bases(n_cols: int, rank: int) -> Iterable[tuple[int, ...]]:
    """All reduced row-echelon bases of rank-``rank`` subspaces of GF(2)^n.

    Every subspace appears exactly once.  Rows carry their pivot at the
    lowest set bit; free entries sit at non-pivot columns right of the pivot.
    """
    for pivots in itertools.combinations(range(n_cols), rank):
        pivot_set = set(pivots)
        free_cols = [
            [c for c in range(p + 1, n_cols) if c not in pivot_set]
            for p in pivots
        ]
        row_choices = []
        for i, p in enumerate(pivots):
            base = 1 << p
            options = []
            for bits in range(1 << len(free_cols[i])):
                row = base
                for j, c in enumerate(free_cols[i]):
                    if (bits >> j) & 1:
                        row |= 1 << c
                options.append(row)
            row_choices.append(options)
        for rows in itertools.product(*row_choices):
            yield rows


def _mask_to_omega(mask: int) -> tuple[int, ...]:
    out = []
    q = 1
    while mask:
        if mask & 1:
            out.append(q)
        mask >>= 1
        q += 1
    return tuple(out)


def _direct_subgroups(group: StabilizerGroup, rank: int):
    """Yield (omega, canonical basis) for every rank-``rank`` subgroup of the
    stabilizer group that seeds a local witness for its active region."""
    n_qubits = group.n_qubits
    element_rows = [pauli_row(e) for e in group.elements]
    for exp_rows in _rref_bases(len(group.generator_set.generators), rank):
        rows = [element_rows[e] for e in exp_rows]
        active = 0
        for m in _pair_masks(rows, n_qubits):
            active |= m
        # Pair masks have even weight, so the pseudo-incidence rank is at
        # most |active| - 1, and (iii) needs active inside omega: only
        # omega = active with |active| = rank can pass.
        if bin(active).count("1") != rank:
            continue
        if next(_failed_conditions(rows, active, n_qubits), None) is None:
            canonical = [pauli_from_row(r, n_qubits) for r in rows_rref(rows)]
            yield _mask_to_omega(active), canonical


def enumerate_direct(
    group: StabilizerGroup, omega: Sequence[int]
) -> list[WitnessSpec]:
    """All standard local witnesses for one subsystem, one per spanned
    subgroup, sorted by identity key."""
    omega = tuple(sorted(omega))
    n = len(omega)
    if not 2 <= n <= group.n_qubits - 1:
        raise MalformedSubsetError(
            f"need 2 <= |omega| <= {group.n_qubits - 1}, got {n}"
        )
    specs = [
        WitnessSpec.standard_local(found_omega, basis)
        for found_omega, basis in _direct_subgroups(group, n)
        if found_omega == omega
    ]
    specs.sort(key=lambda s: s.identity_key)
    return specs


def all_subsystems(n_qubits: int) -> list[tuple[int, ...]]:
    """Every qubit subset of size 2..N-1, ordered by size then lexicographic."""
    out: list[tuple[int, ...]] = []
    for n in range(2, n_qubits):
        out.extend(itertools.combinations(range(1, n_qubits + 1), n))
    return out


def direct_census(group: StabilizerGroup) -> dict[tuple[int, ...], list[WitnessSpec]]:
    """Standard local witnesses for every subsystem, by the direct method."""
    buckets: dict[tuple[int, ...], list[WitnessSpec]] = {
        omega: [] for omega in all_subsystems(group.n_qubits)
    }
    for rank in range(2, group.n_qubits):
        for omega, basis in _direct_subgroups(group, rank):
            buckets[omega].append(WitnessSpec.standard_local(omega, basis))
    for specs in buckets.values():
        specs.sort(key=lambda s: s.identity_key)
    return buckets


# ---------------------------------------------------------------------------
# Graph-based method
# ---------------------------------------------------------------------------


def enumerate_graph_based(
    s: GeneratorSet,
) -> dict[tuple[int, ...], list[WitnessSpec]]:
    """Standard local witnesses reachable through locally equivalent graphs.

    Pipeline: map the generator set onto a graph form, enumerate the full
    local-complementation orbit, pull the generators of every connected
    subsystem of every orbit graph back through the inverse letter maps, and
    finally conjugate everything by each local symmetry of the state.
    Deduplicated by spanned subgroup per subsystem.
    """
    n_qubits = s.n_qubits
    q_le, recomb, graph0 = find_graph_equivalence(s)
    orbit = lc_orbit(graph0)
    symmetries = find_local_symmetries(s)

    subsystems = all_subsystems(n_qubits)
    masks = []
    for omega in subsystems:
        m = 0
        for q in omega:
            m |= 1 << (q - 1)
        masks.append(m)

    found: dict[tuple[int, ...], set[tuple[int, ...]]] = {
        omega: set() for omega in subsystems
    }
    for member, sequence in orbit.items():
        q_total = q_le
        current = graph0
        for vertex in sequence:
            q_total = lc_unitary_binary(current, vertex).compose(q_total)
            current = local_complement(current, vertex)
        inv = q_total.inverse()
        pulled = [apply(inv, g) for g in graph_generators(member).generators]
        for omega, mask in zip(subsystems, masks):
            if not _connected_mask(member.adjacency, mask):
                continue
            rows = [pauli_row(pulled[q - 1]) for q in omega]
            found[omega].add(tuple(rows_rref(rows)))

    out: dict[tuple[int, ...], list[WitnessSpec]] = {}
    for omega in subsystems:
        keys = set(found[omega])
        for sym in symmetries:
            if sym.is_identity():
                continue
            inv_sym = sym.inverse()
            for key in found[omega]:
                image = [
                    pauli_row(apply(inv_sym, pauli_from_row(r, n_qubits)))
                    for r in key
                ]
                keys.add(tuple(rows_rref(image)))
        specs = [
            WitnessSpec.standard_local(
                omega, [pauli_from_row(r, n_qubits) for r in key]
            )
            for key in sorted(keys)
        ]
        out[omega] = specs
    return out


# ---------------------------------------------------------------------------
# Two-measurement form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XZForm:
    """A recombined basis split into X-type and Z-type stabilizers."""

    x_part: tuple[PauliOperator, ...]
    z_part: tuple[PauliOperator, ...]


def find_xz_form(
    w: Union[GeneratorSubset, GeneratorSet, Sequence[PauliOperator]],
) -> Optional[XZForm]:
    """Recombine a basis into pure X-type and Z-type stabilizers if possible.

    Scans the spanned subgroup for its X-only and Z-only members; a split
    exists exactly when those two subgroups together span everything.
    Returns None otherwise.
    """
    if isinstance(w, GeneratorSubset):
        paulis: Sequence[PauliOperator] = w.stabilizers
    elif isinstance(w, GeneratorSet):
        paulis = w.generators
    else:
        paulis = tuple(w)
    if not paulis:
        raise ValueError("empty basis")
    n_qubits = paulis[0].n_qubits
    rows = rows_rref(pauli_row(p) for p in paulis)
    n = len(rows)
    x_mask = (1 << n_qubits) - 1

    x_rows: list[int] = []
    z_rows: list[int] = []
    for bits in range(1, 1 << n):
        acc = 0
        rest = bits
        while rest:
            low = rest & -rest
            acc ^= rows[low.bit_length() - 1]
            rest ^= low
        if acc >> n_qubits == 0:
            x_rows.append(acc)
        elif acc & x_mask == 0:
            z_rows.append(acc)
    x_basis = rows_rref(x_rows)
    z_basis = rows_rref(z_rows)
    if len(x_basis) + len(z_basis) != n:
        return None
    return XZForm(
        tuple(pauli_from_row(r, n_qubits) for r in x_basis),
        tuple(pauli_from_row(r, n_qubits) for r in z_basis),
    )


def two_measurement_from_standard(spec: WitnessSpec) -> Optional[WitnessSpec]:
    """Two-measurement variant of a standard witness, when the split exists."""
    form = find_xz_form(spec.basis)
    if form is None:
        return None
    return WitnessSpec(
        WitnessKind.TWO_MEASUREMENT,
        spec.omega,
        spec.n_qubits,
        form.x_part + form.z_part,
        x_basis=form.x_part,
        z_basis=form.z_part,
    )


def enumerate_two_measurement(
    group: StabilizerGroup, omega: Sequence[int]
) -> list[WitnessSpec]:
    """All two-measurement local witnesses for one subsystem, deduplicated
    by the (X-span, Z-span) pair."""
    return _two_measurement_variants(enumerate_direct(group, omega))


def _two_measurement_variants(specs: Iterable[WitnessSpec]) -> list[WitnessSpec]:
    """Two-measurement variants of standard witnesses, deduplicated by the
    (X-span, Z-span) pair and sorted by it."""
    seen = {}
    for spec in specs:
        variant = two_measurement_from_standard(spec)
        if variant is not None:
            seen[variant.identity_key] = variant
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# Subsystem classes of the seven-qubit color code
# ---------------------------------------------------------------------------


class SubsystemClass(str, enum.Enum):
    ALL = "all"
    STRING_LIKE = "string-like"
    NON_STRING_LIKE = "non-string-like"
    PLAQUETTE_LIKE = "plaquette-like"
    NON_PLAQUETTE_LIKE = "non-plaquette-like"
    UNCLASSIFIED = "unclassified"


_STRING_LIKE = frozenset(
    frozenset(s)
    for s in [(1, 2, 5), (1, 4, 7), (5, 6, 7), (1, 3, 6), (3, 4, 5), (2, 3, 7), (2, 4, 6)]
)
_PLAQUETTE_LIKE = frozenset(
    frozenset(s)
    for s in [
        (1, 2, 3, 4),
        (2, 3, 5, 6),
        (3, 4, 6, 7),
        (1, 2, 6, 7),
        (1, 4, 5, 6),
        (2, 4, 5, 7),
        (1, 3, 5, 7),
    ]
)


def classify_subsystem(omega: Sequence[int]) -> SubsystemClass:
    """Subsystem class on the seven-qubit color code layout.

    Three-qubit subsets split into string-like (supports of weight-3 X-type
    stabilizers) and the rest; four-qubit subsets into plaquette-like
    (supports of Z-type stabilizers) and the rest.  Other sizes are
    unclassified.
    """
    key = frozenset(omega)
    if len(key) == 3:
        return (
            SubsystemClass.STRING_LIKE
            if key in _STRING_LIKE
            else SubsystemClass.NON_STRING_LIKE
        )
    if len(key) == 4:
        return (
            SubsystemClass.PLAQUETTE_LIKE
            if key in _PLAQUETTE_LIKE
            else SubsystemClass.NON_PLAQUETTE_LIKE
        )
    return SubsystemClass.UNCLASSIFIED


# ---------------------------------------------------------------------------
# Whole-state census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessCensus:
    """Per-subsystem witness lists for the selected construction methods."""

    n_qubits: int
    omegas: tuple[tuple[int, ...], ...]
    direct: Optional[dict[tuple[int, ...], list[WitnessSpec]]]
    graph_based: Optional[dict[tuple[int, ...], list[WitnessSpec]]]
    two_measurement: Optional[dict[tuple[int, ...], list[WitnessSpec]]]

    def subsystems(self) -> list[tuple[int, ...]]:
        return list(self.omegas)

    def totals(self) -> dict[str, Optional[int]]:
        def total(bucket):
            if bucket is None:
                return None
            return sum(len(v) for v in bucket.values())

        return {
            "direct": total(self.direct),
            "graph_based": total(self.graph_based),
            "two_measurement": total(self.two_measurement),
        }


def run_census(
    s: GeneratorSet,
    methods: Iterable[str] = ("direct", "graph", "twomeas"),
    omegas: Optional[Sequence[Sequence[int]]] = None,
) -> WitnessCensus:
    """Enumerate witnesses with the selected methods.

    ``methods`` may contain "direct", "graph", and "twomeas"; the
    two-measurement census is derived from the direct one.  ``omegas``
    restricts the subsystems (default: all of size 2..N-1).
    """
    methods = set(methods)
    unknown = methods - {"direct", "graph", "twomeas"}
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    group = span_group(s)
    if omegas is None:
        wanted = all_subsystems(s.n_qubits)
    else:
        wanted = list(dict.fromkeys(tuple(sorted(o)) for o in omegas))
    for omega in wanted:
        if not 2 <= len(omega) <= s.n_qubits - 1:
            raise MalformedSubsetError(
                f"subsystem {omega} is not a local scope on {s.n_qubits} qubits"
            )
        if len(set(omega)) != len(omega) or not all(
            1 <= q <= s.n_qubits for q in omega
        ):
            raise MalformedSubsetError(
                f"subsystem {omega} has labels outside 1..{s.n_qubits}"
            )

    direct = None
    twomeas = None
    if methods & {"direct", "twomeas"}:
        full = direct_census(group)
        direct = {omega: full[omega] for omega in wanted}
        if "twomeas" in methods:
            twomeas = {
                omega: _two_measurement_variants(direct[omega]) for omega in wanted
            }
        if "direct" not in methods:
            direct = None

    graph_based = None
    if "graph" in methods:
        full = enumerate_graph_based(s)
        graph_based = {omega: full[omega] for omega in wanted}

    return WitnessCensus(s.n_qubits, tuple(wanted), direct, graph_based, twomeas)
