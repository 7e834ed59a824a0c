"""Construction and enumeration of local witnesses for stabilizer states.

A witness for a qubit subset omega is seeded by n = |omega| independent,
commuting stabilizers whose pairwise letter anticommutation pattern lives
entirely inside omega and, viewed as the column set of the pseudo-incidence
matrix, has rank n - 1.  The direct method tests those conditions on a
candidate subset; the graph-based method harvests candidates from the
local-complementation orbit of an equivalent graph plus the local symmetries
of the state.  Witnesses are identified with the subgroup their seed spans,
so enumeration deduplicates by a canonical subgroup key.

The graph-based walk is incremental.  Each orbit member carries its Z and
X frames: the image rows (``cliffords.LocalClifford``) of the letter map
that takes its graph form back to the state.  Complementing at v is a
square root of X on v and of Z on its neighbors, so a member's frames are
its breadth-first parent's after two XORs: v's Z letter gains v's X
letter, and each neighbor's X letter gains its Z letter.  The generators
of a subsystem omega span the group elements whose letter on each qubit mu
outside omega is I or the Z frame's letter of mu, so the key depends only
on the Z frame outside omega.  So does the connectivity of omega: the span
restricted to omega is, up to local maps, the graph state of the induced
subgraph, which is genuinely multipartite entangled exactly when that
subgraph is connected (Hein, Eisert and Briegel, PRA 69, 062311, 2004),
and local maps do not change entanglement.  The walk builds every
subsystem, one at a time: it projects members' Z frames onto the qubits
outside omega and keeps one member per distinct masked frame.  Masking to
the qubits outside omega factors through masking to those outside omega's
parent, omega without its largest qubit, so omega projects only the one
member per distinct frame that its parent kept, and only the subsystems of
size 2 project the whole orbit.  Those per-subsystem lists are kept one
size at a time, each until its children are built.  The key needs less
than the masked frame: the span is I outside omega except on the qubits
with a neighbour in omega, so it is fixed by the Z frame on those qubits
alone, the neighbourhood frame, and distinct neighbourhood frames give
distinct keys.  The walk tests connectivity once per neighbourhood frame
and keys it only when omega is connected, so it reduces one key per
witness (``enumerate_graph_based``).

The walk runs only for a graph-based census of every subsystem with no
direct search.  Any other census, one that names its subsystems or runs
the direct search anyway, reads the graph-based witnesses off the direct
lists instead of walking the orbit.  The span a frame gives is
a letter kernel K_c: the members whose letter on each qubit mu outside
omega is I or c_mu, of dimension |omega|.  A direct witness is
graph-based exactly when it is such a kernel, and that holds exactly when
no product of the single-qubit letters it carries outside omega, other
than I, is a member (``_graph_reachable``).  Such a product is I on
omega, so only the members idle on omega, I there, are tested: a witness
is dropped when one of them other than I carries, on each qubit outside
omega, I or the witness's letter.  Where I is the only idle member, every
direct witness is graph-based.

The direct enumerators walk the subgroups depth first, one reduced
row-echelon basis row at a time, in exponent coordinates over the group's
own reduced row-echelon basis.  In those coordinates the exponent basis the
walk builds is the Pauli basis of the subgroup's key, so a leaf is its own
key.  The walk keeps the active region of the partial basis: the qubits
where two of its rows anticommute.  The active region belongs to the
subgroup, not to the basis, and it only grows as rows are added.  A
witness for omega needs an active region equal to omega.  Every direct
census, of all subsystems or of named ones, walks the whole group once
per wanted subsystem size k (``_direct_lists``), and prunes a partial
basis with everything below it once its active region is no submask of a
wanted subsystem of size k: for every subsystem, once it has more than k
qubits; for one subsystem omega, once it meets a qubit outside omega,
which condition (iii) forbids.  At a leaf with k active qubits,
conditions (i) and (iii) and the commutation half of (ii) hold by
construction.  Two ranks remain, and at rank 2 or 3 they hold by
construction too (``_direct_keys``); from rank 4 up the leaf tests both
with one rank of the restricted rows and the pair masks stacked on
disjoint bits.  ``check_direct`` evaluates all four conditions with one
predicate on packed 2N-bit rows.

The two-measurement form is read off a witness's key: the subgroup splits
into an X-type and a Z-type part exactly when every row of its reduced
row-echelon basis is X-only or Z-only, and the parts are those rows.  A row
with a Z part has its pivot in the Z block, and back-substitution has
cleared the pivots of the X-only rows from it, so its X part is in their
span only if it is 0.  Key rows are group members, so a census collects
the X-only and Z-only members once and splits only the witnesses whose
key rows all lie among them, one set test per witness.  The split is
unique, so no spec stores a second copy of it: every read of one kind's
key off a spec of another goes through ``_key_as``, which takes the split
of a standard key, or joins a split's Z key and X key into the standard
key, and reduces no row.

A census holds keys, not specs.  Each subsystem's standard witnesses are
their sorted keys, each key the witness's rows and its identity key at
once, the graph-based keys are the subset the filter keeps, and the
two-measurement witnesses are the sorted (X part, Z part) splits of the
keys that split, each split the witness's parts and its identity key at
once.  The census reports count, list and evaluate the keys.
``direct_census``, ``enumerate_graph_based`` and the three
``WitnessCensus`` columns hand them out as read-only mappings of
subsystem to spec list, all of one class (``_CensusColumn``), which
build a subsystem's specs from its keys, with the checked constructor,
on each access and keep none of them.
"""

from __future__ import annotations

import collections.abc
import enum
import itertools
from dataclasses import InitVar, dataclass, field
from functools import reduce
from operator import itemgetter, or_
from typing import AbstractSet, Iterable, Iterator, Mapping, Optional, Sequence

from .binary import (
    BitMatrix,
    PauliOperator,
    pauli_from_row,
    pauli_row,
    rows_rank,
    rows_rref,
)
from .cliffords import (
    LocalClifford,
    _local_symmetries,
    _map_row,
    find_graph_equivalence,
)
from .graphs import Graph, LcOrbit, _connected_mask, lc_orbit
from .groups import (
    GeneratorSet,
    GeneratorSubset,
    StabilizerGroup,
    _check_scope,
    _not_ints,
    _qubit_mask,
    _span_rows,
    build_color_code,
    span_group,
)

__all__ = [
    "WitnessKind",
    "WitnessSpec",
    "DirectCheckResult",
    "SubsystemClass",
    "MalformedSubsetError",
    "pseudo_incidence",
    "check_direct",
    "enumerate_direct",
    "direct_census",
    "enumerate_graph_based",
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


def _pauli_rows(paulis: Sequence[PauliOperator]) -> tuple[int, ...]:
    """Packed 2N-bit rows of Paulis that must all be on one qubit count."""
    if not paulis:
        raise ValueError("witness needs at least one basis stabilizer")
    n_qubits = paulis[0].n_qubits
    if any(p.n_qubits != n_qubits for p in paulis):
        raise ValueError("basis stabilizers are on different qubit counts")
    return tuple(pauli_row(p) for p in paulis)


def _collection(name: str, value) -> tuple:
    """``value`` as a tuple; raises ValueError naming the field ``name``
    when it is not a collection, such as one int given for its rows."""
    if not isinstance(value, collections.abc.Iterable):
        raise ValueError(f"{name} must be a collection, not {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class WitnessSpec:
    """A witness: kind, scope, and the stabilizer basis defining it.

    The basis is stored as packed 2N-bit rows (``binary.pauli_row``), in
    ``rows``; a two-measurement witness also keeps its X-type and Z-type
    parts in ``x_rows`` and ``z_rows``, and its ``rows`` are those parts
    concatenated.  ``basis``, ``x_basis`` and ``z_basis`` are the same
    rows as ``PauliOperator``s, built on each access and not stored.
    Specs compare equal when their kind, scope and rows, in the order
    given, are equal.  ``kind`` passes through ``WitnessKind``, so its
    value string is accepted and an unknown kind raises ValueError.  Only
    a two-measurement spec takes X/Z parts: the X/Z split of a standard
    or alternative spec's subgroup, where it has one, is read off its key
    (``_key_as``).  ``rows``, ``x_rows`` and ``z_rows`` are kept as
    tuples; one that is not a collection, or an entry that is not an int,
    or is a bool, raises ValueError.

    ``omega`` is None for genuine (whole-state) scope; otherwise it is kept
    as a tuple.  It must be a collection, or ValueError names it, and a
    subsystem, sorted and duplicate-free int labels in 1..N, or ValueError
    is raised with ``GeneratorSubset``'s message.
    Standard and alternative witnesses are identified by the subgroup
    their basis spans; two-measurement witnesses by the (X-span, Z-span)
    pair.  That ``identity_key`` is reduced once, at construction, unless
    the caller passes it in as ``key``.  Every census witness's rows are
    already its key; the census columns (``_CensusColumn``) pass them in
    as ``key``, so each standard spec they build shares its rows tuple as
    its key, and each two-measurement spec its parts.
    """

    kind: WitnessKind
    omega: Optional[tuple[int, ...]]
    n_qubits: int
    rows: tuple[int, ...]
    x_rows: Optional[tuple[int, ...]] = None
    z_rows: Optional[tuple[int, ...]] = None
    identity_key: tuple = field(init=False, compare=False, repr=False)
    key: InitVar[Optional[tuple]] = None

    def __post_init__(self, key: Optional[tuple]) -> None:
        object.__setattr__(self, "kind", WitnessKind(self.kind))
        for name in ("rows", "x_rows", "z_rows"):
            rows = getattr(self, name)
            if rows is not None:
                rows = _collection(name, rows)
                strays = _not_ints(rows)
                if strays:
                    raise ValueError(
                        f"{name} holds entries that are not integers: {strays}"
                    )
                object.__setattr__(self, name, rows)
        if not self.rows:
            raise ValueError("witness needs at least one basis stabilizer")
        if min(self.rows) < 0 or max(self.rows) >> 2 * self.n_qubits:
            raise ValueError(f"basis rows out of range for {self.n_qubits} qubits")
        two_measurement = self.kind is WitnessKind.TWO_MEASUREMENT
        if two_measurement:
            if self.x_rows is None or self.z_rows is None:
                raise ValueError("two-measurement witness needs X and Z parts")
            if self.rows != self.x_rows + self.z_rows:
                raise ValueError(
                    "two-measurement basis must be its X part then its Z part"
                )
            x_mask = (1 << self.n_qubits) - 1
            for part, rows, other in (
                ("X", self.x_rows, ~x_mask),
                ("Z", self.z_rows, x_mask),
            ):
                bad = next((r for r in rows if r & other), None)
                if bad is not None:
                    text = pauli_from_row(bad, self.n_qubits).to_text()
                    raise ValueError(
                        f"two-measurement {part} part holds {text}, "
                        f"which is not {part}-type"
                    )
        elif self.x_rows is not None or self.z_rows is not None:
            raise ValueError(f"{self.kind.value} witness takes no X/Z parts")
        if self.omega is not None:
            object.__setattr__(self, "omega", _collection("omega", self.omega))
            _check_scope(self.omega, self.n_qubits)
            if len(self.omega) != len(self.rows):
                raise ValueError("need one basis stabilizer per qubit of omega")
        if key is None:
            if two_measurement:
                key = (tuple(rows_rref(self.x_rows)), tuple(rows_rref(self.z_rows)))
            else:
                key = tuple(rows_rref(self.rows))
        object.__setattr__(self, "identity_key", key)

    def _paulis(self, rows: Optional[tuple[int, ...]]):
        if rows is None:
            return None
        return tuple(pauli_from_row(r, self.n_qubits) for r in rows)

    @property
    def basis(self) -> tuple[PauliOperator, ...]:
        return self._paulis(self.rows)

    @property
    def x_basis(self) -> Optional[tuple[PauliOperator, ...]]:
        return self._paulis(self.x_rows)

    @property
    def z_basis(self) -> Optional[tuple[PauliOperator, ...]]:
        return self._paulis(self.z_rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def subset(self) -> GeneratorSubset:
        if self.omega is None:
            raise ValueError("genuine witness has no qubit subset")
        return GeneratorSubset(self.omega, self.basis)

    @classmethod
    def standard_local(
        cls, omega: Sequence[int], basis: Sequence[PauliOperator]
    ) -> "WitnessSpec":
        basis = tuple(basis)
        rows = _pauli_rows(basis)
        return cls(WitnessKind.STANDARD, tuple(sorted(omega)), basis[0].n_qubits, rows)

    @classmethod
    def standard_genuine(cls, s: GeneratorSet) -> "WitnessSpec":
        return cls(WitnessKind.STANDARD, None, s.n_qubits, _pauli_rows(s.generators))

    @classmethod
    def alternative_from(cls, spec: "WitnessSpec") -> "WitnessSpec":
        key = _key_as(WitnessKind.ALTERNATIVE, spec)
        return cls(
            WitnessKind.ALTERNATIVE, spec.omega, spec.n_qubits, spec.rows, key=key
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


def _check_subsystem(omega: Sequence[int], n_qubits: int) -> tuple[int, ...]:
    """The sorted labels of a subsystem; raises MalformedSubsetError, naming
    the fault, unless it has 2..N-1 distinct int labels in 1..N."""
    omega = tuple(omega)
    strays = _not_ints(omega)
    if strays:
        raise MalformedSubsetError(
            f"subsystem {omega} has labels that are not integers: {strays}"
        )
    omega = tuple(sorted(omega))
    repeated = sorted({q for q in omega if omega.count(q) > 1})
    if repeated:
        raise MalformedSubsetError(
            f"subsystem {omega} repeats labels {', '.join(map(str, repeated))}"
        )
    if not all(1 <= q <= n_qubits for q in omega):
        raise MalformedSubsetError(
            f"subsystem {omega} has labels outside 1..{n_qubits}"
        )
    if not 2 <= len(omega) <= n_qubits - 1:
        raise MalformedSubsetError(
            f"subsystem {omega} is not a local scope on {n_qubits} qubits"
        )
    return omega


def _check_subsystems(
    omegas: Iterable[Sequence[int]], n_qubits: int
) -> list[tuple[int, ...]]:
    """``_check_subsystem`` of each subsystem in a collection; raises
    MalformedSubsetError when the collection, or one of its entries, is not
    iterable, as when one flat subsystem (1, 2) is passed for [(1, 2)]."""
    shape = "omegas must be a collection of subsystems, such as [(1, 2)]"
    if not isinstance(omegas, collections.abc.Iterable):
        raise MalformedSubsetError(
            f"{shape}; got an object of type {type(omegas).__name__}"
        )
    checked = []
    for i, omega in enumerate(omegas):
        if not isinstance(omega, collections.abc.Iterable):
            raise MalformedSubsetError(
                f"{shape}; entry {i} is of type {type(omega).__name__}, "
                "not a collection of qubit labels"
            )
        checked.append(_check_subsystem(omega, n_qubits))
    return checked


class _CensusColumn(collections.abc.Mapping):
    """A read-only mapping of subsystem to its local witnesses of one kind,
    held as keys.

    ``witness_keys`` maps each subsystem to its witnesses' identity keys in
    ascending order: for a standard witness, its ``rows_rref`` key, which
    is its rows too; for a two-measurement witness, its (X part, Z part)
    split, whose parts are its rows.  ``column[omega]`` builds omega's
    specs from its keys on each access, with the checked constructor and
    the key passed in, and keeps none of them.  Membership, length and
    iteration read the keys and build no spec.
    """

    def __init__(
        self,
        witness_keys: dict[tuple[int, ...], list[tuple]],
        n_qubits: int,
        kind: WitnessKind = WitnessKind.STANDARD,
    ) -> None:
        self.witness_keys = witness_keys
        self.n_qubits = n_qubits
        self.kind = kind

    def __getitem__(self, omega: tuple[int, ...]) -> list[WitnessSpec]:
        keys, kind, n_qubits = self.witness_keys[omega], self.kind, self.n_qubits
        if kind is WitnessKind.TWO_MEASUREMENT:
            return [_split_spec(omega, n_qubits, split) for split in keys]
        return [WitnessSpec(kind, omega, n_qubits, k, key=k) for k in keys]

    def __contains__(self, omega) -> bool:
        return omega in self.witness_keys

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.witness_keys)

    def __len__(self) -> int:
        return len(self.witness_keys)


def _subgroup_search(
    span: Sequence[int], rank: int, n_qubits: int, allowed: AbstractSet[int]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Depth-first search over the rank-``rank`` subgroups of a group,
    pruned by the active region; yields (active mask, rows) at each leaf.

    ``span[c]`` is the packed 2N-bit row of the group element with exponent
    vector c, for c < 2^N.  Each subgroup is reached through the reduced
    row-echelon basis of its exponent subspace: a row's pivot is its lowest
    set bit and its free columns lie above the pivot, off the pivots
    already chosen.  Rows are chosen from the highest pivot down, so each
    row is final when it is chosen, and every subspace is reached at most
    once; a pivot too low to leave a column for each remaining row is
    skipped.

    When ``span`` is ``_span_rows`` of the group's ``rows_rref`` basis,
    exponent bit i selects the basis row with the i-th highest Pauli pivot,
    and an element's Pauli bits at those pivot columns are its exponent
    bits.  A lowest-set-bit exponent pivot is then a highest-set-bit Pauli
    pivot, and each pivot column is set in one row only, so the rows at a
    leaf, reversed, are the ``rows_rref`` key of their subgroup.

    ``letters`` is the OR of the rows chosen so far, and ``active`` the OR
    of their pair anticommutation masks.  A new row r makes the active
    region ``active | symp(letters, r)``.  That is exact: on a qubit outside
    ``active`` the rows so far carry I or one common letter, which is what
    ``letters`` holds there, so the product is 1 exactly when r
    anticommutes with one of them; on a qubit inside ``active`` the bit is
    already set.  The active region only grows, so a partial basis is
    pruned, with every extension, once its active region is not in
    ``allowed``.  The prune is exact when ``allowed`` is downward closed,
    holding every submask of each of its masks: a region outside it has no
    extension inside it.  A leaf may still have fewer active qubits than
    the masks it is allowed under.
    """
    full = (1 << n_qubits) - 1
    rows = [0] * rank
    last = rank - 1

    def extend(depth: int, top: int, used: int, letters: int, active: int):
        # pivots below the previous one, leaving a column for each row after
        for p in range(top - 1, last - depth - 1, -1):
            pivot = 1 << p
            free = full & ~used & -(pivot << 1)
            sub = free
            while True:
                r = span[pivot | sub]
                grown = active | (
                    ((letters >> n_qubits) & r) ^ (letters & (r >> n_qubits))
                )
                if grown in allowed:
                    rows[depth] = r
                    if depth == last:
                        yield grown, tuple(rows)
                    else:
                        yield from extend(
                            depth + 1, p, used | pivot, letters | r, grown
                        )
                if not sub:
                    break
                sub = (sub - 1) & free

    return extend(0, n_qubits, 0, 0, 0)


def _direct_keys(
    span: Sequence[int], rank: int, n_qubits: int, allowed: AbstractSet[int]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (active mask, RREF key) for every rank-``rank`` subgroup whose
    active region is in ``allowed`` and that seeds a local witness for
    that region, pruned as ``_subgroup_search`` prunes.  ``span`` is
    ``_span_rows(group.key)``, the group's rows by exponent vector over its
    ``rows_rref`` basis, so each leaf's rows, reversed, are its key.

    Pair masks have even weight, so the pseudo-incidence rank is at most
    |active| - 1, and (iii) needs active inside omega: only omega = active
    with |active| = k = rank can pass.  At such a leaf the rest of the
    predicate ``_failed_conditions`` holds by construction: (i) because
    independent exponent vectors give independent members of a commuting
    group, (iii) because every pair mask lies inside active, and the
    commutation half of (ii) because those masks have even weight.  Two
    ranks remain: the rows restricted to omega must have rank k, and the
    pair masks rank k - 1.

    For k <= 3 both hold by construction as well.  At k = 2 the one pair
    mask is all of active, weight 2 and so rank 1; and a product of a
    non-empty set of the two rows that is I on active would commute with
    both rows letterwise there, so the mask would be 0.  At k = 3 each
    mask is 0 or of weight 2 inside the 3 active qubits and their union is
    active, so two of them differ and their rank is 2.  If a product P of
    the rows in a non-empty set T were I on active, each per-qubit form
    w_q(x, y) = symp_q(sum x_i r_i, sum y_j r_j) would vanish on T and so
    live on a 2-dimensional quotient, whose alternating forms span one
    dimension: the columns (w_q(e_i, e_j)) over the pairs would all be 0
    or one common vector.  Each mask would then be 0 or the same set, and
    as the masks cover active, one of them would be all 3 active qubits,
    an odd weight.

    From k = 4 up the restricted rows, shifted above bit N, and the pair
    masks are stacked in one list.  Their bits do not overlap, so the
    ranks add, and the leaf passes exactly when the sum is 2k - 1.
    """
    for active, rows in _subgroup_search(span, rank, n_qubits, allowed):
        if active.bit_count() != rank:
            continue
        if rank > 3:
            omega_rows = (active << n_qubits) | active
            stacked = _pair_masks(rows, n_qubits)
            stacked += [(r & omega_rows) << n_qubits for r in rows]
            if rows_rank(stacked) != 2 * rank - 1:
                continue
        yield active, rows[::-1]


def _direct_lists(
    group: StabilizerGroup, wanted: Sequence[tuple[int, ...]]
) -> _CensusColumn:
    """Standard local witnesses for each sorted subsystem in ``wanted``, by
    the direct method, keyed in ``wanted`` order, as sorted keys.

    One depth-first search over the subgroups of the whole group per
    distinct size k in ``wanted`` (``_direct_keys``), pruned to the active
    regions in ``allowed``: every submask, 0 included, of the wanted
    subsystems of size k, made by clearing one qubit at a time.  A witness
    for omega has active region omega, and the region only grows as basis
    rows are added, so a partial basis whose region is no submask of a
    wanted omega has no wanted extension.  A leaf with k active qubits
    inside a wanted omega of size k is that omega, so each accepted
    subgroup is filed under its active region.  For one omega the prune
    drops every region that meets a qubit outside omega; for every
    subsystem of size k, every region of more than k qubits.
    """
    span = _span_rows(group.key)
    keys: dict[int, list[tuple[int, ...]]] = {_qubit_mask(o): [] for o in wanted}
    for rank in sorted(set(map(len, wanted))):
        allowed = {mask for mask in keys if mask.bit_count() == rank}
        for q in range(group.n_qubits):
            allowed |= {sub & ~(1 << q) for sub in allowed}
        for active, key in _direct_keys(span, rank, group.n_qubits, allowed):
            keys[active].append(key)
    return _CensusColumn(
        {omega: sorted(keys[_qubit_mask(omega)]) for omega in wanted},
        group.n_qubits,
    )


def enumerate_direct(
    group: StabilizerGroup, omega: Sequence[int]
) -> list[WitnessSpec]:
    """All standard local witnesses for one subsystem, one per spanned
    subgroup, sorted by identity key; equal to
    ``direct_census(group)[omega]``.

    One search of ``_direct_lists`` at rank |omega|, pruned once a partial
    basis's active region meets a qubit outside omega.  Raises
    MalformedSubsetError for a subsystem that is not 2..N-1 distinct labels
    in 1..N.
    """
    omega = _check_subsystem(omega, group.n_qubits)
    return _direct_lists(group, [omega])[omega]


def all_subsystems(n_qubits: int) -> list[tuple[int, ...]]:
    """Every qubit subset of size 2..N-1, ordered by size then lexicographic."""
    out: list[tuple[int, ...]] = []
    for n in range(2, n_qubits):
        out.extend(itertools.combinations(range(1, n_qubits + 1), n))
    return out


def direct_census(group: StabilizerGroup) -> _CensusColumn:
    """Standard local witnesses for every subsystem, by the direct method:
    ``_direct_lists`` of every subsystem, one search per rank k = 2..N-1,
    pruned once a partial basis has more than k active qubits."""
    return _direct_lists(group, all_subsystems(group.n_qubits))


# ---------------------------------------------------------------------------
# Graph-based method
# ---------------------------------------------------------------------------


def _orbit_pullback(
    q_le: LocalClifford, orbit: LcOrbit
) -> Iterator[tuple[Graph, tuple[int, ...], int, int]]:
    """Yield (member, sequence, Z frame, X frame) for every orbit member, in
    orbit order.

    A member's frames are the image rows (``LocalClifford.z_image`` and
    ``x_image``) of the letter map carrying its graph form back to the
    state; the seed's are those of ``q_le.inverse()``.  Complementing at v
    maps a graph's generators into the complemented graph's group by
    Z <-> Y on v and X <-> Y on each neighbor of v, maps that are their own
    inverses, so a member's map back is its breadth-first parent's after
    them, and its frames follow from the parent's by

        z ^= x & spread(v),  x ^= z & spread(N(v)),  spread(m) = (m << N) | m.
    """
    inverse = q_le.inverse()
    n_qubits = q_le.n_qubits
    by_sequence = {}
    for member, sequence in orbit.items():
        if not sequence:
            z, x = inverse.z_image, inverse.x_image
        else:
            z, x = by_sequence[sequence[:-1]]
            vertex = sequence[-1] - 1
            # v's neighborhood is the same before and after complementing
            hood = member.adjacency[vertex]
            z ^= x & ((1 << n_qubits) | 1) << vertex
            x ^= z & ((hood << n_qubits) | hood)
        by_sequence[sequence] = (z, x)
        yield member, sequence, z, x


def _pulled_rows(
    z: int, x: int, adjacency: Sequence[int], vertices: Iterable[int], n_qubits: int
) -> list[int]:
    """The graph generators of 0-based ``vertices``, X on u and Z on its
    neighbors, carried back to the state by a member's Z and X frames, as
    packed 2N-bit rows.  u is not its own neighbor, so the parts are disjoint."""
    qubit = (1 << n_qubits) | 1
    return [
        (x & qubit << u) | (z & ((adjacency[u] << n_qubits) | adjacency[u]))
        for u in vertices
    ]


def enumerate_graph_based(s: GeneratorSet) -> _CensusColumn:
    """Standard local witnesses reachable through locally equivalent graphs,
    for every subsystem, keyed in order of size, then labels.

    Pipeline: map the generator set onto a graph form, enumerate the full
    local-complementation orbit, pull the generators of every connected
    subsystem of every orbit graph back to the state, and finally conjugate
    everything by each local symmetry of the state.  Deduplicated by
    spanned subgroup (RREF key) per subsystem.

    Each member's frames come from its breadth-first parent's by two XORs
    (``_orbit_pullback``).  In a graph's own frame the product of the
    generators of a vertex set A has X-part exactly A, so the span of the
    generators of omega is the set of group elements whose letter on each
    qubit mu outside omega is I or the Z frame's letter of mu.  The key is
    therefore a function of the member's Z frame outside omega, and so is
    the connectivity of omega in the member (see the module docstring).

    The subsystems are built as a tree.  The parent of omega is omega
    without its largest qubit.  The qubits outside omega are some of those
    outside its parent, so masking a Z frame to omega's outside factors
    through masking it to the parent's, and projecting one member per
    distinct frame of the parent gives omega every distinct masked frame
    the whole orbit gives it.  Any member with the frame will do.  So each
    subsystem projects the members its parent kept, one per distinct
    frame, and only those of size 2, whose parent is one qubit, project the
    whole orbit.  Each subsystem keeps one member per distinct frame of its
    own in a plain list, unless it holds qubit N and so has no children.
    The lists of one size live until their children are built: a list is
    dropped after its last child, the one that adds qubit N, and the rest
    of the level once the next size is done.

    Each kept member is then keyed by its neighbourhood frame, not by its
    masked frame: z & spread(S), where S, the neighbourhood of omega less
    omega, holds the qubits outside omega with a neighbour in omega in that
    member.  Distinct neighbourhood frames give distinct keys and equal
    ones equal keys:

    - The span K of omega's generators is I on the qubits of O outside S,
      O the qubits outside omega, since a generator X_u Z_N(u) carries Z
      on the neighbours of u alone.  On each mu in S its letters are I or
      c_mu, the frame's Z letter of mu.
    - So K lies in L(S, c_S): the members that are I on O outside S and
      carry I or c_mu on each mu in S.
    - L(S, c_S) lies in K_c, the members with letter I or c_mu on each mu
      in O, and K_c = K (module docstring).  So K = L(S, c_S).
    - A member of the group is fixed by its letters, so L(S, c_S) is a
      function of c_S, and K has letter c_mu on each mu in S, where a
      neighbour's generator carries it: K also gives back S and c_S.
      Equal neighbourhood frames therefore give equal keys, and distinct
      ones distinct keys.
    - Connectivity of omega is a function of K (``_graph_reachable``), so
      it is tested once per neighbourhood frame too, and a connected one
      has its generators read off the frames (``_pulled_rows``) and
      reduced once.

    A local symmetry sigma maps the span K = L(S, c_S) onto L(S, sigma(c_S)):
    it keeps S and maps each letter c_mu on its own qubit.  So the sweep
    maps the neighbourhood frame first and reduces a key's image only when
    the image frame is new, and every frame it keeps gives a new key.  The
    symmetries are closed under inverse, so the sweep maps by each of them,
    not by its inverse.  The census makes one ``rows_rref`` per witness.
    """
    n_qubits = s.n_qubits
    q_le, _, graph0 = find_graph_equivalence(s)
    orbit = lc_orbit(graph0)
    symmetries = _local_symmetries(q_le, graph0)

    frames = [
        (member.adjacency, z, x) for member, _, z, x in _orbit_pullback(q_le, orbit)
    ]
    z_frame = itemgetter(1)
    others = [sym for sym in symmetries if not sym.is_identity()]
    full = (1 << n_qubits) - 1
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    # the one-qubit parents of the subsystems of size 2 keep the whole orbit
    size, parents, level = 1, {}, {(q,): frames for q in range(1, n_qubits)}
    for omega in all_subsystems(n_qubits):
        if len(omega) != size:
            size, parents, level = len(omega), level, {}
        mask = _qubit_mask(omega)
        outside = ((full ^ mask) << n_qubits) | (full ^ mask)
        # a subsystem holding qubit N has no children, and in this order it
        # is its parent's last child
        leaf = omega[-1] == n_qubits
        members = parents.pop(omega[:-1]) if leaf else parents[omega[:-1]]
        distinct = dict(zip(map(outside.__and__, map(z_frame, members)), members))
        if not leaf:
            level[omega] = list(distinct.values())
        indices = [q - 1 for q in omega]
        # keys by neighbourhood frame, and the frames where omega is not
        # connected
        keys, apart = {}, set()
        for masked, (adjacency, z, x) in distinct.items():
            hood = 0
            for u in indices:
                hood |= adjacency[u]
            # masked is I on omega, so this masks it to S
            frame = masked & ((hood << n_qubits) | hood)
            if frame in keys or frame in apart:
                continue
            if _connected_mask(adjacency, mask):
                rows = _pulled_rows(z, x, adjacency, indices, n_qubits)
                keys[frame] = tuple(rows_rref(rows))
            else:
                apart.add(frame)
        for frame, key in list(keys.items()):
            for sym in others:
                image = _map_row(sym, frame)
                if image not in keys:
                    keys[image] = tuple(rows_rref([_map_row(sym, r) for r in key]))
        out[omega] = sorted(keys.values())
    return _CensusColumn(out, n_qubits)


def _graph_reachable(
    keys: Sequence[tuple[int, ...]],
    omega: tuple[int, ...],
    group: StabilizerGroup,
) -> list[tuple[int, ...]]:
    """The keys of the direct witnesses for omega that
    ``enumerate_graph_based`` finds, in their order, out of ``keys``, the
    keys of omega's direct witnesses.

    For c, one letter in {X, Y, Z} on each qubit mu of the set O outside
    omega, K_c is the subgroup of members whose letter on each mu in O is I
    or c_mu.  A direct witness K for omega, k = |omega|, carries by (iii)
    at most one letter L_mu besides I on each qubit mu of O, and the OR of
    its rows there holds exactly those letters.  K is graph-based exactly
    when some c that agrees with those letters has dim K_c = k, and this
    holds exactly when no product of the carried single-qubit letters L_mu
    other than I is a member.  Such a product is I on omega, so it is one
    of the members idle on omega, I on every qubit of omega.  An idle
    member m other than I is a product of carried letters exactly when its
    letter on each qubit of O is I or L_mu: when the carried letters, on
    the qubits where m is not I, are m.  So only the idle members are
    tested, and where I is the only one, every key passes.  The verdict
    depends only on K's letters outside omega, so it is kept per letter
    pattern.

    The four direct conditions hold for a subgroup or for none of its
    bases: each qubit's letter anticommutation is bilinear, so the pair
    masks of a recombined basis are sums of the old ones.  Local letter
    maps preserve them too.  In a graph G's own frame, the generators
    X_v Z_N(v) of v in omega commute, are independent and carry only I and
    Z outside omega; their restrictions to omega generate the graph state
    of the induced subgraph G[omega]; and the pair mask of u and v is
    {u, v} when they are adjacent and empty otherwise.  The masks are then
    the incidence columns of G[omega], of rank k - 1 exactly when G[omega]
    is connected.  So that span is a direct witness exactly when omega is
    connected in G.

    Graph-based witnesses have such a c.  The walk keys, for each orbit
    member G in which omega is connected, the span of G's generators over
    omega carried to the state by G's frame, and the images of those spans
    under the state's local symmetries.  A product of G's generators over
    a vertex set A has X part A, so the span is the members of G's group
    with letter I or Z on each qubit of O.  Carried by the frame and a
    symmetry, it is K_c, of dimension k, with c_mu the image of Z on mu,
    and its letters on O are I or c_mu, so c agrees with them.

    Witnesses with such a c are graph-based.  By (iii) K lies in K_c, and
    as both have dimension k, K = K_c.  Take a local map U with U(c_mu) = Z
    on O.  The group's X bits on O are then a linear map whose kernel is
    U(K), of dimension k, so the map is onto and there are members h_mu
    whose X bits on O are the unit vector of mu.  By (ii) the restriction
    of K to omega is a stabilizer state of k qubits, so a local map V on
    omega gives it an invertible X block A (every stabilizer state has a
    graph form; Van den Nest, Dehaene and De Moor, PRA 69, 022316, 2004).
    The X block of the rows of VU(K) and the VU(h_mu) is then [A 0; B 1],
    whose inverse [A^-1 0; B A^-1 1] recombines the rows of VU(K) among
    themselves alone.  The recombined rows are X_v Z_R(v) with R
    symmetric, and an X <-> Y map on each qubit whose row has Y there
    clears R's diagonal and fixes the letters I and Z.  That gives a graph
    G, locally equivalent to the state's graph and so a member of its
    local-complementation orbit (same reference), and a local map W from
    G's state to the state that carries the span of G's generators over
    omega to K.  G's frame in the walk differs from W by a local symmetry
    of the state, which the sweep applies.  K passes (iv), so omega is
    connected in G.

    Such a c exists exactly when no carried product is a member.  For c
    that agrees with K, let C_c be the members of K_c that are I on omega.
    The members of K_c commute, and on each qubit of O their letters are I
    or c_mu, which commute, so their restrictions to omega commute and
    span at most k dimensions; the kernel of the restriction is C_c.  K
    lies in K_c and by (ii) restricts to k dimensions, so dim K_c = k +
    dim C_c.  If a product P of carried letters other than I is a member,
    P lies in C_c for every such c, and no c has dim K_c = k.  If none is,
    let O_I be the qubits of O where K is all I, and M the members that
    are I on omega and I or L_mu on each lettered qubit.  Two members of M
    that agree on O_I differ by a carried product that is a member, so
    they are equal: M restricts one-to-one to O_I.  Its image R commutes,
    as before, so it extends to a stabilizer state on O_I, which a local
    map U takes to a graph state (same reference).  Set c_mu = L_mu on the
    lettered qubits and c_mu = U^-1(Z) on O_I.  A member of C_c lies in M,
    and U takes its restriction to O_I to a member of the graph state with
    only I and Z letters, which is I, since a product of graph generators
    over A has X part A.  So C_c = {I} and dim K_c = k.
    """
    n_qubits = group.n_qubits
    full = (1 << n_qubits) - 1
    mask = _qubit_mask(omega)
    omega_rows = (mask << n_qubits) | mask
    # each idle member other than I, with its qubits spread over both blocks
    idle = []
    for m in group.rows:
        if m and not m & omega_rows:
            qubits = (m | m >> n_qubits) & full
            idle.append((m, (qubits << n_qubits) | qubits))
    if not idle:
        return list(keys)
    outside_rows = ((full << n_qubits) | full) ^ omega_rows
    verdicts: dict[int, bool] = {}
    kept = []
    for key in keys:
        letters = reduce(or_, key) & outside_rows
        passes = verdicts.get(letters)
        if passes is None:
            passes = verdicts[letters] = not any(
                letters & spread == m for m, spread in idle
            )
        if passes:
            kept.append(key)
    return kept


# ---------------------------------------------------------------------------
# Two-measurement form
# ---------------------------------------------------------------------------


def _xz_split(
    rows: Sequence[int], n_qubits: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The X-only and the Z-only rows of a ``rows_rref`` basis, each in
    key order, or None when a row has both parts.

    A row with a Z part has its pivot in the Z block, and back-substitution
    has cleared the pivot of every X-only row from it, so its X part lies
    in the span of the X-only rows only if that X part is 0.  Each part is
    then its own ``rows_rref`` key, and the pair is the two-measurement
    witness's identity key."""
    x_mask = (1 << n_qubits) - 1
    if any(r > x_mask and r & x_mask for r in rows):
        return None
    return (
        tuple(r for r in rows if r <= x_mask),
        tuple(r for r in rows if r > x_mask),
    )


def _split_spec(
    omega: Optional[tuple[int, ...]],
    n_qubits: int,
    split: tuple[tuple[int, ...], tuple[int, ...]],
) -> WitnessSpec:
    """The two-measurement witness of an (X part, Z part) split, whose
    parts are its rows and which is its identity key."""
    x_rows, z_rows = split
    return WitnessSpec(
        WitnessKind.TWO_MEASUREMENT,
        omega,
        n_qubits,
        x_rows + z_rows,
        x_rows,
        z_rows,
        key=split,
    )


def _joined(split: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, ...]:
    """The ``rows_rref`` key of the subgroup an (X part, Z part) split spans:
    its Z key then its X key.  Every Z row's pivot is in the Z block, every
    X row's in the X block, and no row has a bit in the other's block, so
    the rows are reduced as they stand, in descending order."""
    x_key, z_key = split
    return z_key + x_key


def _key_as(kind: WitnessKind, spec: WitnessSpec) -> Optional[tuple]:
    """The key the kernel of ``kind`` reads off ``spec.identity_key``, with
    no row reduced: the key itself when both kinds have one key shape, the
    split of a standard key (None when it does not split, ``_xz_split``),
    or the standard key of a split (``_joined``)."""
    two_measurement = WitnessKind.TWO_MEASUREMENT
    if (kind is two_measurement) == (spec.kind is two_measurement):
        return spec.identity_key
    if kind is two_measurement:
        return _xz_split(spec.identity_key, spec.n_qubits)
    return _joined(spec.identity_key)


def two_measurement_from_standard(spec: WitnessSpec) -> Optional[WitnessSpec]:
    """Two-measurement variant of a witness, when its subgroup splits.

    The split is read off the spec's identity key (``_key_as``), with no
    row reduced.  The variant's X and Z parts are the split's rows, which
    together are also its identity key.
    """
    split = _key_as(WitnessKind.TWO_MEASUREMENT, spec)
    return None if split is None else _split_spec(spec.omega, spec.n_qubits, split)


def _pure_members(group: StabilizerGroup) -> frozenset[int]:
    """The group's packed rows that are X-only or Z-only, I included."""
    x_mask = (1 << group.n_qubits) - 1
    return frozenset(r for r in group.rows if not (r & x_mask and r > x_mask))


def _two_measurement_variants(
    keys: Mapping[tuple[int, ...], Sequence[tuple[int, ...]]], group: StabilizerGroup
) -> _CensusColumn:
    """The two-measurement column of the group's direct witnesses, given by
    their keys per subsystem: each subsystem's (X part, Z part) splits, in
    ascending order.  A split is its variant's identity key, and its two
    parts together are the witness's key, so distinct witnesses give
    distinct variants.

    Each row of a witness's key is a product of members, so a member, and
    ``_xz_split`` returns None exactly when a row has both an X and a Z
    part: the key splits exactly when the group's X-only and Z-only
    members (``_pure_members``) hold all its rows.  So one set test per
    witness picks the ones to split, and each ``_xz_split`` call returns a
    split.  No spec is built until the column is read.
    """
    pure, n_qubits = _pure_members(group), group.n_qubits
    splits = {
        omega: sorted(_xz_split(k, n_qubits) for k in omega_keys if pure.issuperset(k))
        for omega, omega_keys in keys.items()
    }
    return _CensusColumn(splits, n_qubits, kind=WitnessKind.TWO_MEASUREMENT)


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


# The classes are drawn on the color code's own group: the string-like and
# plaquette-like subsystems are the supports of its 3-qubit and 4-qubit
# members, seven of each.
_COLOR_CODE = span_group(build_color_code())
_STRING_LIKE, _PLAQUETTE_LIKE = (
    frozenset(
        frozenset(e.support()) for e in _COLOR_CODE.elements
        if len(e.support()) == size
    )
    for size in (3, 4)
)


def classify_subsystem(omega: Sequence[int]) -> SubsystemClass:
    """Subsystem class on the seven-qubit color code layout.

    Three-qubit subsets split into string-like (supports of the code's
    weight-3 stabilizers) and the rest; four-qubit subsets into
    plaquette-like (supports of its weight-4 stabilizers) and the rest.
    Other sizes are unclassified.
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


# The census's columns in report order: the names of the ``WitnessCensus``
# column fields, of the ``reporting.CensusRow`` count fields, of the census
# report's count columns and of ``WitnessCensus.totals``.
_COLUMNS = ("direct", "graph_based", "two_measurement")
# The census methods ``run_census`` takes, in the order the CLI lists them.
_METHODS = ("direct", "graph", "twomeas")


@dataclass(frozen=True)
class WitnessCensus:
    """Per-subsystem witness lists for the selected construction methods.

    ``direct``, ``graph_based`` and ``two_measurement`` are read-only
    mappings of subsystem to spec list, all of one class
    (``_CensusColumn``), that hold keys and build a subsystem's specs on
    each access, keeping none: the standard columns hold ``rows_rref``
    keys, the two-measurement column (X part, Z part) splits.
    ``group_key`` is ``StabilizerGroup.key``, the ``groups.basis_key`` of
    the state's generators: it names the state's group whichever
    generators were given, and the reports use it to tell the color code
    from other states.
    """

    n_qubits: int
    omegas: tuple[tuple[int, ...], ...]
    direct: Optional[_CensusColumn]
    graph_based: Optional[_CensusColumn]
    two_measurement: Optional[_CensusColumn]
    group_key: tuple[int, ...] = ()

    def subsystems(self) -> list[tuple[int, ...]]:
        return list(self.omegas)

    def _lists(self) -> tuple[Optional[Mapping[tuple[int, ...], list]], ...]:
        """Each column's witness keys per subsystem, in ``_COLUMNS`` order,
        None for a method not run."""
        columns = (getattr(self, name) for name in _COLUMNS)
        return tuple(None if c is None else c.witness_keys for c in columns)

    def totals(self) -> dict[str, Optional[int]]:
        return {
            name: None if lists is None else sum(map(len, lists.values()))
            for name, lists in zip(_COLUMNS, self._lists())
        }


def run_census(
    s: GeneratorSet,
    methods: Iterable[str] = _METHODS,
    omegas: Optional[Sequence[Sequence[int]]] = None,
) -> WitnessCensus:
    """Enumerate witnesses with the selected methods.

    ``methods`` may contain the names in ``_METHODS``, "direct", "graph"
    and "twomeas", and defaults to all three.  An unknown name raises
    ValueError.  The two-measurement census is derived from the direct
    one: the group's X-only and Z-only members are collected once, and
    only the direct witness keys whose rows are all among them are split
    (``_two_measurement_variants``), with no spec built; the column keeps
    the sorted splits.  ``omegas`` restricts the subsystems (default: all
    of size 2..N-1) and raises MalformedSubsetError for one that is not
    2..N-1 distinct labels in 1..N.  The direct witnesses come from one
    pruned search of the whole group per wanted subsystem size
    (``_direct_lists``): through ``direct_census`` without ``omegas``, for
    the requested subsystems with them.

    The graph method alone without ``omegas`` walks the
    local-complementation orbit (``enumerate_graph_based``).  Every other
    census runs the direct search, and reads the graph-based witnesses off
    it when "graph" is asked for: each subsystem's direct keys are filtered
    to those none of whose products of single-qubit letters outside the
    subsystem, other than I, is a member, tested against the members that
    are I on the subsystem, once per distinct letter pattern
    (``_graph_reachable``), in the direct lists' order.  The census keeps
    keys: each of its columns builds a subsystem's specs on each access
    and keeps none.  The direct lists are dropped unless "direct" is asked
    for.

    ``methods`` given as one string, or ``omegas`` given as one flat
    subsystem such as (1, 2) rather than [(1, 2)], raise ValueError and
    MalformedSubsetError.
    """
    if isinstance(methods, str):
        raise ValueError(
            "methods must be a collection of method names, "
            "such as ('graph',), not a string"
        )
    methods = set(methods)
    unknown = methods.difference(_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    group = span_group(s)
    if omegas is None:
        wanted = all_subsystems(s.n_qubits)
    else:
        wanted = list(dict.fromkeys(_check_subsystems(omegas, s.n_qubits)))

    direct = twomeas = graph_based = None
    if methods == {"graph"} and omegas is None:
        graph_based = enumerate_graph_based(s)
    elif methods:
        searched = (
            direct_census(group) if omegas is None else _direct_lists(group, wanted)
        )
        keys = searched.witness_keys
        if "twomeas" in methods:
            twomeas = _two_measurement_variants(keys, group)
        if "direct" in methods:
            direct = searched
        if "graph" in methods:
            graph_based = _CensusColumn(
                {omega: _graph_reachable(keys[omega], omega, group) for omega in wanted},
                s.n_qubits,
            )

    return WitnessCensus(
        s.n_qubits, tuple(wanted), direct, graph_based, twomeas, group.key
    )
