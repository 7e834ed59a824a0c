"""Generator sets, stabilizer groups, recombinations, and named codes.

A generator set holds N independent, mutually commuting Pauli operators; the
stabilizer group it spans contains the 2^N phaseless products, indexed by the
N-bit exponent vector selecting which generators enter the product.  All
stabilizers carry an implicit +1 phase.
"""

from __future__ import annotations

import collections.abc
import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .binary import (
    BitMatrix,
    PauliOperator,
    anticommutation_mask,
    parse_pauli,
    pauli_from_row,
    pauli_row,
    rank_mod2,
    rows_rank,
    rows_rref,
)

__all__ = [
    "GeneratorSet",
    "StabilizerGroup",
    "RecombinationMatrix",
    "GeneratorSubset",
    "InvalidGeneratorSetError",
    "InvalidRecombinationError",
    "span_group",
    "span_paulis",
    "recombine",
    "build_color_code",
    "basis_key",
    "code_to_json",
    "code_from_json",
    "load_named_code",
    "NAMED_CODES",
]

# Materializing 2^N elements beyond this point is almost certainly a mistake.
MAX_SPAN_QUBITS = 20


class InvalidGeneratorSetError(ValueError):
    """Generators are not independent or do not mutually commute."""


class InvalidRecombinationError(ValueError):
    """Recombination matrix is not square and non-singular."""


@dataclass(frozen=True)
class GeneratorSet:
    """N independent, mutually commuting Pauli operators on N qubits."""

    n_qubits: int
    generators: tuple[PauliOperator, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        gens = self.generators
        if len(gens) != self.n_qubits:
            raise InvalidGeneratorSetError(
                f"expected {self.n_qubits} generators, got {len(gens)}"
            )
        if any(g.n_qubits != self.n_qubits for g in gens):
            raise InvalidGeneratorSetError("generator size mismatch")
        if self.labels is not None and len(self.labels) != len(gens):
            raise InvalidGeneratorSetError("label count mismatch")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if bin(anticommutation_mask(gens[i], gens[j])).count("1") % 2:
                    raise InvalidGeneratorSetError(
                        f"generators {i} and {j} anticommute"
                    )
        if rows_rank(pauli_row(g) for g in gens) != len(gens):
            raise InvalidGeneratorSetError("generators are not independent")

    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        labels: Optional[Sequence[str]] = None,
    ) -> "GeneratorSet":
        gens = tuple(parse_pauli(t) for t in texts)
        if not gens:
            raise InvalidGeneratorSetError("no generators given")
        return cls(
            gens[0].n_qubits,
            gens,
            tuple(labels) if labels is not None else None,
        )


@dataclass(frozen=True)
class StabilizerGroup:
    """The 2^N products of a generator set, indexed by exponent vector.

    ``rows`` holds them as packed 2N-bit rows (``binary.pauli_row``), as
    ``_span_rows`` forms them; ``elements`` is the same members as
    ``PauliOperator``s, built on first access.
    """

    generator_set: GeneratorSet
    rows: tuple[int, ...] = field(repr=False)

    @property
    def n_qubits(self) -> int:
        return self.generator_set.n_qubits

    @functools.cached_property
    def elements(self) -> tuple[PauliOperator, ...]:
        return tuple(pauli_from_row(r, self.n_qubits) for r in self.rows)

    @functools.cached_property
    def key(self) -> tuple[int, ...]:
        """``basis_key`` of the generators: the group's RREF basis."""
        return basis_key(self.generator_set.generators)

    def element(self, exponent: int) -> PauliOperator:
        return self.elements[exponent]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: PauliOperator) -> bool:
        return self.exponent_of(p) is not None

    def exponent_of(self, p: PauliOperator) -> Optional[int]:
        if p.n_qubits == self.n_qubits:
            return self._index.get(pauli_row(p))
        return None

    @functools.cached_property
    def _index(self) -> dict[int, int]:
        return {row: i for i, row in enumerate(self.rows)}

    def non_identity(self) -> tuple[PauliOperator, ...]:
        return self.elements[1:]


def span_paulis(paulis: Sequence[PauliOperator]) -> list[PauliOperator]:
    """All 2^k phaseless products of k Paulis, indexed by exponent vector."""
    if not paulis:
        raise ValueError("cannot span an empty sequence")
    n = paulis[0].n_qubits
    if any(p.n_qubits != n for p in paulis):
        raise ValueError("cannot span Paulis on different qubit counts")
    return [pauli_from_row(r, n) for r in _span_rows(pauli_row(p) for p in paulis)]


def _span_rows(rows: Iterable[int]) -> list[int]:
    """All 2^k XOR combinations of k packed rows; bit i of an entry's index
    selects row i, so entry 0 is the identity."""
    span = [0]
    for row in rows:
        span += [r ^ row for r in span]
    return span


def span_group(s: GeneratorSet) -> StabilizerGroup:
    """Materialize the full 2^N-element group spanned by a generator set."""
    if s.n_qubits > MAX_SPAN_QUBITS:
        raise ValueError(
            f"refusing to materialize 2^{s.n_qubits} elements "
            f"(cap is {MAX_SPAN_QUBITS} qubits)"
        )
    rows = tuple(_span_rows(pauli_row(g) for g in s.generators))
    if len(set(rows)) != len(rows):
        raise InvalidGeneratorSetError("spanned elements are not distinct")
    return StabilizerGroup(s, rows)


@dataclass(frozen=True)
class RecombinationMatrix:
    """A non-singular square binary matrix selecting generator products.

    Row i lists (as bits over the old generator indices) the factors entering
    new generator i.
    """

    matrix: BitMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.n_rows != m.n_cols:
            raise InvalidRecombinationError("recombination matrix must be square")
        if rank_mod2(m) != m.n_rows:
            raise InvalidRecombinationError("recombination matrix is singular")

    @classmethod
    def identity(cls, n: int) -> "RecombinationMatrix":
        return cls(BitMatrix.identity(n))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "RecombinationMatrix":
        return cls(BitMatrix.from_rows(rows))

    @property
    def size(self) -> int:
        return self.matrix.n_rows


def recombine(s: GeneratorSet, r: RecombinationMatrix) -> GeneratorSet:
    """New generator i is the product of the old generators with bit set in
    row i of the recombination matrix; the spanned group is unchanged."""
    if r.size != len(s.generators):
        raise InvalidRecombinationError(
            f"recombination size {r.size} does not match "
            f"{len(s.generators)} generators"
        )
    n = s.n_qubits
    gens = BitMatrix(n, 2 * n, tuple(pauli_row(g) for g in s.generators))
    rows = (r.matrix @ gens).row_bits
    return GeneratorSet(n, tuple(pauli_from_row(row, n) for row in rows))


@dataclass(frozen=True)
class GeneratorSubset:
    """Commuting stabilizers tied to a qubit subset, a witness candidate.

    ``omega`` holds sorted 1-based int qubit labels with one stabilizer per
    label.  ``omega`` and ``stabilizers`` are kept as tuples, so a subset
    given lists equals and hashes like one given tuples; one that is not a
    collection raises ValueError naming it.  Only structural consistency
    is enforced here; the algebraic requirements (independence,
    commutation, locality) are what ``check_direct`` decides.
    """

    omega: tuple[int, ...]
    stabilizers: tuple[PauliOperator, ...]

    def __post_init__(self) -> None:
        for name in ("omega", "stabilizers"):
            object.__setattr__(self, name, _collection(name, getattr(self, name)))
        if not self.stabilizers:
            raise ValueError("subset needs at least one stabilizer")
        n_qubits = self.stabilizers[0].n_qubits
        if any(p.n_qubits != n_qubits for p in self.stabilizers):
            raise ValueError("stabilizer size mismatch")
        if len(self.omega) != len(self.stabilizers):
            raise ValueError(
                f"{len(self.omega)} qubits vs {len(self.stabilizers)} stabilizers"
            )
        _check_scope(self.omega, n_qubits)

    @property
    def n_qubits(self) -> int:
        return self.stabilizers[0].n_qubits

    @property
    def size(self) -> int:
        return len(self.stabilizers)

    @property
    def omega_mask(self) -> int:
        return _qubit_mask(self.omega)


def _collection(name: str, value) -> tuple:
    """``value`` as a tuple; raises ValueError naming the field ``name``
    when it is not a collection, such as one int given for its rows."""
    if not isinstance(value, collections.abc.Iterable):
        raise ValueError(f"{name} must be a collection, not {value!r}")
    return tuple(value)


def _check_scope(omega: Sequence[int], n_qubits: int) -> None:
    """Raise ValueError unless omega is sorted, duplicate-free int labels
    in 1..n_qubits; a bool is not a label."""
    strays = _not_ints(omega)
    if strays:
        raise ValueError(f"omega has labels that are not integers: {strays}")
    if list(omega) != sorted(set(omega)):
        raise ValueError("omega must be sorted and duplicate-free")
    if omega and not (1 <= omega[0] and omega[-1] <= n_qubits):
        raise ValueError(f"omega outside 1..{n_qubits}")


def _not_ints(values: Iterable) -> str:
    """The entries of ``values`` that are not ints, or are bools, as their
    reprs joined by commas; empty when every entry is an int."""
    return ", ".join(
        repr(v) for v in values if isinstance(v, bool) or not isinstance(v, int)
    )


def _qubit_mask(qubits: Iterable[int]) -> int:
    """Bit mask of distinct 1-based qubit labels: qubit k is bit k - 1."""
    return sum(1 << (q - 1) for q in qubits)


def basis_key(paulis: Iterable[PauliOperator]) -> tuple[int, ...]:
    """Canonical key of the subgroup spanned by the given Paulis.

    The key is the reduced row-echelon basis of the packed 2N-bit rows,
    sorted descending; equal subgroups always yield equal keys, whatever
    generating set is given, the full member list included.
    """
    return tuple(rows_rref(pauli_row(p) for p in paulis))


# ---------------------------------------------------------------------------
# Named codes and the code-definition JSON format.
# ---------------------------------------------------------------------------

_COLOR_CODE_TEXTS = (
    ("ZZZZIII", "s_R^Z"),
    ("IZZIZZI", "s_B^Z"),
    ("IIZZIZZ", "s_G^Z"),
    ("XXXXIII", "s_R^X"),
    ("IXXIXXI", "s_B^X"),
    ("IIXXIXX", "s_G^X"),
    ("XXXXXXX", "s_L^X"),
)


def build_color_code() -> GeneratorSet:
    """The seven-qubit color code: three Z plaquettes, three X plaquettes,
    and the all-X logical operator, on the triangular seven-qubit layout."""
    texts = [t for t, _ in _COLOR_CODE_TEXTS]
    labels = [l for _, l in _COLOR_CODE_TEXTS]
    return GeneratorSet.from_texts(texts, labels)


NAMED_CODES = {"color_code_7": build_color_code}


def code_to_json(s: GeneratorSet, name: str = "custom") -> str:
    payload = {
        "name": name,
        "n_qubits": s.n_qubits,
        "generators": [g.to_text() for g in s.generators],
    }
    if s.labels is not None:
        payload["labels"] = list(s.labels)
    return json.dumps(payload, indent=2)


def code_from_json(text: str) -> tuple[str, GeneratorSet]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid code JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("code JSON must be an object")
    try:
        name = payload["name"]
        n_qubits = payload["n_qubits"]
        texts = payload["generators"]
    except KeyError as exc:
        raise ValueError(f"code JSON missing field {exc}") from exc
    labels = payload.get("labels")
    if type(n_qubits) is not int:
        raise ValueError('code JSON field "n_qubits" must be an integer')
    for field, value in (
        ("generators", texts),
        ("labels", [] if labels is None else labels),
    ):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f'code JSON field "{field}" must be a list of strings')
    gens = GeneratorSet.from_texts(texts, labels)
    if gens.n_qubits != n_qubits:
        raise ValueError(
            f"declared n_qubits {n_qubits} does not match generators"
        )
    return name, gens


def load_named_code(name: str) -> GeneratorSet:
    try:
        return NAMED_CODES[name]()
    except KeyError:
        raise KeyError(
            f"unknown code {name!r}; known: {sorted(NAMED_CODES)}"
        ) from None
