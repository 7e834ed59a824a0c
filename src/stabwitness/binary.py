"""Phaseless binary representation of Pauli operators and GF(2) linear algebra.

Pauli operators are stored as a pair of bit-packed integers (one bit per
qubit): the Z-block and the X-block.  Qubit labels are 1-based everywhere in
the public API, matching the text format where qubit 1 is the leftmost
character; internally qubit ``k`` occupies bit ``k - 1``.  All phases are
discarded: products are componentwise XOR and every operator is its own
inverse.  Pauli text is parsed in one place, ``parse_row``, straight to the
operator's packed row (``pauli_row``): ``parse_pauli`` builds the operator
from it, and a dataset's record check keeps the row alone.

All GF(2) elimination goes through one of two steps.  The forward step,
``_reduce_into``, reduces one row against an echelon basis and adds it when
it is independent; ``_echelon`` is a loop over it, ``rows_rank`` is the
length of its basis, and a caller that needs a verdict before the last row,
such as the direct search's leaf test, runs the step itself and stops at
the verdict.  The reduced step, ``_insert_reduced``, adds one row to a
reduced row-echelon basis and keeps it reduced; ``rows_rref`` is a loop
over it, and a caller that extends a known key by one row, such as the
graph census going from a subsystem to its child, runs the step once.
Matrix inversion and solving are reductions of augmented rows with
``rows_rref``: ``solve_mod2`` reduces [A_i | b_i], and
``cliffords.find_graph_equivalence`` reduces [X_i | Z_i | e_i], bringing
the X block to the identity and reading its inverse off the low bits.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

__all__ = [
    "PauliOperator",
    "BitMatrix",
    "multiply",
    "commutes",
    "rank_mod2",
    "solve_mod2",
    "parse_pauli",
]

_LETTER_TO_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_LETTERS = "".join(_LETTER_TO_BITS)
# each letter's Z digit and X digit, as ``str.translate`` tables
_Z_DIGITS, _X_DIGITS = (
    str.maketrans({letter: str(bits[i]) for letter, bits in _LETTER_TO_BITS.items()})
    for i in (0, 1)
)


@dataclass(frozen=True)
class PauliOperator:
    """A phaseless N-qubit Pauli operator as (Z-block, X-block) bit vectors.

    Single-qubit letters decode from the (z, x) bit pair as I=(0,0), X=(0,1),
    Y=(1,1), Z=(1,0).
    """

    n_qubits: int
    z_bits: int
    x_bits: int

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        limit = 1 << self.n_qubits
        if not (0 <= self.z_bits < limit and 0 <= self.x_bits < limit):
            raise ValueError(
                f"bit vectors out of range for {self.n_qubits} qubits"
            )

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls(n_qubits, 0, 0)

    @property
    def is_identity(self) -> bool:
        return self.z_bits == 0 and self.x_bits == 0

    @property
    def support_mask(self) -> int:
        """Bit mask of qubits carrying a non-identity letter."""
        return self.z_bits | self.x_bits

    def support(self) -> tuple[int, ...]:
        """Sorted 1-based qubit labels with a non-identity letter."""
        return tuple(
            q for q in range(1, self.n_qubits + 1)
            if (self.support_mask >> (q - 1)) & 1
        )

    def letter_at(self, qubit: int) -> str:
        """Single-qubit letter at a 1-based position."""
        if not 1 <= qubit <= self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range 1..{self.n_qubits}")
        shift = qubit - 1
        return _BITS_TO_LETTER[((self.z_bits >> shift) & 1, (self.x_bits >> shift) & 1)]

    def to_text(self) -> str:
        return "".join(self.letter_at(q) for q in range(1, self.n_qubits + 1))

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __str__(self) -> str:
        return self.to_text()


def parse_row(text: str) -> int:
    """The packed row (``pauli_row``) of a Pauli string over {I,X,Y,Z},
    with no operator built: the one parse of Pauli text.

    Qubit 1 is the leftmost letter and the lowest bit of each block, so the
    reversed string's Z digits then its X digits are the row in binary."""
    if not text:
        raise ValueError("empty Pauli string")
    if text.strip(_LETTERS):
        letter = next(c for c in text if c not in _LETTER_TO_BITS)
        raise ValueError(f"invalid Pauli letter {letter!r} in {reprlib.repr(text)}")
    backwards = text[::-1]
    return int(backwards.translate(_Z_DIGITS) + backwards.translate(_X_DIGITS), 2)


def parse_pauli(text: str) -> PauliOperator:
    """Parse a Pauli string over {I,X,Y,Z}; qubit 1 is the leftmost letter."""
    return pauli_from_row(parse_row(text), len(text))


def _check_same_size(a: PauliOperator, b: PauliOperator) -> None:
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"operator sizes differ: {a.n_qubits} vs {b.n_qubits} qubits"
        )


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Phaseless product: componentwise XOR of the (Z, X) bit vectors."""
    _check_same_size(a, b)
    return PauliOperator(a.n_qubits, a.z_bits ^ b.z_bits, a.x_bits ^ b.x_bits)


def anticommutation_mask(a: PauliOperator, b: PauliOperator) -> int:
    """Bit mask of qubits where the single-qubit letters anticommute."""
    _check_same_size(a, b)
    return (a.z_bits & b.x_bits) ^ (a.x_bits & b.z_bits)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic product z_a.x_b + x_a.z_b vanishes mod 2."""
    return bin(anticommutation_mask(a, b)).count("1") % 2 == 0


def pauli_row(p: PauliOperator) -> int:
    """Pack a Pauli into a single 2N-bit row: Z-block in the high N bits."""
    return (p.z_bits << p.n_qubits) | p.x_bits


def pauli_from_row(row: int, n_qubits: int) -> PauliOperator:
    mask = (1 << n_qubits) - 1
    return PauliOperator(n_qubits, row >> n_qubits, row & mask)


# ---------------------------------------------------------------------------
# Bit-packed GF(2) matrices.  Each row is an int whose bit j is column j.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitMatrix:
    """A binary matrix with row-major bit-packed storage."""

    n_rows: int
    n_cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.row_bits) != self.n_rows:
            raise ValueError("row count does not match storage")
        limit = 1 << self.n_cols
        if any(not 0 <= r < limit for r in self.row_bits):
            raise ValueError("row bits exceed column count")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n_cols: Optional[int] = None) -> "BitMatrix":
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            bits = 0
            for j, entry in enumerate(row):
                if entry & 1:
                    bits |= 1 << j
            packed.append(bits)
        return cls(len(rows), n_cols, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return (self.row_bits[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [
            [(bits >> j) & 1 for j in range(self.n_cols)]
            for bits in self.row_bits
        ]

    def transpose(self) -> "BitMatrix":
        cols = []
        for j in range(self.n_cols):
            bits = 0
            for i in range(self.n_rows):
                if (self.row_bits[i] >> j) & 1:
                    bits |= 1 << i
            cols.append(bits)
        return BitMatrix(self.n_cols, self.n_rows, tuple(cols))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"cannot multiply {self.n_rows}x{self.n_cols} by "
                f"{other.n_rows}x{other.n_cols}"
            )
        rows = []
        for bits in self.row_bits:
            acc = 0
            rest = bits
            while rest:
                low = rest & -rest
                acc ^= other.row_bits[low.bit_length() - 1]
                rest ^= low
            rows.append(acc)
        return BitMatrix(self.n_rows, other.n_cols, tuple(rows))


def _reduce_into(basis: dict[int, int], row: int) -> bool:
    """One step of forward elimination: reduce ``row`` against ``basis``, a
    map of leading bit length to the basis row that owns it, and file what
    is left under its own leading bit.  True when the row was independent
    of the basis and so was added; False when it reduced to 0.

    Clearing the leading bit with the row that owns it lowers the leading
    bit, until the row is zero or claims a free pivot."""
    while row:
        lead = row.bit_length()
        owner = basis.get(lead)
        if owner is None:
            basis[lead] = row
            return True
        row ^= owner
    return False


def _echelon(rows: Iterable[int]) -> list[int]:
    """Forward elimination: a basis of the row span in which every row has
    its own leading bit, its pivot.  Rows are in no particular order."""
    by_pivot: dict[int, int] = {}
    for row in rows:
        _reduce_into(by_pivot, row)
    return list(by_pivot.values())


def rows_rank(rows: Iterable[int]) -> int:
    """Rank of a collection of bit-packed rows over GF(2)."""
    return len(_echelon(rows))


def _insert_reduced(key: tuple[int, ...], row: int) -> tuple[int, ...]:
    """One step of reduced elimination: the reduced row-echelon basis
    (sorted descending) of the span of ``key``, itself such a basis, and
    ``row``.  ``key`` comes back unchanged when the row is in its span.

    XOR with a basis row lowers a row exactly when the row holds that basis
    row's leading bit, and every other pivot is 0 in a reduced basis row,
    so one pass clears each pivot from the row in any order.  What is left
    leads with a new pivot, which one more pass clears from the basis rows;
    those keep their own leading bits, and the row takes its place by it."""
    for r in key:
        if row ^ r < row:
            row ^= r
    if not row:
        return key
    pivot = 1 << row.bit_length() - 1
    rows = [r ^ row if r & pivot else r for r in key]
    rows.append(row)
    rows.sort(reverse=True)
    return tuple(rows)


def rows_rref(rows: Iterable[int]) -> list[int]:
    """Reduced row-echelon basis (as ints, sorted descending) of the row span."""
    return list(reduce(_insert_reduced, rows, ()))


def rank_mod2(m: BitMatrix) -> int:
    """Row-echelon rank over GF(2); the input is not mutated."""
    return rows_rank(m.row_bits)


def solve_mod2(a: BitMatrix, b: int) -> tuple[Optional[int], list[int]]:
    """Solve ``a @ x = b`` over GF(2).

    ``b`` is a bit-packed column vector (bit i = row i), and solutions are
    bit-packed over the columns of ``a``.  Returns one particular solution
    (or None if the system is inconsistent) together with a basis of the
    homogeneous solution space.
    """
    if b >> a.n_rows:
        raise ValueError("right-hand side longer than the row count")
    # Augmented rows [a_i | b_i] with the right-hand side in bit 0; each
    # reduced row's pivot is its leading bit, so column c sits in bit c + 1.
    # The reduced row 1 reads 0 = 1: the system is inconsistent.
    reduced = rows_rref(
        (row << 1) | ((b >> i) & 1) for i, row in enumerate(a.row_bits)
    )
    pivots = [r.bit_length() - 2 for r in reduced]
    solution = None
    if 1 not in reduced:
        solution = 0
        for r, col in zip(reduced, pivots):
            solution |= (r & 1) << col
    nullspace: list[int] = []
    for free in range(a.n_cols):
        if free in pivots:
            continue
        vec = 1 << free
        for r, col in zip(reduced, pivots):
            if (r >> (free + 1)) & 1:
                vec |= 1 << col
        nullspace.append(vec)
    return solution, nullspace
