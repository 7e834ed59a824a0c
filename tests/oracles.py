"""The test oracles of the census's graph column and of the witness values:
one definition each, on Pauli text, sharing no code with the library.

A Pauli text's packed row keeps the X bit of qubit q (1-based, the q-th
letter) at bit q - 1 and its Z bit at bit N + q - 1; the product of two
members, up to phase, is the XOR of their rows.  A subgroup's key is its
reduced row-echelon basis, rows sorted descending: one canonical tuple per
subgroup, the library's ``identity_key`` of a standard witness.

Graph column.  A subsystem omega's graph-based witnesses are the letter
kernels (Van den Nest, Dehaene and De Moor, PRA 69, 022316, 2004): for
each choice c of one letter X, Y or Z per qubit outside omega, K_c holds
the members whose letter on each such qubit mu is I or c_mu.  Each letter
is one linear condition on the members, so K_c is the null space of one
functional per outside qubit.  K_c is a witness when its dimension is
|omega| and it passes the direct conditions (ii) and (iv).

Witness values.  A member reads expectation 1 and variance 0 when it is
the identity; else, from measured records, its record's expectation e and
(1 - e^2) / shots, and under white noise of visibility p, p and 0.  A
span's members are summed in ascending packed-row order, a basis in its
given order, and a two-measurement witness's X part before its Z part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence, Union

# ---------------------------------------------------------------------------
# Pauli text and GF(2)
# ---------------------------------------------------------------------------


def row_of(text: str) -> int:
    """The packed row of a Pauli text."""
    n = len(text)
    row = 0
    for q, letter in enumerate(text):
        if letter not in "IXYZ":
            raise ValueError(f"letter {letter!r} of {text!r} is not I, X, Y or Z")
        if letter in "XY":
            row |= 1 << q
        if letter in "ZY":
            row |= 1 << (n + q)
    return row


def text_of(row: int, n_qubits: int) -> str:
    """The Pauli text of a packed row on ``n_qubits`` qubits."""
    return "".join(
        "IXZY"[(row >> q & 1) | (row >> (n_qubits + q) & 1) << 1]
        for q in range(n_qubits)
    )


def rank(rows: Sequence[int]) -> int:
    """The GF(2) rank of bit rows."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def key_of(rows: Sequence[int]) -> tuple[int, ...]:
    """The reduced row-echelon basis of the span of ``rows``, sorted
    descending: each row has its own leading bit, clear in every other."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row ^ b < row:  # row holds b's leading bit
                row ^= b
        if row:
            lead = 1 << (row.bit_length() - 1)
            basis = [b ^ row if b & lead else b for b in basis] + [row]
    return tuple(sorted(basis, reverse=True))


@lru_cache(maxsize=None)
def span(texts: tuple[str, ...]) -> tuple[str, ...]:
    """Every product of a subset of the Pauli texts, the empty product I
    included, ascending by packed row; a repeated product is listed once."""
    n = len(texts[0])
    rows = {0}
    for text in texts:
        row = row_of(text)
        rows |= {r ^ row for r in rows}
    return tuple(text_of(r, n) for r in sorted(rows))


# ---------------------------------------------------------------------------
# Graph column
# ---------------------------------------------------------------------------


def subsystems(n_qubits: int) -> list[tuple[int, ...]]:
    """Every qubit subset of size 2..N-1, by size then lexicographic."""
    return [
        omega
        for size in range(2, n_qubits)
        for omega in itertools.combinations(range(1, n_qubits + 1), size)
    ]


def _passes_ii_and_iv(rows: Sequence[int], omega: Sequence[int], n: int) -> bool:
    """Direct conditions (ii) and (iv) of k commuting member rows: their
    restrictions to omega are independent and pairwise commute, and the
    pseudo-incidence matrix (per pair, the qubits where the two
    anticommute) has rank k - 1."""
    inside = sum(1 << (q - 1) for q in omega)
    k = len(rows)
    if rank([r & (inside << n | inside) for r in rows]) != k:
        return False
    low = (1 << n) - 1
    masks = []
    for a, b in itertools.combinations(rows, 2):
        mask = (a & low & b >> n) ^ (a >> n & b & low)
        if bin(mask & inside).count("1") % 2:
            return False
        masks.append(mask)
    return rank(masks) == k - 1


def graph_based_keys(generators: Sequence[str]) -> dict[tuple, set]:
    """The keys of every subsystem's graph-based witnesses of the state
    stabilized by the independent Pauli texts ``generators``.

    One walk over the qubits puts each either in omega or outside it with
    a letter, and keeps a basis of the kernel of the letters chosen so far:
    a letter whose condition already holds on every basis row leaves the
    dimension above |omega| and ends the branch, and otherwise one row
    that breaks it is dropped and added to the others that do."""
    n = len(generators[0])
    out: dict[tuple, set] = {omega: set() for omega in subsystems(n)}
    seen: dict[tuple, set] = {omega: set() for omega in out}

    def walk(mu: int, basis: list, omega: tuple) -> None:
        if mu == n:
            if 2 <= len(omega) < n:
                key = key_of(basis)
                if key not in seen[omega]:
                    seen[omega].add(key)
                    if _passes_ii_and_iv(key, omega, n):
                        out[omega].add(key)
            return
        if len(omega) < n - 1:
            walk(mu + 1, basis, omega + (mu + 1,))
        if len(omega) + n - mu - 1 < 2:
            return
        x_bit, z_bit = 1 << mu, 1 << (n + mu)
        # a row's letter on mu is outside {I, X}, {I, Z} or {I, Y} when its
        # Z bit, its X bit or exactly one of the two is set
        for letter in (z_bit, x_bit, x_bit | z_bit):
            kept = [r for r in basis if not (r & letter).bit_count() & 1]
            if len(kept) < len(basis):
                pivot, *rest = [r for r in basis if (r & letter).bit_count() & 1]
                walk(mu + 1, kept + [r ^ pivot for r in rest], omega)

    walk(0, [row_of(t) for t in generators], ())
    return out


# ---------------------------------------------------------------------------
# Witness values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Records:
    """Measured data: Pauli text to (expectation, shots) on ``n_qubits``."""

    n_qubits: int
    records: Mapping[str, tuple]


@dataclass(frozen=True)
class WhiteNoise:
    """Every member but the identity reads expectation ``p``."""

    p: float


Source = Union[Records, WhiteNoise]


class MissingRecords(ValueError):
    """A witness needs members the records lack; ``missing`` lists them
    sorted, and the message names the first six."""

    def __init__(self, missing: Sequence[str]):
        self.missing = tuple(missing)
        more = len(self.missing) - 6
        suffix = f" (+{more} more)" if more > 0 else ""
        super().__init__(
            f"missing stabilizer records: {', '.join(self.missing[:6])}{suffix}"
        )


def missing(source: Source, texts: Sequence[str]) -> list[str]:
    """The members among ``texts``, other than I, without a record."""
    if isinstance(source, WhiteNoise):
        return []
    return sorted({t for t in texts if t.strip("I") and t not in source.records})


def records(source: Source, texts: Sequence[str]) -> list[tuple[float, float]]:
    """(expectation, variance) of each member in ``texts``, in order.  Data
    on another number of qubits is refused (ValueError) first; then one
    MissingRecords names every member without a record."""
    n_qubits = len(texts[0])
    if isinstance(source, Records) and n_qubits != source.n_qubits:
        raise ValueError(
            f"dataset is on {source.n_qubits} qubits, the stabilizers on {n_qubits}"
        )
    absent = missing(source, texts)
    if absent:
        raise MissingRecords(absent)
    out = []
    for text in texts:
        if not text.strip("I"):
            out.append((1.0, 0.0))
        elif isinstance(source, WhiteNoise):
            out.append((source.p, 0.0))
        else:
            e, shots = source.records[text]
            out.append((e, (1.0 - e * e) / shots))
    return out


def _projector(read: Sequence[tuple]) -> tuple[float, float]:
    """2^-a times the sum over a span's 2^a records, and its variance."""
    scale = 1.0 / len(read)
    return scale * sum(e for e, _ in read), sum(v for _, v in read) * scale * scale


def naive_eval_standard(basis: Sequence[str], source: Source) -> tuple[float, float]:
    """1/2 minus the projector onto the span of ``basis``."""
    e, v = _projector(records(source, span(tuple(basis))))
    return 0.5 - e, v


def naive_eval_alternative(
    basis: Sequence[str], source: Source
) -> tuple[float, float]:
    """(n - 1)/2 minus half the sum over the n basis members."""
    read = records(source, basis)
    return (
        (len(basis) - 1) / 2.0 - 0.5 * sum(e for e, _ in read),
        0.5 * sum(v for _, v in read),
    )


def naive_eval_two_measurement(
    x_basis: Sequence[str], z_basis: Sequence[str], n_qubits: int, source: Source
) -> tuple[float, float]:
    """3/2 minus the projectors onto the spans of the X part and the Z part;
    an empty part spans the identity alone."""
    identity = ("I" * n_qubits,)
    x_span = span(tuple(x_basis)) if x_basis else identity
    z_span = span(tuple(z_basis)) if z_basis else identity
    read = records(source, x_span + z_span)
    x_e, x_v = _projector(read[: len(x_span)])
    z_e, z_v = _projector(read[len(x_span) :])
    return 1.5 - x_e - z_e, x_v + z_v


def naive_fidelity(generators: Sequence[str], source: Source) -> tuple[float, float]:
    """The projector onto the whole group: the state's fidelity."""
    return _projector(records(source, span(tuple(generators))))


def detected(expectation: float, variance: float, sigma_threshold: float) -> bool:
    """Whether a value lies more than ``sigma_threshold`` deviations below 0."""
    return expectation + sigma_threshold * math.sqrt(variance) < 0.0
