"""Exact physics on small state vectors: the test oracle that checks GF(2)
results against quantum mechanics.

A state on N qubits is a list of 2^N complex amplitudes.  Qubit q (1-based,
the q-th letter of a Pauli text) is bit N - q of an amplitude's index, so
an index written in binary reads in text order.  A Pauli text acts by the
phase rule Y = iXZ: Z first, then X, then a factor i per Y.  Nothing here
reads the library; the only thing the two share is Pauli text.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

MAX_QUBITS = 10

# below this fraction of the random vector's norm, a projection has vanished
_VANISHED = 1e-9


def _masks(text: str) -> tuple[int, int, complex]:
    """The X mask, Z mask and phase i^(number of Ys) of a Pauli text."""
    n = len(text)
    x = z = 0
    for q, letter in enumerate(text):
        if letter not in "IXYZ":
            raise ValueError(f"letter {letter!r} of {text!r} is not I, X, Y or Z")
        bit = 1 << (n - 1 - q)
        if letter in "XY":
            x |= bit
        if letter in "ZY":
            z |= bit
    return x, z, 1j ** text.count("Y")


def apply(state: Sequence[complex], text: str) -> list[complex]:
    """The Pauli ``text`` applied to ``state``."""
    x, z, phase = _masks(text)
    out = [0j] * len(state)
    for b, amplitude in enumerate(state):
        sign = -1 if (b & z).bit_count() & 1 else 1
        out[b ^ x] = phase * sign * amplitude
    return out


def state_vector(
    texts: Sequence[str], signs: Sequence[int], rng: random.Random
) -> list[complex]:
    """A seeded random vector projected by the product of (I + s_i g_i) / 2
    over the Pauli texts g_i and signs s_i, normalised.  Refuses (ValueError)
    more than ``MAX_QUBITS`` qubits, texts of unequal length, and a
    projection that vanishes, as contradictory signs make it."""
    n = len(texts[0])
    if n > MAX_QUBITS:
        raise ValueError(f"refusing a state vector on {n} qubits (cap is {MAX_QUBITS})")
    if any(len(t) != n for t in texts) or len(signs) != len(texts):
        raise ValueError("texts must share one length and have one sign each")
    state = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    start = _norm(state)
    for text, sign in zip(texts, signs):
        image = apply(state, text)
        state = [(a + sign * b) / 2 for a, b in zip(state, image)]
    norm = _norm(state)
    if norm <= _VANISHED * start:
        raise ValueError(
            f"the projection onto {list(texts)} with signs {list(signs)} vanishes"
        )
    return [a / norm for a in state]


def _norm(vector: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in vector))


def expectation(state: Sequence[complex], text: str) -> float:
    """<state| P |state> for the Pauli text P, which is real."""
    image = apply(state, text)
    return sum(a.conjugate() * b for a, b in zip(state, image)).real


def reduced(state: Sequence[complex], omega: Sequence[int]) -> list[list[complex]]:
    """The density matrix of ``state`` on the 1-based qubits ``omega``, the
    other qubits traced out; its index reads the qubits in ``omega`` order."""
    n = len(state).bit_length() - 1
    positions = [n - q for q in omega]
    kept = sum(1 << p for p in positions)
    k = len(omega)
    parts: dict[int, list[complex]] = {}
    for b, amplitude in enumerate(state):
        i = sum(((b >> p) & 1) << (k - 1 - j) for j, p in enumerate(positions))
        parts.setdefault(b & ~kept, [0j] * (1 << k))[i] = amplitude
    rho = [[0j] * (1 << k) for _ in range(1 << k)]
    for v in parts.values():
        for i, a in enumerate(v):
            if a:
                row = rho[i]
                for j, b in enumerate(v):
                    row[j] += a * b.conjugate()
    return rho


def largest_schmidt_sq(
    state: Sequence[complex], cut: Sequence[int], iterations: int = 200
) -> float:
    """The largest squared Schmidt coefficient of ``state`` across ``cut``
    and the rest: the largest eigenvalue of the reduced density matrix on
    ``cut``, by power iteration.  The start is the column of the largest
    diagonal entry, which lies in the matrix's range.  Refuses (ValueError)
    when the Rayleigh quotient has not settled after ``iterations`` steps."""
    rho = reduced(state, cut)
    j = max(range(len(rho)), key=lambda i: rho[i][i].real)
    v = [row[j] for row in rho]
    value = math.nan
    for _ in range(iterations):
        norm = _norm(v)
        v = [a / norm for a in v]
        w = [sum(r * a for r, a in zip(row, v)) for row in rho]
        quotient = sum(a.conjugate() * b for a, b in zip(v, w)).real
        if abs(quotient - value) <= 1e-15:
            return quotient
        value, v = quotient, w
    raise ValueError(f"power iteration across {list(cut)} did not settle")


def cuts_with_first(k: int):
    """Every proper subset of qubits 1..k that holds qubit 1: one side of
    each bipartition of k qubits."""
    for size in range(1, k):
        for rest in itertools.combinations(range(2, k + 1), size - 1):
            yield (1, *rest)
