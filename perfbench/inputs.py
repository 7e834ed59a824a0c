"""Seeded inputs for the benchmark: random graph states, code JSON files,
shot-noise datasets and the per-run choice of cases.

Every input is a pure function of its case number, so a case always
produces the same files and the reference digest recorded for it stays
valid.  The run's ``--seed`` picks which cases a run visits (see
``sample_cases``).
"""

from __future__ import annotations

import json
import random

from stabwitness.cliffords import SINGLE_QUBIT_CLIFFORDS, LocalClifford, apply_to_generators
from stabwitness.graphs import Graph, graph_generators


# The two recipe functions below copy tests/conftest.py; the benchmark does
# not import test code.


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [
        (mu, nu)
        for mu in range(1, n + 1)
        for nu in range(mu + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_local_clifford(rng: random.Random, n: int) -> LocalClifford:
    return LocalClifford(
        tuple(rng.choice(SINGLE_QUBIT_CLIFFORDS) for _ in range(n))
    )


def state_texts(graph_seed: int, scramble: int, n_qubits: int) -> list[str]:
    """Generator texts of the recipe's random graph for ``graph_seed``,
    scrambled by a random letter map per qubit.

    Scramble 0 is the recipe's own letter map, so it reproduces
    ``random_stabilizer_set(random.Random(graph_seed), n)`` of the test
    suite exactly.  Other scrambles draw fresh letter maps.  Letter maps
    are local Cliffords: they leave the LC orbit, the local symmetries and
    the number of direct witnesses unchanged, so every scramble of one
    graph costs the census the same work.
    """
    rng = random.Random(graph_seed)
    letters = random_local_clifford(rng, n_qubits)
    graph = random_graph(rng, n_qubits)
    if scramble:
        letters = random_local_clifford(
            random.Random(f"scramble:{graph_seed}:{scramble}"), n_qubits
        )
    gens = apply_to_generators(letters, graph_generators(graph))
    return [g.to_text() for g in gens.generators]


def case_rng(workload: str, case: int) -> random.Random:
    return random.Random(f"{workload}:{case}")


def code_json(name: str, texts: list[str]) -> str:
    """A code-definition file in the format ``stabwitness --file`` reads."""
    return json.dumps(
        {"name": name, "n_qubits": len(texts[0]), "generators": texts}, indent=2
    )


def _binomial(rng: random.Random, shots: int, prob: float) -> int:
    return sum(rng.random() < prob for _ in range(shots))


def dataset_csv(rng: random.Random, labels: list[str]) -> str:
    """``pauli,expectation,shots`` rows for every label, with shot noise.

    The true value of a stabilizer of weight w is (1 - eps)^w, a local
    depolarizing model with eps drawn once per dataset.  Each row then
    draws its own shot count and a binomial estimate 2k/M - 1.  Values are
    stabilizer-relative: they are the expectation of the +1 stabilizer the
    library models, the sign convention MeasurementDataset reads today.
    """
    eps = rng.uniform(0.01, 0.05)
    lines = ["pauli,expectation,shots"]
    for label in labels:
        weight = sum(c != "I" for c in label)
        truth = (1.0 - eps) ** weight
        shots = rng.randrange(200, 801)
        estimate = 2.0 * _binomial(rng, shots, (1.0 + truth) / 2.0) / shots - 1.0
        lines.append(f"{label},{estimate!r},{shots}")
    return "\n".join(lines) + "\n"


def random_omegas(rng: random.Random, n_qubits: int, count: int = 3) -> list[tuple[int, ...]]:
    """``count`` distinct subsystems, each of a random size from 2 to 4."""
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        size = rng.randint(2, 4)
        omega = tuple(sorted(rng.sample(range(1, n_qubits + 1), size)))
        if omega not in out:
            out.append(omega)
    return out


def sample_cases(corpus: list[dict], batch: int, seed: int) -> list[int]:
    """The run's batch: the same number of cases from every stratum of the
    recorded corpus, drawn without replacement and shuffled by ``seed``.

    On the random-state workloads a stratum is one random graph under its
    recorded scrambles, so every run does the same work on different
    inputs.  Work per graph spans a factor of ten on the graph-based
    workload; drawing graphs at random would make run-to-run spread a
    matter of which graphs were drawn rather than of the code.
    """
    strata: dict[int, list[int]] = {}
    for entry in corpus:
        strata.setdefault(entry["stratum"], []).append(entry["case"])
    if batch % len(strata):
        raise ValueError(f"batch {batch} does not split over {len(strata)} strata")
    rng = random.Random(seed)
    chosen = []
    for stratum in sorted(strata):
        chosen.extend(rng.sample(sorted(strata[stratum]), batch // len(strata)))
    rng.shuffle(chosen)
    return chosen
