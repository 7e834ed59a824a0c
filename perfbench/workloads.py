"""The four workloads: per-case set-up, one op, and the output checks.

``op`` is the timed part.  It calls the library through module attributes
(``witnesses.run_census``, ``cli.main``) at call time, so the tracer's
rebinding takes effect.  ``check`` turns what the op returned into an
Outcome; it runs after the op's clock stops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from stabwitness import cli, witnesses
from stabwitness.groups import code_from_json, load_named_code, span_group

import inputs

# Random-state workloads visit graphs 0..GRAPHS-1 of the test-suite recipe,
# one op per graph per pass (two on graph_random8), each under one of
# SCRAMBLES recorded letter-map scrambles that the run's seed picks.  color7_cli draws its batch from
# COLOR7_DATASETS recorded shot-noise datasets.
GRAPHS = 4
SCRAMBLES = 8
COLOR7_DATASETS = 12

# The paper's census of color_code_7, copied from tests/test_acceptance.py:
# (size, class label in the census CSV) -> (direct, graph-based, two-measurement).
COLOR7_TOTALS = ("3927", "3122", "476")
COLOR7_CLASS_COUNTS = {
    (2, "all"): (72, 54, 4),
    (3, "string-like"): (40, 32, 4),
    (3, "non-string-like"): (44, 34, 5),
    (4, "plaquette-like"): (30, 17, 9),
    (4, "non-plaquette-like"): (18, 18, 3),
    (5, "all"): (8, 8, 3),
    (6, "all"): (3, 3, 2),
}


@dataclass
class Outcome:
    """What one op produced: an output digest, the census witnesses and
    evaluation rows it reported, and any failed check."""

    digest: str
    witnesses: int
    rows: int = 0
    problems: list[str] = field(default_factory=list)


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part.encode()).digest())
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _eval_counts(text: str) -> tuple[int, int]:
    """(all rows, local standard and two-measurement rows) of an eval CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    local = sum(
        r["omega"] != "genuine" and r["kind"] in ("standard", "two-measurement")
        for r in rows
    )
    return len(rows), local


def _random_state_cases() -> list[tuple[int, int]]:
    """(case, stratum) pairs: case g * SCRAMBLES + r is graph g under
    scramble r, and each graph is its own stratum."""
    return [(g * SCRAMBLES + r, g) for g in range(GRAPHS) for r in range(SCRAMBLES)]


def _write_state(name: str, case: int, n_qubits: int, workdir: Path) -> Path:
    path = workdir / f"{name}-{case}.json"
    texts = inputs.state_texts(case // SCRAMBLES, case % SCRAMBLES, n_qubits)
    path.write_text(inputs.code_json(f"state{case}", texts))
    return path


class CensusWorkload:
    """One op: ``run_census`` with fixed methods on one random state."""

    def __init__(self, name: str, methods: tuple[str, ...], n_qubits: int = 8, batch: int = GRAPHS):
        self.name = name
        self.methods = methods
        self.n_qubits = n_qubits
        self.batch = batch

    def cases(self) -> list[tuple[int, int]]:
        return _random_state_cases()

    def setup(self, case: int, workdir: Path):
        path = _write_state(self.name, case, self.n_qubits, workdir)
        return code_from_json(path.read_text())[1]

    def op(self, code):
        return witnesses.run_census(code, self.methods)

    def check(self, code, census) -> Outcome:
        parts = []
        for bucket in (census.direct, census.graph_based, census.two_measurement):
            if bucket is not None:
                parts.append(repr([(o, [s.identity_key for s in bucket[o]]) for o in census.omegas]))
        totals = census.totals()
        return Outcome(_sha(*parts), sum(v for v in totals.values() if v))


class Color7Cli:
    """One op: ``stabwitness enumerate`` then ``stabwitness eval --data``,
    in process, on color_code_7 (or on ``code_texts`` in the fast tests)."""

    name = "color7_cli"

    def __init__(self, code_texts: list[str] | None = None, batch: int = 4):
        self.code_texts = code_texts
        self.batch = batch

    def cases(self) -> list[tuple[int, int]]:
        return [(case, 0) for case in range(COLOR7_DATASETS)]

    def setup(self, case: int, workdir: Path):
        if self.code_texts is None:
            code_args = ["color_code_7"]
            group = span_group(load_named_code("color_code_7"))
        else:
            code_path = workdir / f"{self.name}-code.json"
            code_path.write_text(inputs.code_json("small", self.code_texts))
            code_args = ["--file", str(code_path)]
            group = span_group(code_from_json(code_path.read_text())[1])
        data_path = workdir / f"{self.name}-{case}.csv"
        labels = [e.to_text() for e in group.non_identity()]
        data_path.write_text(inputs.dataset_csv(inputs.case_rng(self.name, case), labels))
        return code_args, data_path, workdir / f"{self.name}-{case}-witnesses.csv"

    def op(self, args):
        code_args, data_path, witness_path = args
        enumerate_out = _run_cli(["enumerate", *code_args, "--witnesses-out", str(witness_path)])
        return enumerate_out, _run_cli(["eval", *code_args, "--data", str(data_path)])

    def check(self, args, outputs) -> Outcome:
        witness_path = args[2]
        (rc_enum, census_csv), (rc_eval, eval_csv) = outputs
        problems = []
        if rc_enum or rc_eval:
            problems.append(f"exit codes enumerate={rc_enum} eval={rc_eval}")
        census_rows = list(csv.reader(io.StringIO(census_csv)))
        total = census_rows[-1][2:] if census_rows else []
        if self.code_texts is None:
            problems.extend(_color7_problems(census_rows))
        rows, local = _eval_counts(eval_csv)
        witnesses_found = sum(int(v) for v in total if v) + local
        digest = _sha(census_csv, witness_path.read_text(), eval_csv)
        return Outcome(digest, witnesses_found, rows, problems)


def _color7_problems(census_rows: list[list[str]]) -> list[str]:
    """Checks of the census CSV against the paper's pinned counts."""
    problems = []
    if not census_rows or census_rows[-1][2:] != list(COLOR7_TOTALS):
        got = census_rows[-1] if census_rows else None
        problems.append(f"color_code_7 totals {got} != {COLOR7_TOTALS}")
    by_class: dict[tuple[int, str], set] = {}
    for omega, label, *counts in census_rows[1:-1]:
        key = (len(omega.split(",")), label)
        by_class.setdefault(key, set()).add(tuple(int(c) for c in counts))
    expected = {k: {v} for k, v in COLOR7_CLASS_COUNTS.items()}
    if by_class != expected:
        problems.append(f"color_code_7 per-class counts {by_class} != {expected}")
    return problems


class OmegaEval:
    """One op: ``stabwitness eval --file --data`` restricted to three
    subsystems of sizes 2 to 4, drawn once per graph."""

    name = "omega_random8"

    def __init__(self, n_qubits: int = 8, batch: int = GRAPHS):
        self.n_qubits = n_qubits
        self.batch = batch

    def cases(self) -> list[tuple[int, int]]:
        return _random_state_cases()

    def setup(self, case: int, workdir: Path):
        code_path = _write_state(self.name, case, self.n_qubits, workdir)
        group = span_group(code_from_json(code_path.read_text())[1])
        # The subsystems belong to the graph, so every scramble of it asks
        # for the same number of witnesses; the dataset belongs to the case.
        omegas = inputs.random_omegas(inputs.case_rng(self.name, case // SCRAMBLES), self.n_qubits)
        data_path = workdir / f"{self.name}-{case}.csv"
        labels = [e.to_text() for e in group.non_identity()]
        data_path.write_text(inputs.dataset_csv(inputs.case_rng(self.name, case), labels))
        argv = ["eval", "--file", str(code_path), "--data", str(data_path)]
        for omega in omegas:
            argv += ["--omega", ",".join(map(str, omega))]
        return argv

    def op(self, argv):
        return _run_cli(argv)

    def check(self, argv, output) -> Outcome:
        rc, eval_csv = output
        rows, local = _eval_counts(eval_csv)
        problems = [f"exit code {rc}"] if rc else []
        return Outcome(_sha(eval_csv), local, rows, problems)


def make_workloads(n_qubits: int = 8, small_code: list[str] | None = None,
                   batch: int | None = None) -> dict:
    """The benchmark's workloads by name; the fast tests pass a smaller
    ``n_qubits``, a small code in place of color_code_7 and a batch of one."""
    return {
        w.name: w
        for w in (
            Color7Cli(small_code, batch or 4),
            CensusWorkload("direct_random8", ("direct", "twomeas"), n_qubits, batch or GRAPHS),
            # two scrambles per graph: the pull-back's work depends on the
            # scramble (up to 2x on one graph), so one draw per graph would
            # make op_p50_s follow the draw
            CensusWorkload("graph_random8", ("graph",), n_qubits, batch or 2 * GRAPHS),
            OmegaEval(n_qubits, batch or GRAPHS),
        )
    }
