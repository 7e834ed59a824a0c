"""Census and evaluation reports: deterministic CSV/JSON renderings.

Census reports count witnesses per subsystem; evaluation reports list one
row per evaluated witness, ordered by subsystem size then lexicographic
label order, with genuine-scope rows at the end.  Identical inputs always
produce byte-identical output.

Witnesses carry packed rows and their identity keys
(``WitnessSpec.rows``, ``identity_key``); the reports key and digest
witnesses from those, and build Pauli text only for the ``basis`` columns
of the witness rows.  Every basis row is one of the group's 2^N members
and a standard witness shares its key with its alternative, so each
report call renders each distinct row, digests each distinct key and
formats each subsystem label once, in dicts (``_Memo``) that the call
drops when it returns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .binary import pauli_from_row
from .evaluation import (
    DataSource,
    MeasurementDataset,
    _KERNELS,
    _confidence,
    _detected,
)
from .witnesses import (
    SubsystemClass,
    WitnessCensus,
    WitnessKind,
    WitnessSpec,
    _COLOR_CODE,
    classify_subsystem,
    two_measurement_from_standard,
)

__all__ = [
    "CensusRow",
    "CensusReport",
    "EvalRow",
    "EvaluationReport",
    "witness_rows",
    "witness_rows_to_csv",
    "witness_rows_to_json",
    "build_census_report",
    "build_evaluation_report",
]


def _omega_text(omega: Optional[tuple[int, ...]]) -> str:
    return "genuine" if omega is None else ",".join(str(q) for q in omega)


def _csv_omega(omega: Optional[tuple[int, ...]]) -> str:
    """A subsystem label as one CSV field, quoted as ``csv.writer`` quotes it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([_omega_text(omega)])
    return out.getvalue()


def _key_digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


class _Memo(dict):
    """A dict that computes each missing value once, as ``fn(key)``.  A
    report call makes its own and drops it on return, so nothing is kept
    from one call to the next."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# the subsystem classes are drawn on the color code's own group
_COLOR_CODE_KEY = _COLOR_CODE.key


def _class_label(omega: tuple[int, ...], group_key: tuple[int, ...]) -> str:
    """The color-code class of a subsystem of the color code's group, and
    "unclassified" for a subsystem of any other state."""
    if group_key != _COLOR_CODE_KEY:
        return SubsystemClass.UNCLASSIFIED.value
    cls = classify_subsystem(omega)
    return SubsystemClass.ALL.value if cls is SubsystemClass.UNCLASSIFIED else cls.value


# ---------------------------------------------------------------------------
# Census report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    omega: tuple[int, ...]
    label: str
    direct: Optional[int]
    graph_based: Optional[int]
    two_measurement: Optional[int]


@dataclass(frozen=True)
class CensusReport:
    n_qubits: int
    rows: tuple[CensusRow, ...]
    totals: dict[str, Optional[int]]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["omega", "class", "direct", "graph_based", "two_measurement"])

        def cell(v):
            return "" if v is None else v

        for row in self.rows:
            writer.writerow(
                [
                    _omega_text(row.omega),
                    row.label,
                    cell(row.direct),
                    cell(row.graph_based),
                    cell(row.two_measurement),
                ]
            )
        writer.writerow(
            [
                "total",
                "",
                cell(self.totals["direct"]),
                cell(self.totals["graph_based"]),
                cell(self.totals["two_measurement"]),
            ]
        )
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "rows": [
                    {
                        "omega": list(row.omega),
                        "class": row.label,
                        "direct": row.direct,
                        "graph_based": row.graph_based,
                        "two_measurement": row.two_measurement,
                    }
                    for row in self.rows
                ],
                "totals": self.totals,
            },
            indent=2,
        )

    def class_table(self) -> list[dict]:
        """Subsystems aggregated by (size, class, counts): one entry per
        distinct count triple in a class, with the number of subsystems that
        have it, so per-entry counts times subsystems sum to the totals.  On
        the color code every class has one triple, hence one entry."""
        groups: dict[tuple, int] = {}
        for row in self.rows:
            slot = (
                len(row.omega),
                row.label,
                row.direct,
                row.graph_based,
                row.two_measurement,
            )
            groups[slot] = groups.get(slot, 0) + 1
        return [
            {
                "size": size,
                "class": label,
                "subsystems": subsystems,
                "direct": direct,
                "graph_based": graph_based,
                "two_measurement": two_measurement,
            }
            for (size, label, direct, graph_based, two_measurement), subsystems
            in sorted(groups.items())
        ]


def build_census_report(census: WitnessCensus) -> CensusReport:
    rows = []
    for omega in census.subsystems():
        def count(bucket):
            return None if bucket is None else len(bucket.get(omega, ()))

        rows.append(
            CensusRow(
                omega,
                _class_label(omega, census.group_key),
                count(census.direct),
                count(census.graph_based),
                count(census.two_measurement),
            )
        )
    return CensusReport(census.n_qubits, tuple(rows), census.totals())


def _method(key, direct_keys, graph_keys) -> str:
    if key in graph_keys:
        return "both" if key in direct_keys else "graph-based"
    return "direct"


def witness_rows(census: WitnessCensus) -> list[dict]:
    """One row per witness: omega, kind, basis, key digest, method."""
    graph_keys = {
        omega: {s.identity_key for s in specs}
        for omega, specs in (census.graph_based or {}).items()
    }
    n_qubits = census.n_qubits
    text = _Memo(lambda row: pauli_from_row(row, n_qubits).to_text())
    rows = []
    for omega in census.subsystems():
        specs = (census.direct or census.graph_based or {}).get(omega, ())
        keys = [s.identity_key for s in specs]
        in_direct = set(keys) if census.direct else set()
        in_graph = graph_keys.get(omega, set())
        for spec, key in zip(specs, keys):
            rows.append(
                {
                    "omega": list(omega),
                    "kind": spec.kind.value,
                    "basis": [text[r] for r in spec.rows],
                    "key_digest": _key_digest(key),
                    "method": _method(key, in_direct, in_graph),
                }
            )
        if census.two_measurement is not None:
            for spec in census.two_measurement.get(omega, ()):
                # the split partitions the standard witness's key, Z rows first
                span_key = spec.z_rows + spec.x_rows
                rows.append(
                    {
                        "omega": list(omega),
                        "kind": spec.kind.value,
                        "basis": [text[r] for r in spec.rows],
                        "x_basis": [text[r] for r in spec.x_rows],
                        "z_basis": [text[r] for r in spec.z_rows],
                        "key_digest": _key_digest(spec.identity_key),
                        "method": _method(span_key, in_direct, in_graph),
                    }
                )
    return rows


def witness_rows_to_csv(rows: Sequence[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["omega", "kind", "basis", "key_digest", "method"])
    for row in rows:
        writer.writerow(
            [
                ",".join(str(q) for q in row["omega"]),
                row["kind"],
                " ".join(row["basis"]),
                row["key_digest"],
                row["method"],
            ]
        )
    return out.getvalue()


def witness_rows_to_json(rows: Sequence[dict]) -> str:
    return json.dumps(rows, indent=2)


# ---------------------------------------------------------------------------
# Evaluation report
# ---------------------------------------------------------------------------

_KIND_ORDER = {kind: i for i, kind in enumerate(WitnessKind)}


@dataclass(frozen=True)
class EvalRow:
    omega: Optional[tuple[int, ...]]
    kind: WitnessKind
    expectation: float
    stddev: float
    detected: bool
    confidence: Optional[float]
    key_digest: str


@dataclass(frozen=True)
class EvaluationReport:
    n_qubits: int
    rows: tuple[EvalRow, ...]

    def detected_subsystems(self) -> list[tuple[int, ...]]:
        return sorted(
            {r.omega for r in self.rows if r.detected and r.omega is not None},
            key=lambda o: (len(o), o),
        )

    def best_per_omega(self) -> "EvaluationReport":
        """Keep only the most negative row per (subsystem, kind)."""
        best: dict[tuple, EvalRow] = {}
        for row in self.rows:
            slot = (row.omega, row.kind)
            if slot not in best or row.expectation < best[slot].expectation:
                best[slot] = row
        return EvaluationReport(self.n_qubits, tuple(_sorted_rows(best.values())))

    def to_csv(self) -> str:
        # The subsystem label is the one field that can hold a comma; it is
        # quoted by the csv module, once per subsystem.  Every other field is
        # a kind name or a formatted number, which csv writes as it is.
        omega_field = _Memo(_csv_omega)
        kind_text = {kind: kind.value for kind in WitnessKind}
        lines = ["omega,kind,expectation,stddev,detected,confidence\n"]
        lines += (
            f"{omega_field[row.omega]},{kind_text[row.kind]},"
            f"{row.expectation:.12g},{row.stddev:.12g},{int(row.detected)},"
            f"{'' if row.confidence is None else format(row.confidence, '.12g')}\n"
            for row in self.rows
        )
        return "".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "rows": [
                    {
                        "omega": None if row.omega is None else list(row.omega),
                        "kind": row.kind.value,
                        "expectation": row.expectation,
                        "stddev": row.stddev,
                        "detected": row.detected,
                        "confidence": row.confidence,
                        "key_digest": row.key_digest,
                    }
                    for row in self.rows
                ],
                "detected_subsystems": [
                    list(o) for o in self.detected_subsystems()
                ],
            },
            indent=2,
        )


def _sorted_rows(rows) -> list[EvalRow]:
    def sort_key(row: EvalRow):
        omega = row.omega
        scope = (1,) if omega is None else (0, len(omega), omega)
        return scope + (_KIND_ORDER[row.kind], row.key_digest)

    return sorted(rows, key=sort_key)


def build_evaluation_report(
    census: WitnessCensus,
    data: DataSource,
    kinds: Sequence[WitnessKind] = tuple(WitnessKind),
    sigma_threshold: float = 0.0,
    genuine_set=None,
) -> EvaluationReport:
    """Evaluate the census witnesses against a data source, and with
    ``genuine_set``, the generator set of the census's state, also its
    genuine witnesses of each requested kind.

    Each row is read off the kernel of its kind, ``_KERNELS``: it is the
    row that ``evaluate`` and ``detection_confidence`` give, with no value
    object between.  An alternative witness is its standard witness's rows
    and key, so each standard spec is evaluated as both kinds.  Raises
    ValueError when a measurement dataset is on a different number of
    qubits than the census, or when ``sigma_threshold`` is negative or not
    finite.
    """
    if not 0.0 <= sigma_threshold < math.inf:
        raise ValueError(
            f"sigma threshold {sigma_threshold} is not a finite non-negative number"
        )
    if isinstance(data, MeasurementDataset) and data.n_qubits != census.n_qubits:
        raise ValueError(
            f"dataset is on {data.n_qubits} qubits, the code on {census.n_qubits}"
        )
    source = census.direct if census.direct is not None else census.graph_based
    if source is None:
        raise ValueError("census has no standard witnesses to evaluate")
    kinds = tuple(kinds)
    two_measurement = [k for k in (WitnessKind.TWO_MEASUREMENT,) if k in kinds]
    standard = [
        k for k in (WitnessKind.STANDARD, WitnessKind.ALTERNATIVE) if k in kinds
    ]
    digest = _Memo(_key_digest)
    rows: list[EvalRow] = []

    def add(spec: WitnessSpec, kinds: list[WitnessKind]) -> None:
        for kind in kinds:
            expectation, variance = _KERNELS[kind](spec, data)
            stddev = math.sqrt(variance)
            rows.append(
                EvalRow(
                    spec.omega,
                    kind,
                    expectation,
                    stddev,
                    _detected(expectation, stddev, sigma_threshold),
                    _confidence(expectation, variance),
                    digest[spec.identity_key],
                )
            )

    for omega in census.subsystems():
        for spec in source.get(omega, ()):
            add(spec, standard)
        for spec in (census.two_measurement or {}).get(omega, ()):
            add(spec, two_measurement)
    if genuine_set is not None:
        genuine = WitnessSpec.standard_genuine(genuine_set)
        add(genuine, standard)
        split = two_measurement_from_standard(genuine) if two_measurement else None
        if split is not None:
            add(split, two_measurement)
    return EvaluationReport(census.n_qubits, tuple(_sorted_rows(rows)))
