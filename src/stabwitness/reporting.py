"""Census and evaluation reports: deterministic CSV/JSON renderings.

Census reports count witnesses per subsystem; evaluation reports list one
row per evaluated witness, ordered by subsystem size then lexicographic
label order, with genuine-scope rows at the end.  Identical inputs always
produce byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import basis_key
from .evaluation import (
    DataSource,
    MeasurementDataset,
    WitnessValue,
    detection_confidence,
    evaluate,
)
from .witnesses import (
    SubsystemClass,
    WitnessCensus,
    WitnessKind,
    WitnessSpec,
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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _key_digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _class_label(omega: tuple[int, ...], n_qubits: int) -> str:
    if n_qubits != 7:
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
        """Counts aggregated by (size, class); counts must agree inside a
        class, which is asserted here."""
        groups: dict[tuple[int, str], list[CensusRow]] = {}
        for row in self.rows:
            groups.setdefault((len(row.omega), row.label), []).append(row)
        table = []
        for (size, label), rows in sorted(groups.items()):
            for attr in ("direct", "graph_based", "two_measurement"):
                counts = {getattr(r, attr) for r in rows}
                if len(counts) != 1:
                    raise AssertionError(
                        f"class ({size}, {label}) has uneven {attr} counts: {counts}"
                    )
            sample = rows[0]
            table.append(
                {
                    "size": size,
                    "class": label,
                    "subsystems": len(rows),
                    "direct": sample.direct,
                    "graph_based": sample.graph_based,
                    "two_measurement": sample.two_measurement,
                }
            )
        return table


def build_census_report(census: WitnessCensus) -> CensusReport:
    rows = []
    for omega in census.subsystems():
        def count(bucket):
            return None if bucket is None else len(bucket.get(omega, ()))

        rows.append(
            CensusRow(
                omega,
                _class_label(omega, census.n_qubits),
                count(census.direct),
                count(census.graph_based),
                count(census.two_measurement),
            )
        )
    return CensusReport(census.n_qubits, tuple(rows), census.totals())


def witness_rows(census: WitnessCensus) -> list[dict]:
    """One row per witness: omega, kind, basis, key digest, method."""
    direct_keys = {
        omega: {s.identity_key for s in specs}
        for omega, specs in (census.direct or {}).items()
    }
    graph_keys = {
        omega: {s.identity_key for s in specs}
        for omega, specs in (census.graph_based or {}).items()
    }

    def method_of(omega, key) -> str:
        in_direct = key in direct_keys.get(omega, ())
        in_graph = key in graph_keys.get(omega, ())
        if in_direct and in_graph:
            return "both"
        if in_graph:
            return "graph-based"
        return "direct"

    rows = []
    for omega in census.subsystems():
        for spec in (census.direct or census.graph_based or {}).get(omega, ()):
            rows.append(
                {
                    "omega": list(omega),
                    "kind": spec.kind.value,
                    "basis": [p.to_text() for p in spec.basis],
                    "key_digest": _key_digest(spec.identity_key),
                    "method": method_of(omega, spec.identity_key),
                }
            )
        if census.two_measurement is not None:
            for spec in census.two_measurement.get(omega, ()):
                span_key = basis_key(spec.basis)
                rows.append(
                    {
                        "omega": list(omega),
                        "kind": spec.kind.value,
                        "basis": [p.to_text() for p in spec.basis],
                        "x_basis": [p.to_text() for p in spec.x_basis],
                        "z_basis": [p.to_text() for p in spec.z_basis],
                        "key_digest": _key_digest(spec.identity_key),
                        "method": method_of(omega, span_key),
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

_KIND_ORDER = {
    WitnessKind.STANDARD: 0,
    WitnessKind.ALTERNATIVE: 1,
    WitnessKind.TWO_MEASUREMENT: 2,
}


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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["omega", "kind", "expectation", "stddev", "detected", "confidence"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    _omega_text(row.omega),
                    row.kind.value,
                    _fmt(row.expectation),
                    _fmt(row.stddev),
                    int(row.detected),
                    "" if row.confidence is None else _fmt(row.confidence),
                ]
            )
        return out.getvalue()

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


def _row_for(spec: WitnessSpec, value: WitnessValue) -> EvalRow:
    try:
        confidence = detection_confidence(value)
    except ValueError:
        confidence = None
    return EvalRow(
        spec.omega,
        spec.kind,
        value.expectation,
        value.stddev,
        value.detected,
        confidence,
        _key_digest(spec.identity_key),
    )


def build_evaluation_report(
    census: WitnessCensus,
    data: DataSource,
    kinds: Sequence[WitnessKind] = tuple(WitnessKind),
    include_genuine: bool = True,
    sigma_threshold: float = 0.0,
    genuine_set=None,
) -> EvaluationReport:
    """Evaluate the census witnesses (and optionally the genuine witnesses
    of each requested kind) against a data source.

    Raises ValueError when a measurement dataset is on a different number
    of qubits than the census.
    """
    if isinstance(data, MeasurementDataset) and data.n_qubits != census.n_qubits:
        raise ValueError(
            f"dataset is on {data.n_qubits} qubits, the code on {census.n_qubits}"
        )
    kinds = tuple(kinds)
    rows: list[EvalRow] = []
    specs: list[WitnessSpec] = []
    source = census.direct if census.direct is not None else census.graph_based
    if source is None:
        raise ValueError("census has no standard witnesses to evaluate")
    for omega in census.subsystems():
        for spec in source.get(omega, ()):
            if WitnessKind.STANDARD in kinds:
                specs.append(spec)
            if WitnessKind.ALTERNATIVE in kinds:
                specs.append(WitnessSpec.alternative_from(spec))
        if WitnessKind.TWO_MEASUREMENT in kinds and census.two_measurement:
            specs.extend(census.two_measurement.get(omega, ()))
    if include_genuine:
        if genuine_set is None:
            raise ValueError("genuine evaluation needs the generator set")
        genuine_standard = WitnessSpec.standard_genuine(genuine_set)
        if WitnessKind.STANDARD in kinds:
            specs.append(genuine_standard)
        if WitnessKind.ALTERNATIVE in kinds:
            specs.append(WitnessSpec.alternative_from(genuine_standard))
        if WitnessKind.TWO_MEASUREMENT in kinds:
            genuine_two = two_measurement_from_standard(genuine_standard)
            if genuine_two is not None:
                specs.append(genuine_two)
    for spec in specs:
        rows.append(_row_for(spec, evaluate(spec, data, sigma_threshold)))
    return EvaluationReport(census.n_qubits, tuple(_sorted_rows(rows)))
