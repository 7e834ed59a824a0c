"""Census and evaluation reports: deterministic CSV/JSON renderings.

Census reports count witnesses per subsystem; evaluation reports list one
row per evaluated witness, ordered by subsystem size then lexicographic
label order, with genuine-scope rows at the end.  Identical inputs always
produce byte-identical output.

Witnesses carry packed rows and their identity keys
(``WitnessSpec.rows``, ``identity_key``); the reports key and digest
witnesses from those, and build Pauli text only for the ``basis``
columns of the witness rows.  A census's witnesses are read as their
keys, so the reports build no spec for them: a standard key is the
witness's rows and identity key at once, and a two-measurement
witness's (X part, Z part) split is its parts and identity key at once.
Only the genuine witnesses, built from the generator set, are specs.

The witness listing comes from one row generator, ``_listing``, one row
per key: ``witness_rows`` makes a dict of each row for JSON and library
callers, and the CLI's CSV listing, ``_witness_csv``, formats each row as
one line, with no dict.  The evaluation report reads each standard key's
span once for both its standard and its alternative row.  It evaluates
the witnesses in census order, so a missing record names the first
witness in that order that lacks one, and builds each subsystem's rows in
report order, its keys ordered by digest once, so no row is sorted.  Its
rows are named tuples, ``EvalRow``.  Every basis row is one of the group's
2^N members, so each report call renders each distinct row and formats
each subsystem label once, in dicts (``_Memo``) that the call drops when
it returns."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .binary import pauli_from_row
from .evaluation import (
    DataSource,
    MeasurementDataset,
    _KERNELS,
    _confidence,
    _detected,
    _standard_and_alternative,
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
    direct, graph_based, two_measurement = census._lists()
    rows = []
    for omega in census.subsystems():
        def count(lists):
            return None if lists is None else len(lists.get(omega, ()))

        rows.append(
            CensusRow(
                omega,
                _class_label(omega, census.group_key),
                count(direct),
                count(graph_based),
                count(two_measurement),
            )
        )
    return CensusReport(census.n_qubits, tuple(rows), census.totals())


def _listing(census: WitnessCensus):
    """The listing's rows in order, one per witness, as (omega, kind, basis
    rows, X rows, Z rows, key digest, method); the X and Z rows are None
    for a standard witness, whose basis is its key.  A two-measurement
    witness is read as its split, its basis the X rows then the Z rows,
    and its digest that of the split.

    Every standard key of a subsystem is in its direct list when the direct
    method ran, and so is each two-measurement witness's, which its split
    partitions, Z rows first: a key is direct exactly when ``direct`` is
    there, and graph-based when the subsystem's graph list holds it."""
    direct, graph_based, two_measurement = census._lists()
    source = direct if direct is not None else graph_based or {}
    both = "both" if direct is not None else "graph-based"
    standard, twomeas = WitnessKind.STANDARD.value, WitnessKind.TWO_MEASUREMENT.value
    for omega in census.subsystems():
        splits = (two_measurement or {}).get(omega, ())
        # the graph list is tested only where it can tell a method apart: in
        # a graph-only census, every standard key is on it
        tested = graph_based is not None and (direct is not None or splits)
        in_graph = set(graph_based.get(omega, ())) if tested else ()
        for key in source.get(omega, ()):
            method = both if direct is None or key in in_graph else "direct"
            yield omega, standard, key, None, None, _key_digest(key), method
        for x, z in splits:
            method = both if z + x in in_graph else "direct"
            yield omega, twomeas, x + z, x, z, _key_digest((x, z)), method


def _row_texts(n_qubits: int) -> _Memo:
    """Each packed row's Pauli text, rendered once per report call."""
    return _Memo(lambda row: pauli_from_row(row, n_qubits).to_text())


def witness_rows(census: WitnessCensus) -> list[dict]:
    """One row per witness: omega, kind, basis, key digest, method.  A
    standard witness's basis is its key."""
    text = _row_texts(census.n_qubits)
    rows = []
    for omega, kind, basis, x_rows, z_rows, digest, method in _listing(census):
        row = {"omega": list(omega), "kind": kind, "basis": [text[r] for r in basis]}
        if x_rows is not None:
            row["x_basis"] = [text[r] for r in x_rows]
            row["z_basis"] = [text[r] for r in z_rows]
        row["key_digest"] = digest
        row["method"] = method
        rows.append(row)
    return rows


def _witness_csv(census: WitnessCensus) -> str:
    """``witness_rows_to_csv(witness_rows(census))``, formatted a line per
    witness with no row dict.  Only the subsystem label can hold a comma;
    it is quoted by the csv module, once per subsystem.  Every other field
    is a kind name, Pauli texts joined by spaces, a hex digest or a method
    name, which csv writes as it is."""
    text = _row_texts(census.n_qubits)
    omega_field = _Memo(_csv_omega)
    lines = ["omega,kind,basis,key_digest,method\n"]
    lines += (
        f"{omega_field[omega]},{kind},{' '.join(map(text.__getitem__, basis))},"
        f"{digest},{method}\n"
        for omega, kind, basis, _, _, digest, method in _listing(census)
    )
    return "".join(lines)


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


class EvalRow(NamedTuple):
    """One evaluated witness.  A named tuple, so it compares equal to the
    tuple of its fields."""

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
            key=_subsystem_order,
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
            f"{omega_field[omega]},{kind_text[kind]},"
            f"{expectation:.12g},{stddev:.12g},{int(detected)},"
            f"{'' if confidence is None else format(confidence, '.12g')}\n"
            for omega, kind, expectation, stddev, detected, confidence, _ in self.rows
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


def _subsystem_order(omega: tuple[int, ...]) -> tuple:
    return len(omega), omega


def _sorted_rows(rows) -> list[EvalRow]:
    def sort_key(row: EvalRow):
        omega = row.omega
        scope = (1,) if omega is None else (0, len(omega), omega)
        return scope + (_KIND_ORDER[row.kind], row.key_digest)

    return sorted(rows, key=sort_key)


def _digest_order(keys: Sequence) -> tuple[list[str], list[int]]:
    """The digests of keys, and the indices of the keys in ascending digest
    order with ties kept in the order given, as ``_sorted_rows`` orders the
    rows of one subsystem and kind."""
    digests = list(map(_key_digest, keys))
    return digests, sorted(range(len(digests)), key=digests.__getitem__)


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

    Each row is read off the kernel of its kind, ``_KERNELS``: it is the row
    that ``evaluate`` and ``detection_confidence`` give, with no value
    object between.  The census's witnesses are read as their keys, with no
    spec: each standard key is its witness's rows and identity key, and
    each two-measurement split goes to the kernel as its parts and key and
    is digested as it is.  An alternative witness is its standard
    witness's rows and key; with both kinds asked for, each key's span is
    read once for both rows (``_standard_and_alternative``).  The
    witnesses are evaluated in census order, so a missing record raises
    the IncompleteDataError of the first witness in that order that lacks
    one.  Each subsystem's rows are built
    in report order, its keys and its two-measurement witnesses each
    ordered once by digest, and the subsystems' blocks are joined by size
    then label, so no row is sorted.  Only the genuine witnesses are specs:
    the standard one from ``genuine_set`` and its split by
    ``two_measurement_from_standard``.  Raises ValueError when a
    measurement dataset is on a different number of qubits than the
    census, when the standard or alternative kind is asked for of a census
    with neither a direct nor a graph-based column, or when
    ``sigma_threshold`` is negative or not finite.
    """
    if not 0.0 <= sigma_threshold < math.inf:
        raise ValueError(
            f"sigma threshold {sigma_threshold} is not a finite non-negative number"
        )
    if isinstance(data, MeasurementDataset) and data.n_qubits != census.n_qubits:
        raise ValueError(
            f"dataset is on {data.n_qubits} qubits, the code on {census.n_qubits}"
        )
    direct, graph_based, twomeas = census._lists()
    source = direct if direct is not None else graph_based
    kinds = tuple(kinds)
    two_measurement = [k for k in (WitnessKind.TWO_MEASUREMENT,) if k in kinds]
    standard = [
        k for k in (WitnessKind.STANDARD, WitnessKind.ALTERNATIVE) if k in kinds
    ]
    if standard and source is None:
        raise ValueError("census has no standard witnesses to evaluate")
    n_qubits = census.n_qubits

    def row(omega, kind, digest, value) -> EvalRow:
        expectation, variance = value
        stddev = math.sqrt(variance)
        return EvalRow(
            omega,
            kind,
            expectation,
            stddev,
            _detected(expectation, stddev, sigma_threshold),
            _confidence(expectation, variance),
            digest,
        )

    def spec_rows(spec: WitnessSpec, kinds: list[WitnessKind]) -> list[EvalRow]:
        args = data, spec.n_qubits, spec.rows, spec.identity_key
        digest = _key_digest(spec.identity_key)
        return [row(spec.omega, kind, digest, _KERNELS[kind](*args)) for kind in kinds]

    def standard_columns(keys: Sequence):
        """The values of the keys, one column per kind in ``standard``."""
        if len(standard) == 2:
            return zip(*[_standard_and_alternative(data, n_qubits, k) for k in keys])
        kernel = _KERNELS[standard[0]]
        return [[kernel(data, n_qubits, k, k) for k in keys]]

    blocks = []
    for omega in census.subsystems():
        block: list[EvalRow] = []
        if standard:
            keys = source.get(omega, ())
            digests, order = _digest_order(keys)
            for kind, column in zip(standard, standard_columns(keys)):
                block += (row(omega, kind, digests[i], column[i]) for i in order)
        if two_measurement:
            splits = (twomeas or {}).get(omega, ())
            kernel = _KERNELS[two_measurement[0]]
            column = [kernel(data, n_qubits, x + z, (x, z)) for x, z in splits]
            digests, order = _digest_order(splits)
            block += (
                row(omega, two_measurement[0], digests[i], column[i]) for i in order
            )
        blocks.append((omega, block))
    blocks.sort(key=lambda pair: _subsystem_order(pair[0]))
    out = [r for _, block in blocks for r in block]
    if genuine_set is not None:
        genuine = WitnessSpec.standard_genuine(genuine_set)
        out += spec_rows(genuine, standard)
        split = two_measurement_from_standard(genuine) if two_measurement else None
        if split is not None:
            out += spec_rows(split, two_measurement)
    return EvaluationReport(census.n_qubits, tuple(out))
