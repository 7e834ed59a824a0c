"""Witness evaluation on measured stabilizer expectations.

Expectation values come either from a measurement dataset (per-stabilizer
expectation plus shot count) or from the white-noise model in which every
non-identity stabilizer has expectation p.  Witness variances follow from
treating each stabilizer estimate as an independent binomial variable with
variance (1 - <s>^2) / M; the identity contributes expectation 1 and
variance 0.  Shot counts may differ per record, in which case each summand
carries its own 1/M factor.

Every record passes one check, ``_entry``, once: in the constructor, or
in ``from_csv`` as it reads each line; ``from_pairs`` parses each label
once and runs the rest of that check, ``_checked``, on the parsed
row.  The check parses a label straight to its packed 2N-bit row
(``binary.parse_row``, as ``binary.pauli_row`` packs an operator), with
no operator built, and refuses an identity record whose expectation is
not 1.  Both classmethods convert values in one ``float()``/``int()``
step, ``_converted``.  The check fills one lookup from a packed row to
(expectation, variance).  Each witness kind has one kernel that returns
its (expectation, variance) as floats, kept in one table by kind,
``_KERNELS``: ``evaluate``, ``critical_probability`` and the evaluation
report read it, and each ``eval_*`` function wraps its own kernel in a
``WitnessValue``.  A value is judged in one place, ``_assessed``: its
standard deviation, whether it is detected and its confidence, for
``evaluate``, ``detection_confidence`` and the report's rows alike.  A
kernel takes packed rows, a witness's basis rows and its identity key,
not a spec, so the report evaluates a census's keys without building
specs; a spec of another kind is read by the key ``witnesses._key_as``
takes off its identity key, with no row reduced.  The kernels,
``fidelity`` and the per-operator reads (``expectation_of``,
``variance_of``) read records in one place, ``_records``, once per
witness: a two-measurement witness reads its X span then its Z span in
one call.  Every span is summed in ascending packed-row order
(``_ascending_span`` of a ``rows_rref`` key), so a value does not depend
on the basis chosen for the subgroup, and scaled in one place
(``_scaled``).  A census witness's basis is its key, so the report reads
its span once for both its standard and its alternative value
(``_standard_and_alternative``), split once into an expectation and a
variance column, bit for bit the two kernels' values.  Only members
without a record are rendered as text, by ``_records`` from the rows it
has just read, in the one ``IncompleteDataError`` that names them all.  A
dataset on another number of qubits than the witness is refused with a
ValueError naming both counts.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .binary import PauliOperator, parse_row, pauli_from_row, pauli_row
from .groups import StabilizerGroup, _span_rows
from .witnesses import WitnessKind, WitnessSpec, _key_as

__all__ = [
    "MeasurementDataset",
    "WernerModel",
    "WitnessValue",
    "IncompleteDataError",
    "eval_standard",
    "eval_alternative",
    "eval_two_measurement",
    "evaluate",
    "fidelity",
    "critical_probability",
    "detection_confidence",
]

DataSource = Union["MeasurementDataset", "WernerModel"]
_IDENTITY = (1.0, 0.0)


class IncompleteDataError(ValueError):
    """Dataset lacks records for stabilizers a witness needs."""

    def __init__(self, missing: Sequence[str]):
        self.missing = tuple(missing)
        preview = ", ".join(self.missing[:6])
        suffix = "" if len(self.missing) <= 6 else f" (+{len(self.missing) - 6} more)"
        super().__init__(f"missing stabilizer records: {preview}{suffix}")


class _Source:
    """Per-operator reads, shared by both data sources.

    A source defines ``_lookup(n_qubits)``: a function from the packed row
    of an ``n_qubits``-qubit member to its (expectation, variance), or None
    when there is no record; a dataset on another number of qubits raises
    ValueError instead.  Every record is read through it by ``_records``;
    ``missing`` only asks which members have none.
    """

    def _record(self, p: PauliOperator) -> tuple[float, float]:
        return _records(self, p.n_qubits, [pauli_row(p)])[0]

    def missing(self, paulis: Sequence[PauliOperator]) -> list[str]:
        absent = (p for p in paulis if self._lookup(p.n_qubits)(pauli_row(p)) is None)
        return sorted({p.to_text() for p in absent})

    def expectation_of(self, p: PauliOperator) -> float:
        return self._record(p)[0]

    def variance_of(self, p: PauliOperator) -> float:
        """Binomial variance of one stabilizer estimate, (1 - <s>^2) / M."""
        return self._record(p)[1]


def _real(x) -> bool:
    """A real number that is not a bool, as an expectation or p must be; a
    float or an int is told apart without the ABC check."""
    kind = type(x)
    if kind is float or kind is int:
        return True
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _row(label) -> int:
    """The packed row of a Pauli string ``label``."""
    if not isinstance(label, str):
        raise ValueError(f"label {reprlib.repr(label)} is not a Pauli string")
    return parse_row(label)


def _pair(record, name: str) -> tuple:
    try:  # a string of two characters is not a pair
        e, shots = () if isinstance(record, (str, bytes)) else record
    except (TypeError, ValueError):
        raise ValueError(
            f"record {record!r} of {name} is not an (expectation, shots) pair"
        ) from None
    return e, shots


def _items(records):
    """The (label, record) items of a mapping of records."""
    if not isinstance(records, Mapping):
        raise ValueError(
            f"records {reprlib.repr(records)} are not a mapping of label to"
            " (expectation, shots)"
        )
    return records.items()


# A refused value is echoed shortened, so a long CSV field stays readable.
def _shown(label: str) -> str:
    """A CSV label as errors name it: whole up to 28 letters, else its two
    ends, as ``reprlib.repr`` shortens a quoted label."""
    return label if len(label) <= 28 else f"{label[:12]}...{label[-13:]}"


def _number(e, name: str):
    if not _real(e):
        raise ValueError(
            f"expectation {reprlib.repr(e)} of {name} is not a number"
        )
    return e


def _count(shots, name: str):
    if isinstance(shots, bool) or not isinstance(shots, int):
        raise ValueError(
            f"shot count {reprlib.repr(shots)} of {name} is not an integer"
        )
    return shots


def _entry(n_qubits: int, label, name: str, record) -> tuple[int, tuple]:
    """The packed row of ``label`` and its record's (expectation, variance),
    checked in this order: a Pauli string, an (expectation, shots) pair, on
    ``n_qubits`` qubits, a real non-bool expectation in [-1, 1], and 1 for
    the identity, a positive int shot count a float can hold.  Errors call
    the label ``name``."""
    row = _row(label)
    return _checked(n_qubits, row, len(label), name, *_pair(record, name))


def _checked(
    n_qubits: int, row: int, size: int, name: str, e, shots
) -> tuple[int, tuple]:
    """``_entry`` from its qubit-count check on, for the packed row ``row``
    of a label of ``size`` letters and the record's two values."""
    if size != n_qubits:
        raise ValueError(f"label {name} is not on {n_qubits} qubits")
    if not -1.0 <= _number(e, name) <= 1.0:
        raise ValueError(f"expectation {e} of {name} outside [-1, 1]")
    if not row and e != 1:
        # the identity is served as expectation 1, so any other would be
        # dropped unread
        raise ValueError(f"expectation {e} of the identity {name} is not 1")
    if _count(shots, name) <= 0:
        raise ValueError(f"non-positive shot count for {name}")
    try:
        return row, (e, (1.0 - e * e) / shots)
    except OverflowError:
        raise ValueError(f"shot count for {name} is too large") from None


def _qubit_count(n_qubits) -> None:
    if type(n_qubits) is not int or n_qubits < 1:
        raise ValueError(f"qubit count {n_qubits!r} is not a positive integer")


def _converted(e, shots) -> tuple:
    """A record's values through ``float()`` and ``int()``.  A value either
    refuses is left for ``_number`` or ``_count`` to name, as is a bool
    shot count or a number of shots that is not whole, which ``int()``
    would truncate.  A float expectation and an int shot count need no
    call, and a string shot count, no number, no ABC check."""
    if type(e) is not float:
        try:
            e = float(e)
        except (TypeError, ValueError, OverflowError):
            pass
    if type(shots) is not int:
        try:
            whole = int(shots)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if (
                type(shots) is str
                or not isinstance(shots, numbers.Number)
                or (whole == shots and not isinstance(shots, bool))
            ):
                shots = whole
    return e, shots


@dataclass(frozen=True)
class MeasurementDataset(_Source):
    """Measured expectation values keyed by Pauli label.

    ``n_qubits`` is a positive int.  ``records`` maps each Pauli text label
    to (expectation, shots): the expectation a real number (not a bool) in
    [-1, 1], the shot count a positive int that a float can hold.  The
    identity is always served as expectation 1 with zero variance, whether
    or not a record is present; a record of it must hold expectation 1.
    The records are read once, at construction, into a lookup by packed
    row of (expectation, variance); evaluators sum over it in ascending
    packed-row order.
    """

    n_qubits: int
    records: dict[str, tuple[float, int]] = field(repr=False)

    def __post_init__(self) -> None:
        _qubit_count(self.n_qubits)
        items = _items(self.records)
        index = dict(
            _entry(self.n_qubits, label, reprlib.repr(label), r) for label, r in items
        )
        self._indexed(index)

    @classmethod
    def _filled(
        cls, n_qubits: int, records: dict, index: dict
    ) -> "MeasurementDataset":
        """The instance the constructor would fill from ``records``, whose
        checked lookup ``index`` already is."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "n_qubits", n_qubits)
        object.__setattr__(dataset, "records", records)
        dataset._indexed(index)
        return dataset

    def _indexed(self, index: dict) -> None:
        """Keep ``index``, the checked lookup of the records, with the
        identity served as expectation 1 at zero variance."""
        index[0] = _IDENTITY
        object.__setattr__(self, "_index", index)

    def _lookup(self, n_qubits: int) -> Callable:
        if n_qubits != self.n_qubits:
            raise ValueError(
                f"dataset is on {self.n_qubits} qubits, the stabilizers on {n_qubits}"
            )
        return self._index.get

    @classmethod
    def from_pairs(
        cls, n_qubits: int, pairs: dict[str, tuple[float, int]]
    ) -> "MeasurementDataset":
        """Records from (expectation, shots) pairs, converted with float()
        and int(), keyed by the canonical text of their labels.  A value
        that does not convert, a shot count that is a bool or not whole, or
        a bad label is reported before the constructor's checks, which then
        run in its order on the labels parsed here: each label is parsed
        once."""
        parsed = {}
        for label, record in _items(pairs):
            name = reprlib.repr(label)
            e, shots = _converted(*_pair(record, name))
            record = _number(e, name), _count(shots, name)
            parsed[label] = _row(label), record
        _qubit_count(n_qubits)
        index = dict(
            _checked(n_qubits, row, len(label), reprlib.repr(label), *record)
            for label, (row, record) in parsed.items()
        )
        records = {label: record for label, (_, record) in parsed.items()}
        return cls._filled(n_qubits, records, index)

    @classmethod
    def uniform(
        cls, group: StabilizerGroup, expectation: float, shots: int
    ) -> "MeasurementDataset":
        """Same expectation and shot count for every non-identity element."""
        records = {e.to_text(): (expectation, shots) for e in group.non_identity()}
        return cls(group.n_qubits, records)

    @classmethod
    def from_csv(cls, text: str) -> "MeasurementDataset":
        """Parse the ``pauli,expectation,shots`` CSV format.  Each line is
        checked as it is read, so an error names it, and each record passes
        ``_entry`` once: the lookup is built as the lines are checked."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise ValueError("empty dataset")
        if [h.strip().lower() for h in header] != ["pauli", "expectation", "shots"]:
            raise ValueError(
                "dataset header must be exactly 'pauli,expectation,shots'"
            )
        records: dict[str, tuple[float, int]] = {}
        index = {}
        n_qubits = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ValueError(f"line {line_no}: expected 3 fields")
            label, *values = map(str.strip, row)
            n_qubits = n_qubits or len(label)  # the first line's label
            try:
                if label in records:  # so it parsed, on n_qubits qubits
                    raise ValueError(f"duplicate label {_shown(label)}")
                records[label] = record = _converted(*values)
                packed, value = _entry(n_qubits, label, _shown(label), record)
                index[packed] = value
            except ValueError as err:
                raise ValueError(f"line {line_no}: {err}") from None
        if n_qubits is None:
            raise ValueError("dataset has no records")
        # every record passed _entry above, which is all the constructor
        # would check again
        return cls._filled(n_qubits, records, index)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["pauli", "expectation", "shots"])
        for label in sorted(self.records):
            e, m = self.records[label]
            writer.writerow([label, repr(float(e)), m])
        return out.getvalue()


@dataclass(frozen=True)
class WernerModel(_Source):
    """White-noise mixture: every non-identity stabilizer has expectation p."""

    p: float

    def __post_init__(self) -> None:
        if not _real(self.p):
            raise ValueError(f"mixing probability {self.p!r} is not a number")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing probability {self.p} outside [0, 1]")

    def _lookup(self, n_qubits: int) -> Callable:
        record = (self.p, 0.0)
        return lambda row: record if row else _IDENTITY


@dataclass(frozen=True)
class WitnessValue:
    """An evaluated witness: expectation, variance, and the detection flag."""

    expectation: float
    variance: float
    detected: bool

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


_SQRT2 = math.sqrt(2.0)


def _assessed(
    expectation: float, variance: float, sigma_threshold: float
) -> tuple[float, float, bool, Optional[float]]:
    """(expectation, stddev, detected, confidence) of a witness value: the
    one place a value is judged, for ``_finish``, ``detection_confidence``
    and the evaluation report's rows.  It is detected when it lies more
    than ``sigma_threshold`` deviations below 0, and the confidence is the
    one-sided Gaussian probability (in %) that the true value is below 0,
    None for zero variance at zero expectation."""
    stddev = math.sqrt(variance)
    if variance:
        confidence = 50.0 * (1.0 + math.erf(-expectation / stddev / _SQRT2))
    elif expectation:
        confidence = 100.0 if expectation < 0 else 0.0
    else:
        confidence = None
    return (
        expectation,
        stddev,
        expectation + sigma_threshold * stddev < 0.0,
        confidence,
    )


def _finish(
    expectation: float, variance: float, sigma_threshold: float
) -> WitnessValue:
    detected = _assessed(expectation, variance, sigma_threshold)[2]
    return WitnessValue(expectation, variance, detected)


def _records(data: DataSource, n_qubits: int, rows: Sequence[int]) -> list[tuple]:
    """The (expectation, variance) records of packed rows, in the order
    given, or one IncompleteDataError naming every row without a record:
    the one place a witness's records are read."""
    records = list(map(data._lookup(n_qubits), rows))
    if None in records:
        absent = (r for r, record in zip(rows, records) if record is None)
        raise IncompleteDataError(
            sorted({pauli_from_row(r, n_qubits).to_text() for r in absent})
        )
    return records


def _ascending_span(key: Sequence[int]) -> list[int]:
    """The 2^a members of the span of a ``rows_rref`` key, in ascending
    packed-row order, with no sort.

    A key lists its rows by descending leading bit, and each leading bit
    is clear in every other row.  Spanned from the lowest row up, entry i
    is the XOR of the rows at the set bits of i, row b being the b-th
    lowest.  Take indices i < j whose highest differing bit is b.  The
    entries differ by the XOR of rows b and lower, none of which has a bit
    above the leading bit of row b, so they agree above it; at it, the
    rows above b are clear and the rows below are too short, so only the
    entry that holds row b, entry j, has that bit set."""
    return _span_rows(reversed(key))


def _scaled(
    expectations: Sequence[float], variances: Sequence[float]
) -> tuple[float, float]:
    """(expectation, variance) of the projector 2^-a * sum over the 2^a
    records of a span, given as their two columns, ``zip(*records)``, and
    summed in their order: the one place a member sum is scaled."""
    scale = 1.0 / len(expectations)
    return scale * sum(expectations), sum(variances) * scale * scale


def _span_columns(
    data: DataSource, n_qubits: int, key: Sequence[int]
) -> Iterator[tuple]:
    """The expectation and variance columns of the records of the span of
    ``key``, a ``rows_rref`` key, in ascending order (``_ascending_span``)."""
    return zip(*_records(data, n_qubits, _ascending_span(key)))


# The kernels: one per witness kind, each (expectation, variance) as floats
# of a witness's n_qubits, basis rows and identity key.  The standard and
# alternative values are read off the two columns of their records by
# ``_standard_of`` and ``_alternative_of``, which
# ``_standard_and_alternative`` shares.


def _standard_of(
    expectations: Sequence[float], variances: Sequence[float]
) -> tuple[float, float]:
    """1/2 minus the projector over a span, from its records' columns."""
    expectation, variance = _scaled(expectations, variances)
    return 0.5 - expectation, variance


def _alternative_of(
    expectations: Sequence[float], variances: Sequence[float]
) -> tuple[float, float]:
    """(n - 1)/2 minus half the sum over the n basis records, from their
    columns, summed in basis order."""
    return (
        (len(expectations) - 1) / 2.0 - 0.5 * sum(expectations),
        0.5 * sum(variances),
    )


def _standard(
    data: DataSource, n_qubits: int, rows: Sequence[int], key: tuple
) -> tuple[float, float]:
    return _standard_of(*_span_columns(data, n_qubits, key))


def _alternative(
    data: DataSource, n_qubits: int, rows: Sequence[int], key: tuple
) -> tuple[float, float]:
    return _alternative_of(*zip(*_records(data, n_qubits, rows)))


def _two_measurement(
    data: DataSource, n_qubits: int, rows: Sequence[int], key: tuple
) -> tuple[float, float]:
    # both parts' spans in one read, so a missing record names the
    # members of both
    x_span, z_span = map(_ascending_span, key)
    records = _records(data, n_qubits, x_span + z_span)
    x_expectation, x_variance = _scaled(*zip(*records[: len(x_span)]))
    z_expectation, z_variance = _scaled(*zip(*records[len(x_span) :]))
    return 1.5 - x_expectation - z_expectation, x_variance + z_variance


def _standard_and_alternative(
    data: DataSource, n_qubits: int, key: tuple
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The standard and alternative kernels of the witness whose basis rows
    are its ``rows_rref`` key, as a census witness's are, from one read of
    the span's records, split once into its two columns.  Span entry 2^b is
    the b-th lowest key row (``_ascending_span``), so entries 2^(a-1), ...,
    2^0 are the key rows in key order: each value adds the same floats in
    the same order as its kernel, and a missing record raises the standard
    kernel's error."""
    expectations, variances = _span_columns(data, n_qubits, key)
    basis = range(len(key) - 1, -1, -1)
    return _standard_of(expectations, variances), _alternative_of(
        [expectations[1 << b] for b in basis], [variances[1 << b] for b in basis]
    )


_KERNELS = {
    WitnessKind.STANDARD: _standard,
    WitnessKind.ALTERNATIVE: _alternative,
    WitnessKind.TWO_MEASUREMENT: _two_measurement,
}


def _kernel(
    kind: WitnessKind, w: WitnessSpec, data: DataSource
) -> tuple[float, float]:
    """The (expectation, variance) of a spec by the kernel of ``kind``: its
    rows, and the key that kind reads off its identity key (``_key_as``),
    with no row reduced.  A spec whose subgroup has no X/Z split has no
    two-measurement key."""
    key = _key_as(kind, w)
    if key is None:
        raise ValueError("witness carries no X/Z split")
    return _KERNELS[kind](data, w.n_qubits, w.rows, key)


def eval_standard(
    w: WitnessSpec, data: DataSource, sigma_threshold: float = 0.0
) -> WitnessValue:
    """Standard witness value 1/2 - 2^-n * sum of subgroup expectations.

    The sum runs over the full spanned subgroup including the identity.
    Variance adds (1 - <s>^2) / (M_s * 2^(2n)) per non-identity member.
    """
    return _finish(*_kernel(WitnessKind.STANDARD, w, data), sigma_threshold)


def eval_alternative(
    w: WitnessSpec, data: DataSource, sigma_threshold: float = 0.0
) -> WitnessValue:
    """Alternative witness value (n-1)/2 - 1/2 * sum over the basis only.

    Variance adds (1 - <s>^2) / (2 * M_s) per basis element, summed in
    basis order.  Only ``w.rows`` is read, so the standard witness of the
    same basis gives the same value.
    """
    return _finish(*_kernel(WitnessKind.ALTERNATIVE, w, data), sigma_threshold)


def eval_two_measurement(
    w: WitnessSpec, data: DataSource, sigma_threshold: float = 0.0
) -> WitnessValue:
    """Two-measurement value 3/2 minus the X-span and Z-span projector sums.

    Each span enters as 2^-a * sum over its 2^a members (identity included;
    an empty part is the identity alone); variances carry the same squared
    coefficients.  Missing records are named for both parts at once.  A
    standard or alternative spec is read by the X/Z split of its key, and
    raises ValueError when its subgroup has none.
    """
    return _finish(*_kernel(WitnessKind.TWO_MEASUREMENT, w, data), sigma_threshold)


def evaluate(
    w: WitnessSpec, data: DataSource, sigma_threshold: float = 0.0
) -> WitnessValue:
    """Evaluate the witness with the kernel of its kind."""
    return _finish(*_kernel(w.kind, w, data), sigma_threshold)


def fidelity(group: StabilizerGroup, data: DataSource) -> tuple[float, float]:
    """State fidelity 2^-N * sum over all 2^N stabilizers, with variance."""
    return _scaled(*_span_columns(data, group.n_qubits, group.key))


def critical_probability(w: WitnessSpec) -> float:
    """The white-noise mixing probability at which the witness hits zero.

    Every witness kind is affine decreasing in p, so the root follows from
    the kernel's values at p = 0 and p = 1 (the latter is -1/2 for all
    kinds).
    """
    at_zero = _kernel(w.kind, w, WernerModel(0.0))[0]
    at_one = _kernel(w.kind, w, WernerModel(1.0))[0]
    return at_zero / (at_zero - at_one)


def detection_confidence(v: WitnessValue) -> float:
    """One-sided Gaussian probability (in %) that the true value is below 0."""
    confidence = _assessed(v.expectation, v.variance, 0.0)[3]
    if confidence is None:
        raise ValueError(
            "confidence undefined for zero variance at zero expectation"
        )
    return confidence
