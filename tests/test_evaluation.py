import contextlib
import csv
import io
import itertools
import math
import numbers
import random
import re
import reprlib
import typing
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import random_stabilizer_set
from test_binary import naive_parse_pauli
from test_witnesses import random_rref_bases
from stabwitness import binary, cliffords, evaluation, groups, witnesses
from stabwitness.binary import parse_pauli, pauli_row, rows_rref
from stabwitness.evaluation import (
    IncompleteDataError,
    MeasurementDataset,
    WernerModel,
    WitnessValue,
    critical_probability,
    detection_confidence,
    eval_alternative,
    eval_standard,
    eval_two_measurement,
    evaluate,
    fidelity,
)
from stabwitness.groups import GeneratorSet, _span_rows, span_group, span_paulis
from stabwitness.witnesses import (
    WitnessKind,
    WitnessSpec,
    enumerate_direct,
    run_census,
    two_measurement_from_standard,
)


def two_measurement_witnesses(group, omega):
    """The two-measurement witnesses of one subsystem of a group's state,
    read off a census of that subsystem."""
    census = run_census(group.generator_set, ("twomeas",), [omega])
    return census.two_measurement[omega]


def werner_standard(n, p):
    return 0.5 - (1 + ((1 << n) - 1) * p) / (1 << n)


def werner_two_measurement(a, b, p):
    return (
        1.5
        - (1 + ((1 << a) - 1) * p) / (1 << a)
        - (1 + ((1 << b) - 1) * p) / (1 << b)
    )


@pytest.fixture(scope="module")
def pair_witness(color_group_module):
    return enumerate_direct(color_group_module, (5, 6))[0]


@pytest.fixture(scope="module")
def color_group_module(request):
    from stabwitness.groups import build_color_code, span_group

    return span_group(build_color_code())


@pytest.fixture(scope="module")
def ideal_dataset(color_group_module):
    return MeasurementDataset.uniform(color_group_module, 1.0, 100)


@pytest.fixture(scope="module")
def mixed_dataset(color_group_module):
    return MeasurementDataset.uniform(color_group_module, 0.0, 100)


class TestDataset:
    def test_csv_round_trip(self):
        text = "pauli,expectation,shots\nZZZZIII,0.83,100\nIXXIXXI,-0.25,50\n"
        data = MeasurementDataset.from_csv(text)
        assert data.n_qubits == 7
        assert data.records["ZZZZIII"] == (0.83, 100)
        assert MeasurementDataset.from_csv(data.to_csv()).records == data.records

    def test_csv_round_trip_keeps_every_digit(self, color_group_module):
        # to_csv used to round each expectation to 12 significant digits,
        # and to raise on a Fraction on Python 3.10 and 3.11
        data = shot_noise_dataset(color_group_module, 5)
        again = MeasurementDataset.from_csv(data.to_csv())
        assert again == data
        assert vars(again) == vars(data)  # the lookup by packed row included
        third = MeasurementDataset(1, {"Z": (Fraction(1, 3), 10)})
        assert third.to_csv() == "pauli,expectation,shots\nZ,0.3333333333333333,10\n"

    @pytest.mark.parametrize("build", ["csv", "pairs"])
    def test_parsed_dataset_is_the_constructors(self, build):
        # an identity record is kept, and must hold expectation 1
        records = {"ZZZZIII": (0.83, 100), "IXXIXXI": (-0.25, 50), "IIIIIII": (1.0, 7)}
        made = MeasurementDataset(7, records)
        if build == "csv":
            data = MeasurementDataset.from_csv(made.to_csv())
        else:
            data = MeasurementDataset.from_pairs(7, {k: (str(e), str(m)) for k, (e, m) in records.items()})
        assert type(data) is MeasurementDataset
        assert data == made
        assert vars(data) == vars(made)  # the lookup by packed row included

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            MeasurementDataset.from_csv("pauli,expectation\nXX,1\n")
        with pytest.raises(ValueError):
            MeasurementDataset.from_csv(
                "pauli,expectation,shots\nXX,1.5,100\n"
            )
        with pytest.raises(ValueError):
            MeasurementDataset.from_csv(
                "pauli,expectation,shots\nXX,0.5,100\nXX,0.4,100\n"
            )

    @pytest.mark.parametrize(
        "row,message",
        [
            ("ZZI,abc,100", "line 3: expectation 'abc' of ZZI is not a number"),
            ("ZZI,0.5,1e3", "line 3: shot count '1e3' of ZZI is not an integer"),
            ("ZZI,nan,100", "line 3: expectation nan of ZZI outside [-1, 1]"),
            ("ZZI,-1.5,100", "line 3: expectation -1.5 of ZZI outside [-1, 1]"),
            ("ZZI,0.5,0", "line 3: non-positive shot count for ZZI"),
        ],
    )
    def test_bad_number_names_line_and_label(self, row, message):
        text = f"pauli,expectation,shots\nXXI,0.5,100\n{row}\n"
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_csv(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "row,message",
        [
            ("ZQI,0.5,10", "line 3: invalid Pauli letter 'Q' in 'ZQI'"),
            ("ZZ,0.5,10", "line 3: label ZZ is not on 3 qubits"),
        ],
    )
    def test_bad_label_names_line(self, row, message):
        text = f"pauli,expectation,shots\nXXI,0.5,100\n{row}\n"
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_csv(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("shots", [2.7, 0.9, float("nan")])
    def test_pairs_refuse_fractional_shot_count(self, shots):
        # 2.7 used to be stored as 2 shots, and 0.9 failed as non-positive
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_pairs(2, {"ZZ": (0.5, shots)})
        assert str(err.value) == f"shot count {shots!r} of 'ZZ' is not an integer"

    @pytest.mark.parametrize("shots", [Fraction(5, 2), Decimal("2.5")])
    def test_pairs_refuse_fractional_shot_count_of_any_type(self, shots):
        # int() truncated both to 2 shots
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_pairs(2, {"ZZ": (0.5, shots)})
        assert str(err.value) == f"shot count {shots!r} of 'ZZ' is not an integer"

    def test_pairs_take_integral_float_shot_count(self):
        data = MeasurementDataset.from_pairs(2, {"ZZ": (0.5, 3.0)})
        assert data.records == {"ZZ": (0.5, 3)}
        assert isinstance(data.records["ZZ"][1], int)

    @pytest.mark.parametrize("shots", [Fraction(6, 2), Decimal("3"), "3"])
    def test_pairs_take_whole_shot_count_of_any_type(self, shots):
        data = MeasurementDataset.from_pairs(2, {"ZZ": (0.5, shots)})
        assert data.records == {"ZZ": (0.5, 3)}
        assert type(data.records["ZZ"][1]) is int

    def test_long_field_is_shortened_in_the_message(self):
        # a count past int()'s digit limit was echoed whole: 5,045 characters
        text = "pauli,expectation,shots\nZZ,0.5," + "1" * 5000 + "\n"
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_csv(text)
        message = str(err.value)
        assert message.startswith("line 2: shot count '111")
        assert message.endswith("' of ZZ is not an integer")
        assert len(message) < 100

    @pytest.mark.parametrize(
        "label,message",
        [
            # a 5,000-letter label was echoed whole: 5,033 and 5,039 characters
            ("Z" * 5000, "line 3: label ZZZZZZZZZZZZ...ZZZZZZZZZZZZZ is not on 2 qubits"),
            (
                "Q" + "Z" * 5000,
                "line 3: invalid Pauli letter 'Q' in 'QZZZZZZZZZZZ...ZZZZZZZZZZZZZ'",
            ),
            # up to 28 letters a label is echoed whole, as before
            ("Z" * 28, "line 3: label " + "Z" * 28 + " is not on 2 qubits"),
            ("Q" + "Z" * 27, "line 3: invalid Pauli letter 'Q' in 'Q" + "Z" * 27 + "'"),
        ],
    )
    def test_long_label_is_shortened_in_the_message(self, label, message):
        text = f"pauli,expectation,shots\nZZ,0.5,10\n{label},0.5,10\n"
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_csv(text)
        assert str(err.value) == message

    def test_long_label_is_shortened_by_every_constructor(self):
        label = "Z" * 5000
        message = "label 'ZZZZZZZZZZZZ...ZZZZZZZZZZZZZ' is not on 2 qubits"
        for build in (MeasurementDataset, MeasurementDataset.from_pairs):
            with pytest.raises(ValueError) as err:
                build(2, {label: (0.5, 10)})
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "pair,message",
        [
            ((0.5, "2.7"), "shot count '2.7' of 'ZZ' is not an integer"),
            ((0.5, True), "shot count True of 'ZZ' is not an integer"),
            (("high", 3), "expectation 'high' of 'ZZ' is not a number"),
        ],
    )
    def test_pairs_name_the_label_of_an_unconvertible_value(self, pair, message):
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_pairs(2, {"ZZ": pair})
        assert str(err.value) == message

    @pytest.mark.parametrize("shots", [2.5, 3.0, "100", True])
    def test_constructor_refuses_non_integer_shot_count(self, shots):
        with pytest.raises(ValueError) as err:
            MeasurementDataset(2, {"ZZ": (0.5, shots)})
        assert str(err.value) == f"shot count {shots!r} of 'ZZ' is not an integer"

    @pytest.mark.parametrize("expectation", ["0.5", None, 0.5j, True, False])
    def test_constructor_refuses_non_number_expectation(self, expectation):
        # "0.5", None and 0.5j failed the range check with a TypeError that
        # did not name the label, and True was stored as the expectation
        with pytest.raises(ValueError) as err:
            MeasurementDataset(2, {"ZZ": (expectation, 10)})
        assert str(err.value) == (
            f"expectation {expectation!r} of 'ZZ' is not a number"
        )

    def test_constructor_takes_real_expectations(self):
        data = MeasurementDataset(2, {"ZZ": (1, 10), "XX": (Fraction(1, 2), 4)})
        assert data.expectation_of(parse_pauli("ZZ")) == 1
        assert data.variance_of(parse_pauli("XX")) == 0.1875

    def test_identity_always_served(self):
        data = MeasurementDataset(2, {"XX": (0.5, 10)})
        identity = parse_pauli("II")
        assert data.expectation_of(identity) == 1.0
        assert data.variance_of(identity) == 0.0

    @pytest.mark.parametrize("source", ["constructor", "pairs", "csv"])
    def test_identity_record_of_one_is_kept(self, source):
        data = dataset_from(source, "II", "1,10", (1, 10))
        assert data.records["II"] == (1, 10)
        assert MeasurementDataset.from_csv(data.to_csv()).records == data.records
        identity = parse_pauli("II")
        assert data.expectation_of(identity) == 1.0
        assert data.variance_of(identity) == 0.0

    @pytest.mark.parametrize(
        "text,shots", [("010", 10), ("+10", 10), ("1_000", 1000), ("\u0661\u0660", 10)]
    )
    def test_csv_shot_count_is_what_int_reads(self, text, shots):
        data = MeasurementDataset.from_csv(f"pauli,expectation,shots\nZZ,0.5,{text}\n")
        assert data.records == {"ZZ": (0.5, shots)}
        assert type(data.records["ZZ"][1]) is int

    @pytest.mark.parametrize(
        "text,expectation",
        [("-0.0", -0.0), ("1E-3", 0.001), ("0.5_0", 0.5), (" 0.5 ", 0.5)],
    )
    def test_csv_expectation_is_what_float_reads(self, text, expectation):
        data = MeasurementDataset.from_csv(f"pauli,expectation,shots\nZZ,{text},10\n")
        e = data.records["ZZ"][0]
        assert type(e) is float
        assert e.hex() == expectation.hex()  # -0.0 keeps its sign

    @pytest.mark.parametrize("shots", ["10", 10.0, "+10", "\u0661\u0660"])
    @pytest.mark.parametrize("expectation", ["-0.0", " 0.5 ", "1E-3", 0.25])
    def test_pairs_convert_as_float_and_int_do(self, expectation, shots):
        data = MeasurementDataset.from_pairs(2, {"ZZ": (expectation, shots)})
        e, m = data.records["ZZ"]
        assert (type(e), type(m)) == (float, int)
        assert (e.hex(), m) == (float(expectation).hex(), 10)

    def test_missing_listed(self):
        data = MeasurementDataset(2, {"XX": (0.5, 10)})
        missing = data.missing([parse_pauli("ZZ"), parse_pauli("XX"), parse_pauli("YY")])
        assert missing == ["YY", "ZZ"]

    def test_werner_model(self):
        model = WernerModel(0.4)
        assert model.expectation_of(parse_pauli("XIX")) == 0.4
        assert model.expectation_of(parse_pauli("III")) == 1.0
        assert model.variance_of(parse_pauli("XIX")) == 0.0
        with pytest.raises(ValueError):
            WernerModel(1.2)

    @pytest.mark.parametrize(
        "p,message",
        [
            # True was taken as p = 1, and "0.5" failed the range check
            # with a TypeError that named nothing
            (True, "mixing probability True is not a number"),
            ("0.5", "mixing probability '0.5' is not a number"),
            (None, "mixing probability None is not a number"),
            (0.5j, "mixing probability 0.5j is not a number"),
            (float("nan"), "mixing probability nan outside [0, 1]"),
        ],
    )
    def test_werner_refuses_non_number(self, p, message):
        with pytest.raises(ValueError) as err:
            WernerModel(p)
        assert str(err.value) == message

    def test_werner_takes_real_numbers(self):
        assert WernerModel(Fraction(1, 2)).expectation_of(parse_pauli("XX")) == 0.5
        assert WernerModel(1).expectation_of(parse_pauli("XX")) == 1


def dataset_from(source, label, csv_values, values):
    """One record of a 2-qubit dataset through the constructor,
    ``from_pairs`` or ``from_csv``, the last after a good first line, so a
    CSV fault is on line 3."""
    if source == "csv":
        text = f"pauli,expectation,shots\nXX,0.5,100\n{label},{csv_values}\n"
        return MeasurementDataset.from_csv(text)
    build = MeasurementDataset if source == "constructor" else MeasurementDataset.from_pairs
    return build(2, {label: values})


def expected_message(source, template, label):
    """The CSV names the line and the bare label; the others quote it."""
    if source == "csv":
        return "line 3: " + template.format(label=label)
    return template.format(label=repr(label))


# One fault per row: (label, CSV values, Python values, message).  The
# Python values print as the CSV text does, so the three sources differ
# only in the line prefix and the quoting of the label.
SINGLE_FAULTS = {
    "letter": ("ZQ", "0.5,10", (0.5, 10), "invalid Pauli letter 'Q' in 'ZQ'"),
    "qubits": ("ZZZ", "0.5,10", (0.5, 10), "label {label} is not on 2 qubits"),
    "type": ("ZZ", "abc,10", ("abc", 10), "expectation 'abc' of {label} is not a number"),
    "above": ("ZZ", "1.5,10", (1.5, 10), "expectation 1.5 of {label} outside [-1, 1]"),
    "below": ("ZZ", "-1.5,10", (-1.5, 10), "expectation -1.5 of {label} outside [-1, 1]"),
    "nan": ("ZZ", "nan,10", (float("nan"), 10), "expectation nan of {label} outside [-1, 1]"),
    "shots": ("ZZ", "0.5,1e3", (0.5, "1e3"), "shot count '1e3' of {label} is not an integer"),
    "zero": ("ZZ", "0.5,0", (0.5, 0), "non-positive shot count for {label}"),
    "negative": ("ZZ", "0.5,-3", (0.5, -3), "non-positive shot count for {label}"),
    # the identity is served as expectation 1, so a record of another value
    # would be dropped unread
    "identity": (
        "II", "0.3,10", (0.3, 10), "expectation 0.3 of the identity {label} is not 1"
    ),
}

# Two faults per record, each reported by the check that runs first:
# label, qubit count, expectation type, range, identity, shot type,
# positivity.
CONSTRUCTOR_DOUBLE_FAULTS = [
    ("ZQ", (1.5, 10), "invalid Pauli letter 'Q' in 'ZQ'"),
    ("ZQ", ("abc", 2.5), "invalid Pauli letter 'Q' in 'ZQ'"),
    ("ZZZ", ("abc", 10), "label 'ZZZ' is not on 2 qubits"),
    ("ZZZ", (1.5, 0), "label 'ZZZ' is not on 2 qubits"),
    ("ZZ", ("abc", "1e3"), "expectation 'abc' of 'ZZ' is not a number"),
    ("ZZ", (None, 0), "expectation None of 'ZZ' is not a number"),
    ("ZZ", (1.5, 2.5), "expectation 1.5 of 'ZZ' outside [-1, 1]"),
    ("ZZ", (1.5, 0), "expectation 1.5 of 'ZZ' outside [-1, 1]"),
    ("II", (1.5, 0), "expectation 1.5 of 'II' outside [-1, 1]"),
    ("II", (0.3, 2.5), "expectation 0.3 of the identity 'II' is not 1"),
    ("II", (0.3, 0), "expectation 0.3 of the identity 'II' is not 1"),
]

# from_pairs reports a value that float() or int() refuses (or a bool or
# fractional float shot count) first, then a bad label, and only then the
# constructor's checks: qubit count, range, identity, positivity.
PAIRS_DOUBLE_FAULTS = [
    ("ZQ", (1.5, 10), "invalid Pauli letter 'Q' in 'ZQ'"),
    ("ZQ", ("abc", 2.5), "expectation 'abc' of 'ZQ' is not a number"),
    ("ZZZ", ("abc", 10), "expectation 'abc' of 'ZZZ' is not a number"),
    ("ZZZ", (1.5, 0), "label 'ZZZ' is not on 2 qubits"),
    ("ZZ", ("abc", "1e3"), "expectation 'abc' of 'ZZ' is not a number"),
    ("ZZ", (None, 0), "expectation None of 'ZZ' is not a number"),
    ("ZZ", (1.5, 2.5), "shot count 2.5 of 'ZZ' is not an integer"),
    ("ZZ", (1.5, True), "shot count True of 'ZZ' is not an integer"),
    ("ZZ", (1.5, 0), "expectation 1.5 of 'ZZ' outside [-1, 1]"),
    ("II", (0.3, 2.5), "shot count 2.5 of 'II' is not an integer"),
    ("II", (0.3, 0), "expectation 0.3 of the identity 'II' is not 1"),
]

CSV_DOUBLE_FAULTS = [
    ("ZQI,abc,100", "line 3: invalid Pauli letter 'Q' in 'ZQI'"),
    ("ZQI,0.5", "line 3: expected 3 fields"),
    ("ZZ,abc,100", "line 3: label ZZ is not on 3 qubits"),
    ("ZZ,1.5,100", "line 3: label ZZ is not on 3 qubits"),
    ("XXI,1.5,100", "line 3: duplicate label XXI"),
    ("ZZI,abc,1e3", "line 3: expectation 'abc' of ZZI is not a number"),
    ("ZZI,abc,0", "line 3: expectation 'abc' of ZZI is not a number"),
    ("ZZI,1.5,1e3", "line 3: expectation 1.5 of ZZI outside [-1, 1]"),
    ("ZZI,nan,0", "line 3: expectation nan of ZZI outside [-1, 1]"),
    ("III,1.5,0", "line 3: expectation 1.5 of III outside [-1, 1]"),
    ("III,0.3,1e3", "line 3: expectation 0.3 of the identity III is not 1"),
]


class TestRecordFaults:
    @pytest.mark.parametrize("source", ["constructor", "pairs", "csv"])
    @pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
    def test_each_source_names_a_fault_alike(self, source, fault):
        label, csv_values, values, template = SINGLE_FAULTS[fault]
        with pytest.raises(ValueError) as err:
            dataset_from(source, label, csv_values, values)
        assert str(err.value) == expected_message(source, template, label)

    @pytest.mark.parametrize("label,values,message", CONSTRUCTOR_DOUBLE_FAULTS)
    def test_constructor_reports_the_first_of_two_faults(self, label, values, message):
        with pytest.raises(ValueError) as err:
            MeasurementDataset(2, {label: values})
        assert str(err.value) == message

    @pytest.mark.parametrize("label,values,message", PAIRS_DOUBLE_FAULTS)
    def test_pairs_report_the_first_of_two_faults(self, label, values, message):
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_pairs(2, {label: values})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "pairs,message",
        [
            # a later record's value that does not convert comes before an
            # earlier record's qubit count, range or shot count
            ({"ZZZ": (0.5, 10), "XX": ("abc", 10)}, "expectation 'abc' of 'XX' is not a number"),
            ({"XX": (0.5, 0), "YY": (0.5, "x")}, "shot count 'x' of 'YY' is not an integer"),
            ({"XX": (1.5, 10), "ZQ": (0.5, 10)}, "invalid Pauli letter 'Q' in 'ZQ'"),
            # an earlier record's bad label comes before a later one's value
            ({"ZQ": (0.5, 10), "XX": ("abc", 10)}, "invalid Pauli letter 'Q' in 'ZQ'"),
        ],
    )
    def test_pairs_report_conversion_and_label_faults_first(self, pairs, message):
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_pairs(2, pairs)
        assert str(err.value) == message

    @pytest.mark.parametrize("row,message", CSV_DOUBLE_FAULTS)
    def test_csv_reports_the_first_of_two_faults(self, row, message):
        text = f"pauli,expectation,shots\nXXI,0.5,100\n{row}\n"
        with pytest.raises(ValueError) as err:
            MeasurementDataset.from_csv(text)
        assert str(err.value) == message

    def test_first_faulty_record_is_reported(self):
        records = {"XX": (0.5, 10), "ZZ": (0.5, 0), "YY": (1.5, 10)}
        with pytest.raises(ValueError, match="^non-positive shot count for 'ZZ'$"):
            MeasurementDataset(2, records)
        text = "pauli,expectation,shots\nXX,0.5,10\nZZ,0.5,0\nYY,1.5,10\n"
        with pytest.raises(ValueError, match="^line 3: non-positive shot count for ZZ$"):
            MeasurementDataset.from_csv(text)

    @pytest.mark.parametrize("source", ["constructor", "pairs", "csv"])
    def test_shot_count_too_large_for_a_float(self, source):
        # the variance (1 - e^2) / shots raised OverflowError, which the CLI
        # did not catch
        shots = 10**400
        with pytest.raises(ValueError) as err:
            dataset_from(source, "ZZ", f"0.5,{shots}", (0.5, shots))
        assert str(err.value) == expected_message(
            source, "shot count for {label} is too large", "ZZ"
        )

    def test_largest_float_shot_count_is_taken(self):
        data = MeasurementDataset(2, {"ZZ": (0.5, int(1e308))})
        assert data.variance_of(parse_pauli("ZZ")) == 0.75 / 1e308

    @pytest.mark.parametrize("build", [MeasurementDataset, MeasurementDataset.from_pairs])
    @pytest.mark.parametrize(
        "records,message",
        [
            # each used to raise a TypeError or an unpacking error that
            # named neither the label nor the value
            ({5: (0.5, 10)}, "label 5 is not a Pauli string"),
            ({"ZZ": 0.5}, "record 0.5 of 'ZZ' is not an (expectation, shots) pair"),
            ({"ZZ": (0.5,)}, "record (0.5,) of 'ZZ' is not an (expectation, shots) pair"),
            (
                {"ZZ": (0.5, 10, 3)},
                "record (0.5, 10, 3) of 'ZZ' is not an (expectation, shots) pair",
            ),
            # two characters unpack into two values, but are not a record
            ({"ZZ": "05"}, "record '05' of 'ZZ' is not an (expectation, shots) pair"),
            ({"ZZ": "ab"}, "record 'ab' of 'ZZ' is not an (expectation, shots) pair"),
            ({"ZZ": b"05"}, "record b'05' of 'ZZ' is not an (expectation, shots) pair"),
        ],
    )
    def test_malformed_record_is_named(self, build, records, message):
        with pytest.raises(ValueError) as err:
            build(2, records)
        assert str(err.value) == message

    @pytest.mark.parametrize("build", [MeasurementDataset, MeasurementDataset.from_pairs])
    @pytest.mark.parametrize("records", [[("ZZ", (0.5, 10))], None, "ZZ"])
    def test_records_must_be_a_mapping(self, build, records):
        # a list of pairs raised AttributeError: 'list' object has no
        # attribute 'items'
        with pytest.raises(ValueError) as err:
            build(2, records)
        assert str(err.value) == (
            f"records {records!r} are not a mapping of label to (expectation, shots)"
        )

    @pytest.mark.parametrize("build", [MeasurementDataset, MeasurementDataset.from_pairs])
    @pytest.mark.parametrize("n_qubits", ["2", -1, 0, True, 2.0, None])
    def test_qubit_count_must_be_a_positive_integer(self, build, n_qubits):
        # "2" was reported as "label 'ZZ' is not on 2 qubits", and -1 was
        # taken for a dataset with no records
        with pytest.raises(ValueError) as err:
            build(n_qubits, {})
        assert str(err.value) == f"qubit count {n_qubits!r} is not a positive integer"


# ---------------------------------------------------------------------------
# Oracle: the record check that parsing each label to its row replaced.
# Each label is parsed to an operator by a loop over its letters and packed
# afterwards, and each value is converted under contextlib.suppress and
# typed by the numbers ABCs alone.
# ---------------------------------------------------------------------------


def naive_converted(e, shots):
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        e = float(e)
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        whole = int(shots)
        if not isinstance(shots, numbers.Number) or (
            whole == shots and not isinstance(shots, bool)
        ):
            shots = whole
    return e, shots


def naive_number(e, name):
    if not isinstance(e, numbers.Real) or isinstance(e, bool):
        raise ValueError(f"expectation {reprlib.repr(e)} of {name} is not a number")
    return e


def naive_count(shots, name):
    if isinstance(shots, bool) or not isinstance(shots, int):
        raise ValueError(f"shot count {reprlib.repr(shots)} of {name} is not an integer")
    return shots


def naive_pauli(label):
    if not isinstance(label, str):
        raise ValueError(f"label {reprlib.repr(label)} is not a Pauli string")
    return naive_parse_pauli(label)


def naive_entry(n_qubits, label, name, record):
    p = naive_pauli(label)
    try:
        e, shots = () if isinstance(record, (str, bytes)) else record
    except (TypeError, ValueError):
        raise ValueError(
            f"record {record!r} of {name} is not an (expectation, shots) pair"
        ) from None
    if p.n_qubits != n_qubits:
        raise ValueError(f"label {name} is not on {n_qubits} qubits")
    if not -1.0 <= naive_number(e, name) <= 1.0:
        raise ValueError(f"expectation {e} of {name} outside [-1, 1]")
    if p.is_identity and e != 1:
        raise ValueError(f"expectation {e} of the identity {name} is not 1")
    if naive_count(shots, name) <= 0:
        raise ValueError(f"non-positive shot count for {name}")
    try:
        return pauli_row(p), (e, (1.0 - e * e) / shots)
    except OverflowError:
        raise ValueError(f"shot count for {name} is too large") from None


NAIVE_CHECK = (naive_converted, naive_number, naive_count, naive_entry)
CHECK = (evaluation._converted, evaluation._number, evaluation._count, evaluation._entry)


def record_check(check, source, n_qubits, label, values):
    """One record through the check of ``source`` as its loader runs it:
    repr of (row, record, (expectation, variance)), or the message.  The
    CSV converts its text fields first, leaving what does not convert for
    the check to name; ``from_pairs`` converts and types both values before
    it reads the label; the constructor checks the record as given."""
    converted, number, count, entry = check
    try:
        if source == "csv":
            name = evaluation._shown(label)
            record = converted(*values.split(","))
        elif source == "pairs":
            name = reprlib.repr(label)
            e, shots = converted(*values)
            record = number(e, name), count(shots, name)
        else:
            name, record = reprlib.repr(label), values
        row, value = entry(n_qubits, label, name, record)
    except ValueError as err:
        return str(err)
    return repr((row, record, value))


def random_records(rng, n_qubits, count):
    """(label, CSV values, Python values) of seeded records, most of them
    valid: labels of every letter with now and then a bad letter, another
    length or the identity, and values of each type the loaders convert."""
    expectations = [
        lambda: rng.uniform(-1.0, 1.0),
        lambda: rng.choice([-1, 0, 1]),
        lambda: Fraction(rng.randint(-9, 9), 9),
        lambda: repr(rng.uniform(-1.0, 1.0)),
        lambda: rng.choice(["-0.0", "1E-3", "0.5_0", "nan", "abc", "1.5", True, None]),
    ]
    shot_counts = [
        lambda: rng.randint(1, 2000),
        lambda: str(rng.randint(1, 2000)),
        lambda: float(rng.randint(1, 2000)),
        lambda: rng.choice(["010", "+10", "1_000", "\u0661\u0660", "0", "2.5", "1e3"]),
        lambda: rng.choice([2.5, 0, -3, True, Decimal("12"), 10**400]),
    ]
    out = []
    for _ in range(count):
        letters = [rng.choice("IXYZ") for _ in range(n_qubits)]
        roll = rng.random()
        if roll < 0.05:
            letters[rng.randrange(n_qubits)] = rng.choice("Q0_ ")
        elif roll < 0.1:
            letters.append("Z")
        elif roll < 0.2:
            letters = ["I"] * n_qubits
        label = "".join(letters)
        e, shots = rng.choice(expectations)(), rng.choice(shot_counts)()
        if label.strip("I") == "" and rng.random() < 0.7:
            e = rng.choice([1, 1.0, "1", Fraction(1)])
        out.append((label, f"{e},{shots}", (e, shots)))
    return out


class TestRecordCheckMatchesNaive:
    @pytest.mark.parametrize("n_qubits", [1, 3, 8])
    def test_seeded_records(self, n_qubits):
        records = random_records(random.Random(90 + n_qubits), n_qubits, 400)
        accepted = 0
        for source in ("constructor", "pairs", "csv"):
            for label, csv_values, values in records:
                given = csv_values if source == "csv" else values
                got = record_check(CHECK, source, n_qubits, label, given)
                assert got == record_check(NAIVE_CHECK, source, n_qubits, label, given)
                accepted += not got.startswith(("label", "invalid", "expectation", "shot", "non"))
        assert 300 < accepted < 900  # of 1,200 records checked

    @pytest.mark.parametrize("source", ["constructor", "pairs", "csv"])
    @pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
    def test_single_faults(self, source, fault):
        label, csv_values, values, template = SINGLE_FAULTS[fault]
        given = csv_values if source == "csv" else values
        got = record_check(CHECK, source, 2, label, given)
        assert got == record_check(NAIVE_CHECK, source, 2, label, given)
        assert got == template.format(label=label if source == "csv" else repr(label))

    @pytest.mark.parametrize(
        "source,label,values,message",
        [("constructor", *case) for case in CONSTRUCTOR_DOUBLE_FAULTS]
        + [("pairs", *case) for case in PAIRS_DOUBLE_FAULTS]
        + [
            ("csv", row.split(",", 1)[0], row.split(",", 1)[1], message[len("line 3: ") :])
            for row, message in CSV_DOUBLE_FAULTS
            # a row of two fields and a duplicate label fail before the check
            if row.count(",") == 2 and "duplicate" not in message
        ],
    )
    def test_double_faults(self, source, label, values, message):
        n_qubits = 3 if source == "csv" else 2
        got = record_check(CHECK, source, n_qubits, label, values)
        assert got == record_check(NAIVE_CHECK, source, n_qubits, label, values)
        assert got == message


class TestStandard:
    def test_ideal_gives_minus_half(self, pair_witness, ideal_dataset):
        value = eval_standard(pair_witness, ideal_dataset)
        assert value.expectation == -0.5
        assert value.variance == 0.0
        assert value.detected

    def test_fully_mixed_genuine(self, color_group_module, mixed_dataset):
        spec = WitnessSpec.standard_genuine(color_group_module.generator_set)
        value = eval_standard(spec, mixed_dataset)
        assert value.expectation == pytest.approx(0.5 - 1 / 128, abs=1e-15)
        assert not value.detected

    def test_werner_closed_form(self, pair_witness):
        for p in (0.0, 0.3, 0.9, 1.0):
            value = eval_standard(pair_witness, WernerModel(p))
            assert value.expectation == pytest.approx(
                werner_standard(2, p), abs=1e-15
            )

    def test_basis_independence(self, color_group_module, ideal_dataset):
        rng = random.Random(3)
        spec = enumerate_direct(color_group_module, (1, 2, 3, 4))[5]
        # uneven expectations so sums would expose any order dependence
        data = MeasurementDataset(
            7,
            {
                e.to_text(): (
                    (((e.z_bits * 31 + e.x_bits) % 199) - 99) / 100,
                    100 + i,
                )
                for i, e in enumerate(color_group_module.non_identity())
            },
        )
        base = eval_standard(spec, data)
        # scramble the basis: multiply elements together pairwise
        scrambled = list(spec.basis)
        for _ in range(10):
            i, j = rng.sample(range(len(scrambled)), 2)
            scrambled[i] = scrambled[i] * scrambled[j]
        other = WitnessSpec.standard_local(spec.omega, scrambled)
        again = eval_standard(other, data)
        assert again.expectation == base.expectation
        assert again.variance == base.variance

    def test_each_kind_reads_any_spec(self, color_group_module):
        # eval_standard sums the span of any spec's key, and
        # eval_two_measurement the X/Z split of any spec's key, whatever its
        # kind
        data = shot_noise_dataset(color_group_module, 5)
        splits = two_measurement_witnesses(color_group_module, (1, 2, 3, 4))
        for split in splits:
            standard = WitnessSpec(
                WitnessKind.STANDARD, split.omega, 7, split.rows[::-1]
            )
            assert eval_standard(split, data) == eval_standard(standard, data)
            assert eval_two_measurement(standard, data) == eval_two_measurement(
                split, data
            )
        pair = enumerate_direct(color_group_module, (5, 6))
        with pytest.raises(ValueError, match="carries no X/Z split"):
            eval_two_measurement(pair[2], data)
        (split,) = [
            w for w in two_measurement_witnesses(color_group_module, (5, 6))
            if tuple(rows_rref(w.rows)) == pair[0].identity_key
        ]
        assert eval_two_measurement(pair[0], data) == eval_two_measurement(split, data)

    def test_census_keys_read_as_every_kind(self, full_census, color_group):
        # a direct witness evaluates as a two-measurement one exactly when its
        # key splits, to its census split's value; no cross-kind read reduces
        # a row
        data = shot_noise_dataset(color_group, 5)
        direct = [w for ws in full_census.direct.values() for w in ws]
        graph = [w for ws in full_census.graph_based.values() for w in ws]
        twomeas = [w for ws in full_census.two_measurement.values() for w in ws]
        split_of = {(w.omega, tuple(rows_rref(w.rows))): w for w in twomeas}
        assert (len(direct), len(split_of)) == (3927, 476)
        calls = []
        real = binary.rows_rref

        def spy(rows):
            calls.append(rows)
            return real(rows)

        assert not hasattr(evaluation, "rows_rref")
        with pytest.MonkeyPatch.context() as patch:
            for module in (binary, cliffords, groups, witnesses):
                patch.setattr(module, "rows_rref", spy)
            evaluated = 0
            for w in direct:
                target = split_of.get((w.omega, w.identity_key))
                if target is None:
                    with pytest.raises(ValueError, match="carries no X/Z split"):
                        eval_two_measurement(w, data)
                    assert two_measurement_from_standard(w) is None
                else:
                    value = eval_two_measurement(w, data)
                    assert value == eval_two_measurement(target, data)
                    assert two_measurement_from_standard(w) == target
                    evaluated += 1
            for w in direct + graph + twomeas:
                alternative = WitnessSpec.alternative_from(w)
                assert alternative.identity_key == tuple(real(w.rows))
                assert eval_standard(w, data) == eval_standard(alternative, data)
                assert eval_alternative(w, data) == eval_alternative(alternative, data)
            for w in twomeas:
                assert two_measurement_from_standard(w) == w
        assert evaluated == 476
        assert calls == []

    def test_empty_basis_rejected(self):
        # an empty span would otherwise evaluate to a detection at -1/2
        for kind in WitnessKind:
            with pytest.raises(ValueError, match="at least one basis"):
                WitnessSpec(kind, None, 3, (), x_rows=(), z_rows=())
        with pytest.raises(ValueError, match="at least one basis"):
            WitnessSpec.standard_local((), [])

    def test_missing_data_error_lists_labels(self, pair_witness):
        data = MeasurementDataset(7, {})
        with pytest.raises(IncompleteDataError) as err:
            eval_standard(pair_witness, data)
        assert len(err.value.missing) == 3  # subgroup minus identity

    def test_variance_per_record_shots(self, pair_witness):
        members = [
            p for p in span_paulis(list(pair_witness.basis)) if not p.is_identity
        ]
        records = {}
        e = 0.5
        shots = [100, 200, 400]
        for p, m in zip(members, shots):
            records[p.to_text()] = (e, m)
        data = MeasurementDataset(7, records)
        value = eval_standard(pair_witness, data)
        expected = sum((1 - e * e) / m for m in shots) / 16.0
        assert value.variance == pytest.approx(expected, rel=1e-12)


class TestAlternative:
    def test_ideal(self, pair_witness, ideal_dataset):
        spec = WitnessSpec.alternative_from(pair_witness)
        value = eval_alternative(spec, ideal_dataset)
        assert value.expectation == -0.5
        assert value.variance == 0.0

    def test_fully_mixed(self, pair_witness, mixed_dataset):
        spec = WitnessSpec.alternative_from(pair_witness)
        value = eval_alternative(spec, mixed_dataset)
        assert value.expectation == (2 - 1) / 2.0

    def test_werner_zero_at_one_minus_one_over_n(self, color_group_module):
        for omega in [(5, 6), (1, 2, 5), (1, 2, 3, 4)]:
            spec = WitnessSpec.alternative_from(
                enumerate_direct(color_group_module, omega)[0]
            )
            n = len(omega)
            value = eval_alternative(spec, WernerModel(1 - 1 / n))
            assert value.expectation == pytest.approx(0.0, abs=1e-12)

    def test_variance_coefficient(self, pair_witness):
        # printed coefficient: one half of the per-record binomial variance
        spec = WitnessSpec.alternative_from(pair_witness)
        e, shots = 0.6, 50
        data = MeasurementDataset(
            7, {p.to_text(): (e, shots) for p in spec.basis}
        )
        value = eval_alternative(spec, data)
        assert value.variance == pytest.approx(
            0.5 * 2 * (1 - e * e) / shots, rel=1e-12
        )


class TestTwoMeasurement:
    def test_ideal(self, color_group_module, ideal_dataset):
        for spec in two_measurement_witnesses(color_group_module, (5, 6)):
            value = eval_two_measurement(spec, ideal_dataset)
            assert value.expectation == -0.5
            assert value.variance == 0.0

    def test_fully_mixed_genuine_exceeds_half(self, color_group_module, mixed_dataset):
        spec = two_measurement_from_standard(
            WitnessSpec.standard_genuine(color_group_module.generator_set)
        )
        assert spec is not None
        assert len(spec.x_basis) == 4 and len(spec.z_basis) == 3
        value = eval_two_measurement(spec, mixed_dataset)
        # 3/2 - 1/16 - 1/8
        assert value.expectation == pytest.approx(1.3125, abs=1e-15)
        assert value.expectation > 0.5

    def test_werner_closed_form(self, color_group_module):
        spec = two_measurement_witnesses(color_group_module, (1, 2, 3, 4))[0]
        a, b = len(spec.x_basis), len(spec.z_basis)
        for p in (0.0, 0.4, 1.0):
            value = eval_two_measurement(spec, WernerModel(p))
            assert value.expectation == pytest.approx(
                werner_two_measurement(a, b, p), abs=1e-14
            )

    def test_empty_x_part(self):
        gens = GeneratorSet.from_texts(["ZZI", "IZZ", "XXX"])
        group = span_group(gens)
        spec = two_measurement_witnesses(group, (1, 2))[0]
        data = MeasurementDataset.uniform(group, 1.0, 10)
        assert eval_two_measurement(spec, data).expectation == -0.5


class TestFidelity:
    def test_ideal(self, color_group_module, ideal_dataset):
        value, variance = fidelity(color_group_module, ideal_dataset)
        assert value == 1.0
        assert variance == 0.0

    def test_fully_mixed(self, color_group_module, mixed_dataset):
        value, _ = fidelity(color_group_module, mixed_dataset)
        assert value == pytest.approx(1 / 128, abs=1e-15)

    def test_werner(self, color_group_module):
        value, variance = fidelity(color_group_module, WernerModel(0.33))
        assert value == pytest.approx((1 + 127 * 0.33) / 128, abs=1e-12)
        assert value == pytest.approx(0.33 + 0.67 / 128, abs=1e-12)
        assert variance == 0.0

    @pytest.mark.parametrize("source", ["shots", "werner0.33", "werner0.9"])
    def test_is_the_genuine_standard_witness(self, color_group_module, source):
        # both read one projector sum over the 2^N members, so they agree
        # bit for bit: fidelity F and the witness value 1/2 - F
        data = {
            "shots": lambda: MeasurementDataset.from_csv(SHOT_DATA.read_text()),
            "werner0.33": lambda: WernerModel(0.33),
            "werner0.9": lambda: WernerModel(0.9),
        }[source]()
        genuine = WitnessSpec.standard_genuine(color_group_module.generator_set)
        value = eval_standard(genuine, data)
        assert float_bits(fidelity(color_group_module, data)) == float_bits(
            (0.5 - value.expectation, value.variance)
        )


class TestCriticalProbability:
    def test_alternative_local(self, color_group_module):
        spec = WitnessSpec.alternative_from(
            enumerate_direct(color_group_module, (1, 2, 3, 4))[0]
        )
        assert critical_probability(spec) == pytest.approx(0.75, abs=1e-12)

    def test_standard_local_pair(self, pair_witness):
        assert critical_probability(pair_witness) == pytest.approx(1 / 3, abs=1e-12)

    def test_standard_genuine(self, color_group_module):
        spec = WitnessSpec.standard_genuine(color_group_module.generator_set)
        assert critical_probability(spec) == pytest.approx(63 / 127, abs=1e-12)

    def test_root_really_is_zero(self, pair_witness):
        p_c = critical_probability(pair_witness)
        assert eval_standard(pair_witness, WernerModel(p_c)).expectation == pytest.approx(
            0.0, abs=1e-12
        )


class TestConfidence:
    def test_zero_expectation(self):
        assert detection_confidence(WitnessValue(0.0, 0.04, False)) == pytest.approx(50.0)

    def test_one_sigma(self):
        v = WitnessValue(-0.2, 0.04, True)
        assert detection_confidence(v) == pytest.approx(84.134, abs=0.01)

    def test_two_sigma(self):
        v = WitnessValue(-0.4, 0.04, True)
        assert detection_confidence(v) == pytest.approx(97.725, abs=0.01)

    def test_zero_variance(self):
        assert detection_confidence(WitnessValue(-0.5, 0.0, True)) == 100.0
        assert detection_confidence(WitnessValue(0.5, 0.0, False)) == 0.0
        with pytest.raises(ValueError):
            detection_confidence(WitnessValue(0.0, 0.0, False))


class TestDetectionThreshold:
    def test_sigma_threshold_shifts_detection(self, pair_witness):
        data = MeasurementDataset.uniform(
            span_group(GeneratorSet.from_texts(["ZZZZIII", "IZZIZZI", "IIZZIZZ",
                                                "XXXXIII", "IXXIXXI", "IIXXIXX",
                                                "XXXXXXX"])),
            0.5,
            10,
        )
        value = evaluate(pair_witness, data)
        assert value.expectation < 0
        assert value.detected
        strict = evaluate(pair_witness, data, sigma_threshold=3.0)
        assert strict.detected == (
            strict.expectation + 3.0 * strict.stddev < 0
        )


THRESHOLD_ENTRY_POINTS = [evaluate, eval_standard, eval_alternative, eval_two_measurement]


class TestSigmaThresholdCheck:
    """Every entry point that judges a single witness refuses a sigma
    threshold that is not a finite non-negative real number, or that is a
    bool, with the evaluation report's message, before it reads a record."""

    @pytest.fixture(scope="class")
    def case(self, full_census, color_group):
        spec = full_census.direct[(1, 2)][0]
        return spec, MeasurementDataset.uniform(color_group, 0.2, 100)

    @pytest.mark.parametrize(
        "value",
        [-100.0, -1.0, -1e-300, -math.inf, math.inf, math.nan, True, False,
         "1", None, 1j, Decimal("1")],
        ids=repr,
    )
    @pytest.mark.parametrize(
        "entry", THRESHOLD_ENTRY_POINTS, ids=lambda f: f.__name__
    )
    def test_refused(self, case, entry, value):
        spec, data = case
        message = f"sigma threshold {value!r} is not a finite non-negative number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(spec, data, sigma_threshold=value)
        # refused before any record is read, so before a missing one
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            entry(spec, MeasurementDataset(7, {}), sigma_threshold=value)
        assert not isinstance(err.value, IncompleteDataError)

    def test_negative_threshold_no_longer_detects_a_positive_value(self, case):
        # at -100 the first pair witness read +0.1 as detected
        spec, data = case
        value = evaluate(spec, data)
        assert value.expectation == pytest.approx(0.1)
        assert not value.detected
        with pytest.raises(ValueError, match="^sigma threshold -100.0 is not"):
            evaluate(spec, data, sigma_threshold=-100.0)

    @pytest.mark.parametrize(
        "value", [0, 0.0, -0.0, 2, 2.5, Fraction(1, 2)], ids=repr
    )
    @pytest.mark.parametrize(
        "entry", THRESHOLD_ENTRY_POINTS, ids=lambda f: f.__name__
    )
    def test_accepted(self, case, entry, value):
        spec, data = case
        got = entry(spec, data, sigma_threshold=value)
        want = entry(spec, data)
        assert (got.expectation, got.variance) == (want.expectation, want.variance)
        assert got.detected == (got.expectation + value * got.stddev < 0.0)


class TestHierarchy:
    def test_werner_grid(self, color_group_module):
        # standard <= alternative and standard <= two-measurement, same seed
        for omega in [(5, 6), (1, 2, 5), (1, 2, 3, 4)]:
            for spec in enumerate_direct(color_group_module, omega)[:10]:
                alt = WitnessSpec.alternative_from(spec)
                twom = two_measurement_from_standard(spec)
                for i in range(11):
                    model = WernerModel(i / 10)
                    v_std = eval_standard(spec, model).expectation
                    assert v_std <= eval_alternative(alt, model).expectation + 1e-12
                    if twom is not None:
                        assert (
                            v_std
                            <= eval_two_measurement(twom, model).expectation + 1e-12
                        )

    def test_nested_subgroup_ordering(self, color_group_module):
        # a witness spanning a subgroup of another's is finer on white noise
        small = WitnessSpec.standard_local(
            (2, 3), (parse_pauli("XXXXIII"), parse_pauli("IZZIZZI"))
        )
        big = WitnessSpec.standard_local(
            (2, 3, 4),
            (parse_pauli("XXXXIII"), parse_pauli("IZZIZZI"), parse_pauli("IIZZIZZ")),
        )
        for i in range(11):
            model = WernerModel(i / 10)
            assert (
                eval_standard(small, model).expectation
                <= eval_standard(big, model).expectation + 1e-12
            )

    def test_genuine_dominates_locals(self, color_group_module):
        genuine = WitnessSpec.standard_genuine(color_group_module.generator_set)
        local = enumerate_direct(color_group_module, (5, 6))[0]
        for i in range(11):
            model = WernerModel(i / 10)
            assert (
                eval_standard(local, model).expectation
                <= eval_standard(genuine, model).expectation + 1e-12
            )


# ---------------------------------------------------------------------------
# Every witness value, and every kernel batch, against the oracle in
# ``oracles.py``, which reads the records by Pauli text
# ---------------------------------------------------------------------------


class Refused(typing.NamedTuple):
    """A ValueError as the comparisons see it: ``kind`` is "missing" for
    missing records, the library's IncompleteDataError or the oracle's
    MissingRecords, else the error's type name."""

    kind: str
    message: str
    missing: typing.Optional[tuple]


def outcome(fn, *args):
    """A call's result, or the ValueError it raised as a ``Refused``."""
    try:
        return fn(*args)
    except (IncompleteDataError, oracles.MissingRecords) as exc:
        return Refused("missing", str(exc), exc.missing)
    except ValueError as exc:
        return Refused(type(exc).__name__, str(exc), None)


def oracle_source(data):
    """The oracle's view of a library data source."""
    if isinstance(data, WernerModel):
        return oracles.WhiteNoise(data.p)
    return oracles.Records(data.n_qubits, data.records)


def texts(paulis):
    return tuple(p.to_text() for p in paulis)


def oracle_evaluate(w, data, sigma_threshold=0.0):
    """The oracle's WitnessValue of a spec, read off its Pauli texts."""
    source = oracle_source(data)
    if w.kind is WitnessKind.STANDARD:
        e, v = oracles.naive_eval_standard(texts(w.basis), source)
    elif w.kind is WitnessKind.ALTERNATIVE:
        e, v = oracles.naive_eval_alternative(texts(w.basis), source)
    else:
        e, v = oracles.naive_eval_two_measurement(
            texts(w.x_basis), texts(w.z_basis), w.n_qubits, source
        )
    return WitnessValue(e, v, oracles.detected(e, v, sigma_threshold))


def float_bits(values):
    return tuple(x.hex() for x in values)


def bits(value):
    """Every field of a WitnessValue, floats as their exact bit patterns."""
    return float_bits((value.expectation, value.variance)) + (value.detected,)


def shot_noise_dataset(group, seed, keep=1.0):
    """Uneven expectations and per-record shot counts for every non-identity
    element, each kept with probability ``keep``."""
    rng = random.Random(seed)
    records = {}
    for e in group.non_identity():
        record = (rng.uniform(-1.0, 1.0), rng.randint(20, 2000))
        if rng.random() < keep:
            records[e.to_text()] = record
    return MeasurementDataset(group.n_qubits, records)


def genuine_witnesses(generator_set):
    """The genuine standard and alternative witnesses, and the genuine
    two-measurement witness when the state has one."""
    genuine = WitnessSpec.standard_genuine(generator_set)
    specs = [genuine, WitnessSpec.alternative_from(genuine)]
    genuine_two = two_measurement_from_standard(genuine)
    return specs if genuine_two is None else specs + [genuine_two]


def census_batches(census):
    """(kind, [(spec, item)]) per subsystem and kind: the census's
    witnesses of that kind and the items its kernel reads, the direct keys,
    which are the alternative witnesses' basis rows too, and the X/Z
    splits."""
    direct, _, twomeas = census._lists()
    batches = []
    for omega in census.subsystems():
        standard = census.direct[omega]
        for kind, specs, items in (
            (WitnessKind.STANDARD, standard, direct[omega]),
            (
                WitnessKind.ALTERNATIVE,
                [WitnessSpec.alternative_from(w) for w in standard],
                direct[omega],
            ),
            (
                WitnessKind.TWO_MEASUREMENT,
                census.two_measurement[omega],
                twomeas[omega],
            ),
        ):
            batches.append((kind, list(zip(specs, items))))
    return batches


def canonical(result):
    """A result as the comparisons see it: a Refused as it is, a
    WitnessValue, an (expectation, variance) pair or a kernel's batch of
    pairs as their exact bit patterns."""
    if isinstance(result, Refused):
        return result
    if isinstance(result, WitnessValue):
        return bits(result)
    if isinstance(result, list):
        return [float_bits(pair) for pair in result]
    return float_bits(result)


def assert_matches_oracle(batches, extra_specs, group, data, sigma_threshold):
    """Each census witness by ``evaluate`` and by its kind's kernel, one
    item at a time and each subsystem's items as one batch, the other
    specs by ``evaluate``, the fidelity and every member's read, all
    against the oracle: the same bits, or the same error.  Returns how
    many census witnesses were refused."""
    source = oracle_source(data)
    n_qubits = group.n_qubits
    refused = 0
    for kind, witnesses in batches:
        kernel = evaluation._KERNELS[kind]
        wanted = []
        for w, item in witnesses:
            assert (w.rows if kind is WitnessKind.ALTERNATIVE else w.identity_key) == item
            want = outcome(oracle_evaluate, w, data, sigma_threshold)
            got = outcome(evaluate, w, data, sigma_threshold)
            assert canonical(got) == canonical(want), item
            if not isinstance(want, Refused):
                want = [(want.expectation, want.variance)]
            assert canonical(outcome(kernel, data, n_qubits, [item])) == canonical(want)
            wanted.append(want)
        refused += sum(isinstance(want, Refused) for want in wanted)
        # a batch raises its first refused item's error, or lists every value
        first = next((want for want in wanted if isinstance(want, Refused)), None)
        batch = outcome(kernel, data, n_qubits, [item for _, item in witnesses])
        assert canonical(batch) == canonical(first or [p for (p,) in wanted]), kind
    for w in extra_specs:
        assert canonical(outcome(evaluate, w, data, sigma_threshold)) == canonical(
            outcome(oracle_evaluate, w, data, sigma_threshold)
        )
    generators = texts(group.generator_set.generators)
    assert canonical(outcome(fidelity, group, data)) == canonical(
        outcome(oracles.naive_fidelity, generators, source)
    )
    for p in group.elements:
        assert canonical(
            outcome(lambda: [(data.expectation_of(p), data.variance_of(p))])
        ) == canonical(outcome(oracles.records, source, [p.to_text()]))
    assert data.missing(group.elements) == oracles.missing(
        source, texts(group.elements)
    )
    return refused


SHOT_DATA = Path(__file__).parent / "data" / "color_code_7_shots.csv"
COLOR_GROUP = span_group(GeneratorSet.from_texts(
    ["ZZZZIII", "IZZIZZI", "IIZZIZZ", "XXXXIII", "IXXIXXI", "IIXXIXX", "XXXXXXX"]
))


def oracle_sources(group):
    """Shot-noise datasets of seeds 1 to 3 and white noise at p = 0, 0.37
    and 1, by name."""
    return [(f"noise-{seed}", shot_noise_dataset(group, seed)) for seed in (1, 2, 3)] + [
        (f"werner-{p}", WernerModel(p)) for p in (0.0, 0.37, 1.0)
    ]


def color_sources():
    """``oracle_sources`` of the color code; the shot fixture, whole, with
    3 % of its records dropped and with an X-type and a Z-type member
    dropped, so that two-measurement witnesses lack members of either part
    or of both; and a shot-noise dataset with 3 % dropped."""
    shots = MeasurementDataset.from_csv(SHOT_DATA.read_text())
    rng = random.Random("dropped")
    kept = {k: v for k, v in shots.records.items() if rng.random() >= 0.03}
    pure = {k: v for k, v in shots.records.items() if k not in ("IXXIXXI", "IIZZIZZ")}
    return oracle_sources(COLOR_GROUP) + [
        ("shots", shots),
        ("shots-dropped", MeasurementDataset(7, kept)),
        ("parts-dropped", MeasurementDataset(7, pure)),
        ("noise-dropped", shot_noise_dataset(COLOR_GROUP, 4, keep=0.97)),
    ]


@pytest.fixture(scope="module")
def color_batches(full_census):
    return census_batches(full_census)


# seeds whose states have X/Z splits, so all three kinds are checked
@pytest.fixture(scope="module", params=[(5, 104), (6, 103)], ids=["n5", "n6"])
def random_case(request):
    n, seed = request.param
    s = random_stabilizer_set(random.Random(seed), n)
    census = run_census(s, ("direct", "twomeas"))
    return s, census


class TestKernelsMatchOracle:
    @pytest.mark.parametrize(
        "name,data", color_sources(), ids=[name for name, _ in color_sources()]
    )
    def test_color_code_every_witness(
        self, color_batches, color_code, color_group, name, data
    ):
        kinds = {kind for kind, _ in color_batches}
        assert kinds == set(WitnessKind)
        checked = sum(len(witnesses) for _, witnesses in color_batches)
        assert checked == 2 * 3927 + 476
        refused = assert_matches_oracle(
            color_batches, genuine_witnesses(color_code), color_group, data, 0.0
        )
        if name.endswith("dropped"):
            assert 0 < refused < checked
        else:
            assert refused == 0

    def test_random_states_every_witness(self, random_case):
        s, census = random_case
        group = span_group(s)
        batches = census_batches(census)
        assert {kind for kind, witnesses in batches if witnesses} == set(WitnessKind)
        for _, data in oracle_sources(group):
            refused = assert_matches_oracle(
                batches, genuine_witnesses(s), group, data, 1.0
            )
            assert refused == 0

    def test_two_measurement_missing_in_both_parts(self, color_group):
        spec = next(
            w
            for w in two_measurement_witnesses(color_group, (2, 3, 4, 6))
            if len(w.x_basis) >= 2 and len(w.z_basis) >= 2
        )
        dropped = {spec.x_basis[0].to_text(), spec.z_basis[1].to_text()}
        full = MeasurementDataset.uniform(color_group, 0.5, 100)
        data = MeasurementDataset(
            7, {k: v for k, v in full.records.items() if k not in dropped}
        )
        with pytest.raises(IncompleteDataError) as err:
            eval_two_measurement(spec, data)
        assert set(err.value.missing) == dropped
        assert outcome(evaluate, spec, data) == outcome(oracle_evaluate, spec, data)

    def test_dataset_on_other_qubit_count(self, color_batches, color_group, full_census):
        # every 5-qubit Pauli has a record, so any packed 7-qubit row that
        # happened to equal a 5-qubit one would read a record it must not;
        # the mismatch is named instead of listing members as missing, by
        # each witness, each kernel batch and the fidelity
        labels = (
            "".join(letters)
            for letters in itertools.product("IXYZ", repeat=5)
        )
        data = MeasurementDataset.from_pairs(
            5, {label: (0.5, 100) for label in labels if label != "IIIII"}
        )
        refused = Refused(
            "ValueError", "dataset is on 5 qubits, the stabilizers on 7", None
        )
        specs = [w for _, witnesses in color_batches for w, _ in witnesses]
        for spec in specs[:200]:
            assert outcome(evaluate, spec, data) == refused
            assert outcome(oracle_evaluate, spec, data) == refused
        direct, _, twomeas = full_census._lists()
        for kind, items in (
            (WitnessKind.STANDARD, direct[(1, 2)]),
            (WitnessKind.ALTERNATIVE, direct[(1, 2)]),
            (WitnessKind.TWO_MEASUREMENT, twomeas[(1, 2)]),
        ):
            assert outcome(evaluation._KERNELS[kind], data, 7, items) == refused
        assert outcome(fidelity, color_group, data) == refused
        generators = texts(color_group.generator_set.generators)
        assert outcome(
            oracles.naive_fidelity, generators, oracle_source(data)
        ) == refused

    def test_witness_on_other_qubit_count_names_both_counts(self):
        # a 4-qubit pair witness on a 3-qubit dataset used to report its
        # members XXII, YYII and ZZII as missing records
        spec = WitnessSpec.standard_local(
            (1, 2), [parse_pauli("XXII"), parse_pauli("ZZII")]
        )
        data = MeasurementDataset.from_pairs(
            3, {"XXI": (0.9, 100), "YYI": (-0.9, 100), "ZZI": (0.9, 100)}
        )
        two = two_measurement_from_standard(spec)
        for w in (spec, WitnessSpec.alternative_from(spec), two):
            with pytest.raises(
                ValueError, match="^dataset is on 3 qubits, the stabilizers on 4$"
            ) as err:
                evaluate(w, data)
            assert not isinstance(err.value, IncompleteDataError)

    def test_operator_on_other_qubit_count_names_both_counts(self):
        # expectation_of and variance_of read through the witnesses' one
        # read, so a mismatch is named there too, not reported missing
        data = MeasurementDataset.from_pairs(3, {"XXI": (0.9, 100)})
        for read in (data.expectation_of, data.variance_of):
            with pytest.raises(
                ValueError, match="^dataset is on 3 qubits, the stabilizers on 4$"
            ) as err:
                read(parse_pauli("XXII"))
            assert not isinstance(err.value, IncompleteDataError)
            with pytest.raises(IncompleteDataError) as err:
                read(parse_pauli("ZZI"))
            assert err.value.missing == ("ZZI",)

    def test_two_measurement_reads_its_records_once(
        self, color_group, monkeypatch
    ):
        # each member of both parts is read once by each of the source's
        # two getters, and a dataset missing members of both is named in
        # one error, from one re-read of both parts
        spec = next(
            w
            for w in two_measurement_witnesses(color_group, (2, 3, 4, 6))
            if len(w.x_basis) >= 2 and len(w.z_basis) >= 2
        )
        reads = {"expectation": [], "variance": []}
        calls = []

        def counted(name, get):
            def read(row):
                reads[name].append(row)
                return get(row)

            return read

        def getters_spy(self, n_qubits):
            expectation, variance = getters(self, n_qubits)
            return counted("expectation", expectation), counted("variance", variance)

        def records_spy(data, n_qubits, rows):
            calls.append(len(rows))
            return records(data, n_qubits, rows)

        getters = MeasurementDataset._getters
        records = evaluation._records
        monkeypatch.setattr(MeasurementDataset, "_getters", getters_spy)
        monkeypatch.setattr(evaluation, "_records", records_spy)
        full = shot_noise_dataset(color_group, 7)
        value = eval_two_measurement(spec, full)
        assert bits(value) == bits(oracle_evaluate(spec, full))
        x_span, z_span = map(evaluation._ascending_span, spec.identity_key)
        assert len(x_span) + len(z_span) == 2 ** len(spec.x_rows) + 2 ** len(
            spec.z_rows
        )
        assert reads["expectation"] == reads["variance"] == x_span + z_span
        assert calls == []
        dropped = {spec.x_basis[0].to_text(), spec.z_basis[1].to_text()}
        data = MeasurementDataset(
            7, {k: v for k, v in full.records.items() if k not in dropped}
        )
        with pytest.raises(IncompleteDataError) as err:
            eval_two_measurement(spec, data)
        assert err.value.missing == tuple(sorted(dropped))
        assert calls == [len(x_span) + len(z_span)]


class TestAscendingSpan:
    """A ``rows_rref`` key spanned from its lowest row up is already in
    ascending packed-row order, so ``_projectors`` sums a key's members in
    the order a sort would give, with no sort."""

    def test_census_and_group_keys(self, color_code):
        # the direct keys and two-measurement parts of color_code_7 and of
        # graphs 0-3 of the 8-qubit recipe, and their groups' keys
        states = [color_code] + [
            random_stabilizer_set(random.Random(g), 8) for g in range(4)
        ]
        census_keys = 0
        for s in states:
            census = run_census(s, ("direct", "twomeas"))
            keys = [span_group(s).key]
            for witness_keys in census.direct.witness_keys.values():
                keys += witness_keys
            for specs in census.two_measurement.values():
                for spec in specs:
                    keys += spec.identity_key
            census_keys += len(keys) - 1
            for key in keys:
                span = evaluation._ascending_span(key)
                assert span == sorted(span), key
                assert len(set(span)) == 1 << len(key)
        assert census_keys == 78380

    @pytest.mark.parametrize("n_qubits", [1, 3, 7])
    def test_random_keys(self, n_qubits):
        # keys of random rows, commuting or not, of every rank
        for key in random_rref_bases(random.Random(40 + n_qubits), n_qubits, 300):
            span = evaluation._ascending_span(key)
            assert span == sorted(span)
            assert sorted(_span_rows(key)) == span


# ---------------------------------------------------------------------------
# from_csv checks each record once and builds the constructor's dataset
# ---------------------------------------------------------------------------

def naive_csv_records(text):
    """The records of a dataset CSV, read with the csv module alone."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return {label: (float(e), int(m)) for label, e, m in rows}


def parse_cases():
    """(name, n_qubits, CSV text, group): the shot fixture, then seeded
    shot-noise datasets with records dropped, on the color code and on
    random states."""
    color = COLOR_GROUP
    yield "fixture", 7, SHOT_DATA.read_text(), color
    yield "color-seed5", 7, shot_noise_dataset(color, 5, keep=0.8).to_csv(), color
    for n, seed in ((4, 11), (5, 12), (6, 13)):
        group = span_group(random_stabilizer_set(random.Random(seed), n))
        text = shot_noise_dataset(group, seed, keep=0.7).to_csv()
        yield f"n{n}-seed{seed}", n, text, group


class TestParsedOnce:
    @pytest.mark.parametrize(
        "case", list(parse_cases()), ids=lambda case: case[0]
    )
    def test_from_csv_is_the_constructors_dataset(self, case):
        _, n, text, group = case
        parsed = MeasurementDataset.from_csv(text)
        made = MeasurementDataset(n, naive_csv_records(text))
        assert type(parsed) is MeasurementDataset
        assert parsed == made
        assert parsed.records == made.records
        assert vars(parsed) == vars(made)  # the lookup by packed row included
        assert list(vars(parsed)) == list(vars(made))
        for p in group.elements:
            assert outcome(parsed.expectation_of, p) == outcome(made.expectation_of, p)
            assert outcome(parsed.variance_of, p) == outcome(made.variance_of, p)
        assert parsed.missing(group.elements) == made.missing(group.elements)

    @pytest.mark.parametrize(
        "case", list(parse_cases()), ids=lambda case: case[0]
    )
    def test_each_record_is_checked_once(self, case, monkeypatch):
        _, _, text, _ = case
        calls = []
        checked = evaluation._entry

        def spy(*args):
            calls.append(args[1])
            return checked(*args)

        monkeypatch.setattr(evaluation, "_entry", spy)
        parsed = MeasurementDataset.from_csv(text)
        assert sorted(calls) == sorted(parsed.records)
        assert len(calls) == len(naive_csv_records(text))

    @pytest.mark.parametrize(
        "case", list(parse_cases()), ids=lambda case: case[0]
    )
    def test_from_pairs_is_the_constructors_dataset(self, case):
        _, n, text, group = case
        pairs = {
            label: (str(e), float(m))
            for label, (e, m) in naive_csv_records(text).items()
        }
        built = MeasurementDataset.from_pairs(n, pairs)
        made = MeasurementDataset(n, naive_csv_records(text))
        assert type(built) is MeasurementDataset
        assert built == made
        assert vars(built) == vars(made)  # the lookup by packed row included
        assert list(vars(built)) == list(vars(made))
        assert list(built.records) == list(made.records)
        for p in group.elements:
            assert outcome(built.expectation_of, p) == outcome(made.expectation_of, p)
            assert outcome(built.variance_of, p) == outcome(made.variance_of, p)

    def test_from_pairs_parses_each_label_once(self, color_group, monkeypatch):
        # each label is parsed once, straight to its packed row
        calls = []
        parse = evaluation.parse_row

        def spy(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(evaluation, "parse_row", spy)
        pairs = {p.to_text(): (0.5, 100) for p in color_group.non_identity()}
        data = MeasurementDataset.from_pairs(7, pairs)
        assert sorted(calls) == sorted(data.records) == sorted(pairs)
        assert len(calls) == 127
