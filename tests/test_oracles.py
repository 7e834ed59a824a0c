"""Self-tests of the oracles in ``oracles.py``, on hand-derived values, and
the guard that keeps both oracle modules apart from the library."""

import ast
from pathlib import Path

import pytest

import oracles

COLOR_CODE = (
    "ZZZZIII", "IZZIZZI", "IIZZIZZ", "XXXXIII", "IXXIXXI", "IIXXIXX", "XXXXXXX"
)


def ring(n):
    """The generators of the ring graph state: X on u, Z on its two
    neighbours."""
    return tuple(
        "".join(
            "X" if j == i else "Z" if (j - i) % n in (1, n - 1) else "I"
            for j in range(n)
        )
        for i in range(n)
    )


@pytest.mark.parametrize("module", ["oracles.py", "physics.py"])
def test_oracle_modules_import_nothing_from_the_library(module):
    tree = ast.parse((Path(__file__).parent / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported
    assert not {
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "stabwitness"
    }


class TestText:
    def test_rows_put_x_low_and_z_high(self):
        # qubit 1 is the lowest bit of each block
        assert oracles.row_of("XII") == 0b000001
        assert oracles.row_of("IIZ") == 0b100000
        assert oracles.row_of("YII") == 0b001001
        for text in ("I", "XYZI", "ZZZZIII", "YIXIZ"):
            assert oracles.text_of(oracles.row_of(text), len(text)) == text

    def test_bad_letter_is_refused(self):
        with pytest.raises(ValueError, match="'Q'"):
            oracles.row_of("XQ")

    def test_span_is_ascending_by_row(self):
        # XX = 0b0011, ZZ = 0b1100, YY = 0b1111
        assert oracles.span(("ZZ", "XX")) == ("II", "XX", "ZZ", "YY")
        # a repeated product is listed once
        assert oracles.span(("XI", "XI")) == ("II", "XI")

    def test_key_is_the_reduced_echelon_basis(self):
        # 0b110 and 0b011 span {0, 0b011, 0b101, 0b110}: pivots 0b100, 0b010
        assert oracles.key_of([0b110, 0b011]) == (0b101, 0b011)
        assert oracles.key_of([0b101, 0b011, 0b110]) == (0b101, 0b011)
        assert oracles.rank([0b101, 0b011, 0b110]) == 2


class TestLetterKernels:
    def test_product_state_has_none(self):
        kernels = oracles.graph_based_keys(("ZIII", "IZII", "IIZI", "IIIZ"))
        assert list(kernels) == oracles.subsystems(4)
        assert not any(kernels.values())

    def test_ghz_pairs(self):
        # outside qubit 3, the letters X and Y give {ZZI, XXX} and
        # {ZZI, YXY}; Z gives {ZZI, IZZ}, whose pair commutes on every
        # qubit, so its pseudo-incidence rank is 0, not 1
        kernels = oracles.graph_based_keys(("XXX", "ZZI", "IZZ"))
        spans = {
            oracles.span(tuple(oracles.text_of(r, 3) for r in key))
            for key in kernels[(1, 2)]
        }
        assert spans == {("III", "XXX", "ZZI", "YYX"), ("III", "ZZI", "YXY", "XYY")}
        assert [len(kernels[omega]) for omega in oracles.subsystems(3)] == [2, 2, 2]

    @pytest.mark.parametrize(
        "generators,total",
        [(COLOR_CODE, 3122), (ring(9), 38301)],
        ids=["color_code_7", "ring9"],
    )
    def test_pinned_totals(self, generators, total):
        kernels = oracles.graph_based_keys(generators)
        assert sum(map(len, kernels.values())) == total


# witnesses of 4 and 5 basis members, and one of a 4-member X part and a
# 3-member Z part: the CLI's critical-prob pins for these sizes
STANDARD4 = ("XXXX", "ZZII", "IZZI", "IIZZ")
ALTERNATIVE5 = ("ZZIII", "IZZII", "IIZZI", "IIIZZ", "XXXXX")
X_PART4 = ("XIIIIII", "IXIIIII", "IIXIIII", "IIIXIII")
Z_PART3 = ("IIIIZII", "IIIIIZI", "IIIIIIZ")

KERNELS = {
    "standard": lambda source: oracles.naive_eval_standard(STANDARD4, source),
    "alternative": lambda source: oracles.naive_eval_alternative(ALTERNATIVE5, source),
    "two_measurement": lambda source: oracles.naive_eval_two_measurement(
        X_PART4, Z_PART3, 7, source
    ),
}


class TestWitnessValues:
    @pytest.mark.parametrize("kind", list(KERNELS))
    def test_pure_state_reads_minus_half(self, kind):
        assert KERNELS[kind](oracles.WhiteNoise(1.0)) == (-0.5, 0.0)

    @pytest.mark.parametrize(
        "kind,pin",
        [
            ("standard", "0.466666666667"),
            ("alternative", "0.8"),
            ("two_measurement", "0.724137931034"),
        ],
    )
    def test_critical_probability_is_the_cli_pin(self, kind, pin):
        at_zero = KERNELS[kind](oracles.WhiteNoise(0.0))[0]
        at_one = KERNELS[kind](oracles.WhiteNoise(1.0))[0]
        assert f"{at_zero / (at_zero - at_one):.12g}" == pin

    def test_records(self):
        # the span of XX and ZZ: I reads 1, XX and ZZ 0.5 and YY -0.5
        source = oracles.Records(
            2, {"XX": (0.5, 100), "ZZ": (0.5, 100), "YY": (-0.5, 50)}
        )
        e, v = oracles.naive_eval_standard(("XX", "ZZ"), source)
        assert e == 0.5 - (1 + 0.5 + 0.5 - 0.5) / 4
        assert v == pytest.approx((0.75 / 100 + 0.75 / 100 + 0.75 / 50) / 16)
        e, v = oracles.naive_eval_alternative(("XX", "ZZ"), source)
        assert e == 0.5 - 0.5 * (0.5 + 0.5)
        assert v == pytest.approx(0.5 * (0.75 / 100 + 0.75 / 100))
        assert oracles.naive_fidelity(("XX", "ZZ"), source)[0] == 0.375
        assert oracles.records(source, ["II", "YY"]) == [(1.0, 0.0), (-0.5, 0.75 / 50)]

    def test_missing_records_are_named(self):
        source = oracles.Records(2, {"XX": (0.5, 100)})
        with pytest.raises(oracles.MissingRecords) as err:
            oracles.naive_eval_standard(("XX", "ZZ"), source)
        assert err.value.missing == ("YY", "ZZ")
        assert str(err.value) == "missing stabilizer records: YY, ZZ"
        assert oracles.missing(source, ["II", "ZZ", "XX", "ZZ"]) == ["ZZ"]
        many = oracles.Records(4, {})
        with pytest.raises(oracles.MissingRecords, match=r"\(\+9 more\)$"):
            oracles.naive_eval_standard(("XXXX", "ZZII", "IIZZ", "IZZI"), many)

    def test_records_on_another_qubit_count_are_refused(self):
        source = oracles.Records(3, {"XXI": (0.5, 100)})
        message = "^dataset is on 3 qubits, the stabilizers on 2$"
        with pytest.raises(ValueError, match=message) as err:
            oracles.naive_eval_alternative(("XX", "ZZ"), source)
        assert not isinstance(err.value, oracles.MissingRecords)
        with pytest.raises(ValueError, match=message):
            oracles.records(source, ["ZZ"])
