import csv
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from stabwitness.binary import multiply
from stabwitness.evaluation import (
    MeasurementDataset,
    WernerModel,
    detection_confidence,
    evaluate,
)
from stabwitness import groups, witnesses
from stabwitness.groups import basis_key
from stabwitness.reporting import (
    EvalRow,
    EvaluationReport,
    _key_digest,
    _sorted_rows,
    _witness_csv,
    build_census_report,
    build_evaluation_report,
    witness_rows,
    witness_rows_to_csv,
    witness_rows_to_json,
)
from stabwitness.witnesses import (
    WitnessKind,
    WitnessSpec,
    run_census,
    two_measurement_from_standard,
)

from test_evaluation import shot_noise_dataset
from test_witnesses import RECIPE8_CASES, ring_group


@pytest.fixture(scope="module")
def small_census(color_code_module):
    return run_census(
        color_code_module,
        methods=("direct", "twomeas"),
        omegas=[(5, 6), (1, 2, 5), (1, 2, 3, 4)],
    )


@pytest.fixture(scope="module")
def color_code_module():
    from stabwitness.groups import build_color_code

    return build_color_code()


class TestCensusReport:
    def test_rows_and_totals(self, small_census):
        report = build_census_report(small_census)
        by_omega = {r.omega: r for r in report.rows}
        assert by_omega[(5, 6)].direct == 72
        assert by_omega[(5, 6)].two_measurement == 4
        assert by_omega[(5, 6)].graph_based is None
        assert by_omega[(1, 2, 5)].label == "string-like"
        assert by_omega[(1, 2, 3, 4)].label == "plaquette-like"
        assert report.totals["direct"] == 72 + 40 + 30
        assert report.totals["two_measurement"] == 4 + 4 + 9

    def test_csv_deterministic(self, small_census):
        report = build_census_report(small_census)
        assert report.to_csv() == build_census_report(small_census).to_csv()
        header = report.to_csv().splitlines()[0]
        assert header == "omega,class,direct,graph_based,two_measurement"
        assert report.to_csv().splitlines()[-1].startswith("total,")

    def test_json_round_trip(self, small_census):
        payload = json.loads(build_census_report(small_census).to_json())
        assert payload["totals"]["direct"] == 142

    def test_full_class_table(self, full_census):
        # the paper's seven classes, one count triple each
        table = build_census_report(full_census).class_table()
        assert [tuple(t.values()) for t in table] == [
            (2, "all", 21, 72, 54, 4),
            (3, "non-string-like", 28, 44, 34, 5),
            (3, "string-like", 7, 40, 32, 4),
            (4, "non-plaquette-like", 28, 18, 18, 3),
            (4, "plaquette-like", 7, 30, 17, 9),
            (5, "all", 21, 8, 8, 3),
            (6, "all", 7, 3, 3, 2),
        ]
        # class arithmetic: per-class counts times class sizes sum to totals
        for column in ("direct", "graph_based", "two_measurement"):
            assert sum(t[column] * t["subsystems"] for t in table) == (
                build_census_report(full_census).totals[
                    {"graph_based": "graph_based", "direct": "direct",
                     "two_measurement": "two_measurement"}[column]
                ]
            )

    def test_ring7_class_table_splits_uneven_counts(self):
        # the ring's pairs are adjacent, at distance 2 or at distance 3, and
        # their direct counts differ, so one class holds several triples
        ring7 = ring_group(7).generator_set
        report = build_census_report(run_census(ring7, ("direct", "graph", "twomeas")))
        table = report.class_table()
        pairs = [t for t in table if t["size"] == 2]
        assert sorted((t["direct"], t["subsystems"]) for t in pairs) == [
            (64, 7), (72, 7), (80, 7)
        ]
        assert sum(t["subsystems"] for t in table) == len(report.rows)
        for column in ("direct", "graph_based", "two_measurement"):
            assert sum(t[column] * t["subsystems"] for t in table) == (
                report.totals[column]
            )

    def test_other_seven_qubit_states_are_unclassified(self):
        # the 7-qubit ring used to get the color-code labels: "all" on its
        # pairs, whose direct counts are 64, 72 or 80
        ring7 = ring_group(7).generator_set
        report = build_census_report(run_census(ring7, methods=("direct", "graph")))
        assert {row.label for row in report.rows} == {"unclassified"}
        assert {row.direct for row in report.rows if len(row.omega) == 2} == {
            64, 72, 80
        }

    def test_color_code_classified_from_any_generators(self, color_code_module):
        # recombined and reordered generators span the same group
        gens = color_code_module.generators
        other = groups.GeneratorSet(
            7, tuple(multiply(gens[i], gens[(i + 1) % 7]) for i in range(6)) + gens[6:]
        )
        assert basis_key(other.generators) == basis_key(gens)
        census = run_census(other, ("direct",), [(1, 2, 5), (1, 2, 3, 4)])
        labels = [row.label for row in build_census_report(census).rows]
        assert labels == ["string-like", "plaquette-like"]


class TestWitnessRows:
    def test_methods_marked(self, full_census):
        rows = witness_rows(full_census)
        standard = [r for r in rows if r["kind"] == "standard"]
        assert len(standard) == 3927
        methods = {r["method"] for r in standard}
        assert methods == {"both", "direct"}
        marked_both = sum(1 for r in standard if r["method"] == "both")
        assert marked_both == 3122
        twomeas = [r for r in rows if r["kind"] == "two-measurement"]
        assert len(twomeas) == 476

    def test_serialization(self, small_census):
        rows = witness_rows(small_census)
        text = witness_rows_to_csv(rows)
        assert text.splitlines()[0] == "omega,kind,basis,key_digest,method"
        assert len(text.splitlines()) == len(rows) + 1
        parsed = json.loads(witness_rows_to_json(rows))
        assert len(parsed) == len(rows)


class TestTwoMeasurementKeys:
    def test_read_off_key_is_identity_key(self, full_census, color_code_module):
        # the X and Z rows of census and genuine variants are their keys
        specs = [s for v in full_census.two_measurement.values() for s in v]
        genuine = two_measurement_from_standard(
            WitnessSpec.standard_genuine(color_code_module)
        )
        assert genuine is not None
        for spec in specs + [genuine]:
            assert spec.identity_key == (spec.x_rows, spec.z_rows)
            assert spec.identity_key == (
                basis_key(spec.x_basis),
                basis_key(spec.z_basis),
            )


class TestCensusKeys:
    def test_read_off_key_is_identity_key(self, full_census):
        # a census witness's key is its rows, shared rather than reduced
        for bucket in (full_census.direct, full_census.graph_based):
            for specs in bucket.values():
                for spec in specs:
                    assert spec.identity_key is spec.rows
                    assert spec.identity_key == basis_key(spec.basis)

    def test_witness_rows_reduce_no_keys(self, full_census, monkeypatch):
        # every key, the two-measurement rows' method keys too, is read
        # off packed rows
        calls = []

        def counted(module):
            reduce = module.rows_rref

            def rows_rref(rows):
                calls.append(None)
                return reduce(rows)

            monkeypatch.setattr(module, "rows_rref", rows_rref)

        counted(groups)
        counted(witnesses)
        rows = witness_rows(full_census)
        assert len(rows) == 3927 + 476
        assert calls == []


class TestEvaluationReport:
    def test_ordering_and_genuine_last(self, small_census, color_code_module):
        report = build_evaluation_report(
            small_census,
            WernerModel(1.0),
            genuine_set=color_code_module,
        )
        omegas = [r.omega for r in report.rows]
        sizes = [len(o) if o is not None else 99 for o in omegas]
        assert sizes == sorted(sizes)
        assert report.rows[-1].omega is None

    def test_genuine_rows_exactly_with_the_generator_set(
        self, small_census, color_code_module
    ):
        # the default used to raise "genuine evaluation needs the generator set"
        local = build_evaluation_report(small_census, WernerModel(0.9))
        full = build_evaluation_report(
            small_census, WernerModel(0.9), genuine_set=color_code_module
        )
        assert all(r.omega is not None for r in local.rows)
        genuine = [r for r in full.rows if r.omega is None]
        assert [r.kind for r in genuine] == list(WitnessKind)
        assert [r for r in full.rows if r.omega is not None] == list(local.rows)

    def test_ideal_all_detected(self, small_census, color_code_module):
        report = build_evaluation_report(
            small_census, WernerModel(1.0), genuine_set=color_code_module
        )
        for row in report.rows:
            assert row.expectation == -0.5
            assert row.detected

    def test_best_per_omega(self, small_census, color_code_module):
        report = build_evaluation_report(
            small_census,
            WernerModel(0.9),
            kinds=(WitnessKind.STANDARD, WitnessKind.TWO_MEASUREMENT),
            genuine_set=color_code_module,
        )
        best = report.best_per_omega()
        slots = [(r.omega, r.kind) for r in best.rows]
        assert len(slots) == len(set(slots))
        # every (omega, kind) collapses to its most negative representative
        for row in best.rows:
            candidates = [
                r.expectation
                for r in report.rows
                if (r.omega, r.kind) == (row.omega, row.kind)
            ]
            assert row.expectation == min(candidates)

    def test_csv_and_json_deterministic(self, small_census, color_code_module):
        def render():
            report = build_evaluation_report(
                small_census, WernerModel(0.4), genuine_set=color_code_module
            )
            return report.to_csv(), report.to_json()

        assert render() == render()

    def test_detected_subsystems_summary(self, small_census, color_code_module):
        report = build_evaluation_report(
            small_census, WernerModel(0.4), genuine_set=color_code_module
        )
        # p = 0.4 sits above the pair threshold 1/3 but below the n=3
        # threshold 3/7 and the n=4 threshold 7/15
        assert report.detected_subsystems() == [(5, 6)]

    def test_incomplete_data_propagates(self, small_census, color_code_module):
        from stabwitness.evaluation import IncompleteDataError

        data = MeasurementDataset(7, {"ZZZZIII": (0.9, 100)})
        with pytest.raises(IncompleteDataError) as err:
            build_evaluation_report(
                small_census, data, genuine_set=color_code_module
            )
        assert len(err.value.missing) >= 1

    def test_dataset_on_other_qubit_count_is_rejected(
        self, small_census, color_code_module
    ):
        from stabwitness.evaluation import IncompleteDataError

        data = MeasurementDataset(5, {"ZZIII": (0.9, 100)})
        with pytest.raises(ValueError, match="5 qubits.* 7") as err:
            build_evaluation_report(
                small_census, data, genuine_set=color_code_module
            )
        assert not isinstance(err.value, IncompleteDataError)

    @pytest.mark.parametrize("value", [-3.0, -1e-300, float("nan"), float("inf")])
    def test_refuses_negative_or_non_finite_sigma_threshold(
        self, small_census, value
    ):
        # at -3 the color code's shot data marked 210 rows with <W> > 0
        # as detected
        with pytest.raises(ValueError, match=f"sigma threshold {value} is not"):
            build_evaluation_report(
                small_census, WernerModel(0.9), sigma_threshold=value
            )

    @pytest.mark.parametrize("value", [0, 0.0, -0.0])
    def test_zero_sigma_threshold_is_the_default(self, small_census, value):
        default = build_evaluation_report(small_census, WernerModel(0.9))
        report = build_evaluation_report(
            small_census, WernerModel(0.9), sigma_threshold=value
        )
        assert report == default

    def test_two_measurement_report_names_both_parts_at_once(
        self, small_census, color_code_module
    ):
        from stabwitness.evaluation import IncompleteDataError, eval_two_measurement

        # the first two-measurement witness the report evaluates, with one
        # record dropped from each of its parts
        first = next(
            spec
            for omega in small_census.subsystems()
            for spec in small_census.two_measurement.get(omega, ())
        )
        dropped = {first.x_basis[0].to_text(), first.z_basis[0].to_text()}
        full = MeasurementDataset.uniform(
            groups.span_group(color_code_module), 0.5, 100
        )
        data = MeasurementDataset(
            7, {k: v for k, v in full.records.items() if k not in dropped}
        )
        with pytest.raises(IncompleteDataError) as named:
            eval_two_measurement(first, data)
        with pytest.raises(IncompleteDataError) as err:
            build_evaluation_report(
                small_census, data, kinds=(WitnessKind.TWO_MEASUREMENT,)
            )
        assert set(named.value.missing) == dropped
        assert err.value.missing == named.value.missing
        assert str(err.value) == str(named.value)

    def test_two_measurement_rows_need_no_standard_column(self, color_code_module):
        kinds = (WitnessKind.TWO_MEASUREMENT,)
        alone = run_census(color_code_module, ("twomeas",), [(5, 6)])
        with_direct = run_census(color_code_module, ("direct", "twomeas"), [(5, 6)])
        report = build_evaluation_report(alone, WernerModel(0.9), kinds=kinds)
        assert len(report.rows) == 4
        assert report == build_evaluation_report(
            with_direct, WernerModel(0.9), kinds=kinds
        )

    def test_standard_rows_need_a_standard_column(self, color_code_module):
        census = run_census(color_code_module, ("twomeas",), [(5, 6)])
        with pytest.raises(ValueError, match="no standard witnesses"):
            build_evaluation_report(census, WernerModel(0.9))


# ---------------------------------------------------------------------------
# The per-row report builders, kept as oracles for the per-call memos
# ---------------------------------------------------------------------------


def naive_method(key, direct_keys, graph_keys):
    if key in graph_keys:
        return "both" if key in direct_keys else "graph-based"
    return "direct"


def naive_witness_rows(census):
    """The listing with every basis row rendered through its Pauli view."""
    graph_keys = {
        omega: {s.identity_key for s in specs}
        for omega, specs in (census.graph_based or {}).items()
    }
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
                    "basis": [p.to_text() for p in spec.basis],
                    "key_digest": _key_digest(key),
                    "method": naive_method(key, in_direct, in_graph),
                }
            )
        if census.two_measurement is not None:
            for spec in census.two_measurement.get(omega, ()):
                span_key = spec.z_rows + spec.x_rows
                rows.append(
                    {
                        "omega": list(omega),
                        "kind": spec.kind.value,
                        "basis": [p.to_text() for p in spec.basis],
                        "x_basis": [p.to_text() for p in spec.x_basis],
                        "z_basis": [p.to_text() for p in spec.z_basis],
                        "key_digest": _key_digest(spec.identity_key),
                        "method": naive_method(span_key, in_direct, in_graph),
                    }
                )
    return rows


def naive_evaluation_rows(
    census, data, kinds=tuple(WitnessKind), include_genuine=True,
    sigma_threshold=0.0, genuine_set=None,
):
    """The report's rows with a second spec built for every alternative and
    every key digested once per row."""
    source = census.direct if census.direct is not None else census.graph_based
    rows = []

    def add(spec):
        value = evaluate(spec, data, sigma_threshold)
        try:
            confidence = detection_confidence(value)
        except ValueError:
            confidence = None
        rows.append(
            EvalRow(
                spec.omega, spec.kind, value.expectation, value.stddev,
                value.detected, confidence, _key_digest(spec.identity_key),
            )
        )

    def add_standard(spec):
        if WitnessKind.STANDARD in kinds:
            add(spec)
        if WitnessKind.ALTERNATIVE in kinds:
            add(WitnessSpec.alternative_from(spec))

    for omega in census.subsystems():
        for spec in source.get(omega, ()):
            add_standard(spec)
        if WitnessKind.TWO_MEASUREMENT in kinds and census.two_measurement:
            for spec in census.two_measurement.get(omega, ()):
                add(spec)
    if include_genuine:
        genuine_standard = WitnessSpec.standard_genuine(genuine_set)
        add_standard(genuine_standard)
        if WitnessKind.TWO_MEASUREMENT in kinds:
            genuine_two = two_measurement_from_standard(genuine_standard)
            if genuine_two is not None:
                add(genuine_two)
    return _sorted_rows(rows)


def naive_eval_csv(report):
    """The evaluation CSV written by ``csv.writer``, one row at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["omega", "kind", "expectation", "stddev", "detected", "confidence"]
    )
    for row in report.rows:
        omega = "genuine" if row.omega is None else ",".join(map(str, row.omega))
        writer.writerow(
            [
                omega, row.kind.value, f"{row.expectation:.12g}",
                f"{row.stddev:.12g}", int(row.detected),
                "" if row.confidence is None else f"{row.confidence:.12g}",
            ]
        )
    return out.getvalue()


def assert_same_csv(got, want):
    """Equal texts, compared line by line so that a failure names the first
    differing line instead of diffing thousands of them."""
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (line, wanted) in enumerate(zip(got_lines, want_lines), 1):
        assert line == wanted, f"line {number}"
    assert len(got_lines) == len(want_lines)


def row_bits(rows):
    """Every field of each EvalRow, floats as their exact bit patterns."""
    def hex_or_none(x):
        return None if x is None else x.hex()

    return [
        (
            r.omega, r.kind, r.expectation.hex(), r.stddev.hex(), r.detected,
            hex_or_none(r.confidence), r.key_digest,
        )
        for r in rows
    ]


def assert_reports_match_oracles(census, genuine_set, sources, **options):
    assert witness_rows(census) == naive_witness_rows(census)
    for data in sources:
        report = build_evaluation_report(
            census, data, genuine_set=genuine_set, **options
        )
        expected = naive_evaluation_rows(
            census, data, include_genuine=genuine_set is not None,
            genuine_set=genuine_set, **options
        )
        assert row_bits(report.rows) == row_bits(expected)


def shot_data(generator_set):
    return shot_noise_dataset(groups.span_group(generator_set), 7)


COLOR_CODE_RUNS = {
    "all": (("direct", "graph", "twomeas"), None),
    "direct": (("direct",), None),
    "graph": (("graph",), None),
    "graph-twomeas": (("graph", "twomeas"), None),
    "omega-direct-twomeas": (
        ("direct", "twomeas"), [(5, 6), (1, 2, 5), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)]
    ),
    "omega-all": (("direct", "graph", "twomeas"), [(1, 3), (2, 4, 6, 7)]),
}


class TestReportsMatchOracles:
    """Rendering, digesting and labelling once per distinct row, key and
    subsystem gives the same listing and the same evaluation rows, to the
    bit, as doing it once per witness row."""

    @pytest.mark.parametrize("run", sorted(COLOR_CODE_RUNS))
    def test_color_code_method_sets(self, color_code_module, run):
        methods, omegas = COLOR_CODE_RUNS[run]
        census = run_census(color_code_module, methods, omegas)
        assert_reports_match_oracles(
            census, color_code_module if omegas is None else None,
            [WernerModel(0.9), shot_data(color_code_module)],
        )

    @pytest.mark.parametrize(
        "kinds",
        [
            (WitnessKind.ALTERNATIVE,),
            (WitnessKind.TWO_MEASUREMENT,),
            (WitnessKind.STANDARD, WitnessKind.TWO_MEASUREMENT),
        ],
        ids=["alternative", "twomeas", "standard-twomeas"],
    )
    @pytest.mark.parametrize("include_genuine", [True, False], ids=["genuine", "no-genuine"])
    def test_color_code_kind_subsets(self, color_code_module, kinds, include_genuine):
        census = run_census(color_code_module, ("direct", "twomeas"))
        assert_reports_match_oracles(
            census, color_code_module if include_genuine else None,
            [WernerModel(0.9), shot_data(color_code_module)],
            kinds=kinds, sigma_threshold=1.5,
        )

    @pytest.mark.parametrize(
        "generator_set",
        [ring_group(7).generator_set] + [s for _, s in RECIPE8_CASES],
        ids=["ring7"] + [name for name, _ in RECIPE8_CASES],
    )
    def test_other_states(self, generator_set):
        census = run_census(generator_set, ("direct", "graph", "twomeas"))
        assert_reports_match_oracles(census, generator_set, [shot_data(generator_set)])


class TestEvalCsvMatchesWriter:
    """The evaluation CSV, formatted one line per row with only the
    subsystem label quoted by the csv module, is byte for byte what
    ``csv.writer`` writes for the same rows."""

    @pytest.mark.parametrize("run", sorted(COLOR_CODE_RUNS))
    def test_color_code_reports(self, color_code_module, run):
        methods, omegas = COLOR_CODE_RUNS[run]
        census = run_census(color_code_module, methods, omegas)
        genuine_set = color_code_module if omegas is None else None
        for data in (WernerModel(0.5), shot_data(color_code_module)):
            report = build_evaluation_report(census, data, genuine_set=genuine_set)
            best = report.best_per_omega()
            assert_same_csv(report.to_csv(), naive_eval_csv(report))
            assert_same_csv(best.to_csv(), naive_eval_csv(best))

    def test_csv_of_any_rows_is_the_csv_writers(self):
        # signed zeros, extremes, non-finite values, absent confidences and
        # one-qubit, many-qubit and genuine scopes
        rng = random.Random(7)
        values = [
            0.0, -0.0, 1e-300, -5e-324, 1e300, float("inf"), float("-inf"),
            float("nan"), 0.1 + 0.2, -0.5, 100.0, 123456789012345.6,
        ]
        scopes = [None, (1,), (5, 6), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)]
        rows = [
            EvalRow(
                rng.choice(scopes), rng.choice(list(WitnessKind)),
                rng.choice(values), rng.choice(values), rng.random() < 0.5,
                rng.choice([None] + values), "0123456789abcdef",
            )
            for _ in range(500)
        ]
        report = EvaluationReport(12, tuple(rows))
        assert_same_csv(report.to_csv(), naive_eval_csv(report))


def naive_witness_csv(census):
    """The listing CSV by the dict rows: one dict per witness, written by
    ``witness_rows_to_csv`` through ``csv.writer``, a call per row."""
    return witness_rows_to_csv(naive_witness_rows(census))


LISTING_RUNS = {
    "default": (("direct", "graph", "twomeas"), None),
    "graph": (("graph",), None),
    "direct-twomeas": (("direct", "twomeas"), None),
    "omega-default": (
        ("direct", "graph", "twomeas"), [(5, 6), (1, 2, 5), (1, 2, 3, 4)]
    ),
    "omega-graph-unsorted": (("graph",), [(2, 4, 6, 7), (1, 3), (1, 2, 3, 4, 5, 6)]),
}


class TestListingMatchesOracle:
    """The listing CSV, formatted a line per witness from the census keys,
    is byte for byte what the dict rows give through ``csv.writer``, and
    the JSON listing is what it was."""

    def assert_listings_match(self, census):
        want = naive_witness_csv(census)
        assert_same_csv(_witness_csv(census), want)
        assert witness_rows_to_csv(witness_rows(census)) == want
        assert witness_rows_to_json(witness_rows(census)) == witness_rows_to_json(
            naive_witness_rows(census)
        )

    @pytest.mark.parametrize("run", sorted(LISTING_RUNS))
    def test_color_code(self, color_code_module, run):
        methods, omegas = LISTING_RUNS[run]
        self.assert_listings_match(run_census(color_code_module, methods, omegas))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_rings(self, n):
        self.assert_listings_match(run_census(ring_group(n).generator_set))

    @pytest.mark.parametrize(
        "generator_set",
        [s for _, s in RECIPE8_CASES],
        ids=[name for name, _ in RECIPE8_CASES],
    )
    def test_recipe8_states(self, generator_set):
        self.assert_listings_match(run_census(generator_set))


SHOT_FIXTURE = Path(__file__).parent / "data" / "color_code_7_shots.csv"
BIT_EXACT_CENSUSES = {
    "direct": (("direct", "twomeas"), None),
    "graph-only": (("graph",), None),
    "omega": (("direct", "twomeas"), [(1, 2, 3, 4), (5, 6), (2, 3, 7)]),
}
BIT_EXACT_SOURCES = {
    "werner-0": WernerModel(0.0),
    "werner-0.37": WernerModel(0.37),
    "werner-1": WernerModel(1.0),
    "shots": MeasurementDataset.from_csv(SHOT_FIXTURE.read_text()),
}
KIND_SUBSETS = [
    kinds
    for size in range(1, len(WitnessKind) + 1)
    for kinds in itertools.combinations(WitnessKind, size)
]


@pytest.fixture(scope="module")
def bit_exact_cases(color_code_module):
    """Per census: the census, its genuine set, and per data source the
    oracle's rows for all kinds, of which a kind subset's rows are the
    rows of its kinds."""
    cases = {}
    for name, (methods, omegas) in BIT_EXACT_CENSUSES.items():
        census = run_census(color_code_module, methods, omegas)
        genuine_set = color_code_module if omegas is None else None
        expected = {
            source: naive_evaluation_rows(
                census, data, include_genuine=genuine_set is not None,
                genuine_set=genuine_set,
            )
            for source, data in BIT_EXACT_SOURCES.items()
        }
        cases[name] = census, genuine_set, expected
    return cases


class TestEvaluationReportBitExact:
    """Both standard rows of a key read off one span read, and the rows
    built in report order, give every field of every row, to the bit, and
    the order of the rows, of the oracle that evaluates a spec per row and
    sorts the rows: for every subset of kinds, so the shared read and each
    single-kind kernel run."""

    @pytest.mark.parametrize("census_name", sorted(BIT_EXACT_CENSUSES))
    @pytest.mark.parametrize(
        "kinds",
        KIND_SUBSETS,
        ids=["+".join(k.value for k in ks) for ks in KIND_SUBSETS],
    )
    def test_every_field_and_order(self, bit_exact_cases, census_name, kinds):
        census, genuine_set, expected = bit_exact_cases[census_name]
        if census_name == "graph-only":
            assert census.direct is None and census.graph_based is not None
        for source, data in BIT_EXACT_SOURCES.items():
            report = build_evaluation_report(
                census, data, kinds=kinds, genuine_set=genuine_set
            )
            want = [row for row in expected[source] if row.kind in kinds]
            assert want
            assert row_bits(report.rows) == row_bits(want), source

    def test_rows_are_named_tuples_of_their_fields(self, small_census):
        row = build_evaluation_report(small_census, WernerModel(0.9)).rows[0]
        assert EvalRow._fields == (
            "omega", "kind", "expectation", "stddev", "detected", "confidence",
            "key_digest",
        )
        assert row == tuple(row)
        assert row == EvalRow(*row)
