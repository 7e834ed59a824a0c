import json

import pytest

from stabwitness.evaluation import MeasurementDataset, WernerModel
from stabwitness.reporting import (
    build_census_report,
    build_evaluation_report,
    witness_rows,
    witness_rows_to_csv,
    witness_rows_to_json,
)
from stabwitness.witnesses import WitnessKind, run_census


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
        table = build_census_report(full_census).class_table()
        by_class = {(t["size"], t["class"]): t for t in table}
        assert by_class[(2, "all")]["direct"] == 72
        assert by_class[(2, "all")]["subsystems"] == 21
        assert by_class[(3, "string-like")]["graph_based"] == 32
        # class arithmetic: per-class counts times class sizes sum to totals
        for column in ("direct", "graph_based", "two_measurement"):
            assert sum(t[column] * t["subsystems"] for t in table) == (
                build_census_report(full_census).totals[
                    {"graph_based": "graph_based", "direct": "direct",
                     "two_measurement": "two_measurement"}[column]
                ]
            )


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
