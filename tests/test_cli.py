import json

import pytest

from stabwitness.cli import main
from stabwitness.groups import build_color_code, code_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildCode:
    def test_named_code(self, capsys):
        code, out, _ = run_cli(capsys, "build-code", "color_code_7")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_qubits"] == 7
        assert len(payload["generators"]) == 7

    def test_unknown_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["build-code", "not_a_code"])
        assert err.value.code == 2

    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(code_to_json(build_color_code(), "mine"))
        code, out, _ = run_cli(capsys, "build-code", "--file", str(path))
        assert code == 0
        assert json.loads(out)["name"] == "mine"

    def test_malformed_file_nonzero_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(SystemExit) as err:
            main(["build-code", "--file", str(path)])
        assert err.value.code == 1

    def test_write_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "code.json"
        code, out, _ = run_cli(
            capsys, "build-code", "color_code_7", "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text())["name"] == "color_code_7"


class TestEnumerate:
    def test_single_omega_direct(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "color_code_7", "--omega", "5,6", "--methods", "direct",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega,class,direct,graph_based,two_measurement"
        assert lines[1] == '"5,6",all,72,,'

    def test_rejects_full_system_omega(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "enumerate", "color_code_7",
                    "--omega", "1,2,3,4,5,6,7", "--methods", "direct",
                ]
            )
        assert err.value.code == 2

    def test_witness_listing(self, capsys, tmp_path):
        listing = tmp_path / "witnesses.csv"
        code, _, _ = run_cli(
            capsys,
            "enumerate", "color_code_7",
            "--omega", "5,6", "--methods", "direct,twomeas",
            "--witnesses-out", str(listing),
        )
        assert code == 0
        lines = listing.read_text().splitlines()
        assert len(lines) == 1 + 72 + 4

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(
            capsys, "enumerate", "color_code_7", "--omega", "1,2,5",
            "--methods", "direct,twomeas", "--format", "json",
        )
        _, second, _ = run_cli(
            capsys, "enumerate", "color_code_7", "--omega", "1,2,5",
            "--methods", "direct,twomeas", "--format", "json",
        )
        assert first == second


class TestEval:
    def test_werner_ideal_everything_detected(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "color_code_7", "--werner", "1.0",
            "--omega", "5,6", "--omega", "1,2,5",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows
        for row in rows:
            fields = row.rsplit(",", 4)
            assert fields[1] == "-0.5"
            assert fields[3] == "1"

    def test_werner_033_no_standard_detections(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "color_code_7", "--werner", "0.33",
            "--kinds", "standard", "--no-genuine",
        )
        assert code == 0
        for row in out.splitlines()[1:]:
            assert row.rsplit(",", 4)[3] == "0"

    def test_werner_09_pair_detected(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "color_code_7", "--werner", "0.9",
            "--omega", "5,6", "--kinds", "standard", "--best-per-omega",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].rsplit(",", 4)[3] == "1"

    def test_dataset_file(self, capsys, tmp_path):
        from stabwitness.evaluation import MeasurementDataset
        from stabwitness.groups import span_group

        group = span_group(build_color_code())
        data = MeasurementDataset.uniform(group, 1.0, 100)
        path = tmp_path / "data.csv"
        path.write_text(data.to_csv())
        code, out, _ = run_cli(
            capsys,
            "eval", "color_code_7", "--data", str(path), "--omega", "5,6",
            "--kinds", "standard",
        )
        assert code == 0
        assert all(
            row.rsplit(",", 4)[1] == "-0.5" for row in out.splitlines()[1:]
        )

    def test_incomplete_dataset_lists_missing(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("pauli,expectation,shots\nZZZZIII,0.9,100\n")
        code, _, err = run_cli(
            capsys,
            "eval", "color_code_7", "--data", str(path), "--omega", "5,6",
            "--kinds", "standard",
        )
        assert code == 1
        assert "missing stabilizer records" in err

    def test_dataset_on_other_qubit_count(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("pauli,expectation,shots\nZZIII,0.9,100\n")
        code, _, err = run_cli(
            capsys,
            "eval", "color_code_7", "--data", str(path), "--omega", "5,6",
            "--kinds", "standard",
        )
        assert code == 1
        assert err == "error: dataset is on 5 qubits, the code on 7\n"

    def test_needs_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "color_code_7", "--kinds", "standard"])
        assert err.value.code == 2


class TestOtherCommands:
    def test_orbit(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
        code, out, _ = run_cli(capsys, "orbit", "--graph", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 4
        assert payload["members"][0]["sequence"] == []

    def test_critical_prob_standard(self, capsys):
        code, out, _ = run_cli(capsys, "critical-prob", "--kind", "standard", "--n", "2")
        assert code == 0
        assert abs(float(out) - 1 / 3) < 1e-12

    def test_critical_prob_alternative(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-prob", "--kind", "alternative", "--n", "4"
        )
        assert abs(float(out) - 0.75) < 1e-12

    def test_critical_prob_twomeas(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical-prob", "--kind", "twomeas", "--x-size", "4", "--z-size", "3"
        )
        assert abs(float(out) - 1.3125 / 1.8125) < 1e-12

    def test_equivalence(self, capsys):
        code, out, _ = run_cli(capsys, "equivalence", "color_code_7")
        assert code == 0
        assert out == (
            "local_clifford: I,I,I,H,I,H,H\n"
            'graph: {"n": 7, "edges": [[1, 4], [1, 7], [2, 4], [2, 6], '
            "[3, 4], [3, 6], [3, 7], [5, 6], [5, 7]]}\n"
            "recombination_rows: 0000101 0001111 0000010 1000000 0001001 "
            "0100000 1110000\n"
        )
