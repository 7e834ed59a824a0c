import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

from stabwitness import cli
from stabwitness.cli import main
from stabwitness.graphs import MAX_GRAPH_VERTICES
from stabwitness.groups import MAX_SPAN_QUBITS, build_color_code, code_to_json, span_group
from stabwitness.witnesses import WitnessKind, WitnessSpec

from conftest import random_stabilizer_set
from test_witnesses import ring_group


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

    @pytest.mark.parametrize(
        "command,omega,message",
        [
            ("enumerate", "1,1,2", "subsystem (1, 1, 2) repeats labels 1"),
            ("enumerate", "8,9", "subsystem (8, 9) has labels outside 1..7"),
            ("eval", "2,1,2", "subsystem (1, 2, 2) repeats labels 2"),
            ("eval", "0,3", "subsystem (0, 3) has labels outside 1..7"),
        ],
    )
    def test_bad_omega_is_usage_error_naming_the_fault(
        self, capsys, command, omega, message
    ):
        extra = ["--werner", "0.9"] if command == "eval" else []
        with pytest.raises(SystemExit) as err:
            main([command, "color_code_7", "--omega", omega, *extra])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)

    def test_ring9_subsystems_with_default_methods(self, capsys, tmp_path):
        # the graph column is read off the two subsystems' direct search
        path = tmp_path / "ring9.json"
        path.write_text(code_to_json(ring_group(9).generator_set, "ring9"))
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--file", str(path), "--omega", "1,2", "--omega", "1,3,5,7",
        )
        assert code == 0
        assert out.splitlines()[-1] == "total,,657,276,0"

    def test_ring9_subsystems_with_graph_method(self, capsys, tmp_path):
        # the graph column is read off the two subsystems' direct search too
        path = tmp_path / "ring9.json"
        path.write_text(code_to_json(ring_group(9).generator_set, "ring9"))
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--file", str(path), "--methods", "graph",
            "--omega", "1,2", "--omega", "1,3,5,7",
        )
        assert code == 0
        assert out.splitlines()[-1] == "total,,,276,"

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

    def test_dataset_size_checked_before_the_census(self, capsys, tmp_path, monkeypatch):
        def census(*args):
            raise AssertionError("census run for a dataset of the wrong size")

        monkeypatch.setattr(cli, "run_census", census)
        path = tmp_path / "data.csv"
        path.write_text("pauli,expectation,shots\nZZIII,0.9,100\n")
        code, out, err = run_cli(capsys, "eval", "color_code_7", "--data", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: dataset is on 5 qubits, the code on 7\n"

    def test_shot_count_too_large_for_a_float(self, capsys, tmp_path):
        # the variance's OverflowError used to escape main as a traceback
        path = tmp_path / "big.csv"
        path.write_text("pauli,expectation,shots\nZZZZIII,0.5,1" + "0" * 400 + "\n")
        code, out, err = run_cli(capsys, "eval", "color_code_7", "--data", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: bad dataset: line 2: shot count for ZZZZIII is too large\n"

    def test_needs_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "color_code_7", "--kinds", "standard"])
        assert err.value.code == 2

    def test_unknown_kind_is_named(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "color_code_7", "--werner", "0.9", "--kinds", "standard,bogus"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: unknown kind 'bogus'; choose from standard,alternative,twomeas\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_refuses_non_finite_sigma_threshold(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "eval", "color_code_7", "--werner", "0.9",
                    "--omega", "5,6", f"--sigma-threshold={value}",
                ]
            )
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sigma-threshold must be finite" in captured.err

    def test_refuses_negative_sigma_threshold(self, capsys):
        # a negative threshold marked positive estimates as detected
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "eval", "color_code_7", "--data", str(SHOT_DATA),
                    "--sigma-threshold", "-3",
                ]
            )
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sigma-threshold must be finite" in captured.err
        assert captured.err.endswith("got -3.0\n")

    @pytest.mark.parametrize("value", ["0", "-0.0"])
    def test_zero_sigma_threshold_is_the_default(self, capsys, value):
        argv = ("eval", "color_code_7", "--werner", "0.9", "--omega", "5,6")
        _, default, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, f"--sigma-threshold={value}")
        assert code == 0
        assert out == default

    def test_zero_expectation_at_zero_variance_has_no_confidence(self, capsys):
        # the alternative pair witness is 1/2 - p, exactly 0 at p = 1/2, and
        # the white-noise model has no variance
        code, out, _ = run_cli(
            capsys, "eval", "color_code_7", "--werner", "0.5",
            "--omega", "1,2", "--kinds", "alternative",
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "omega,kind,expectation,stddev,detected,confidence"
        assert rows
        assert set(rows) == {'"1,2",alternative,0,0,0,'}


class TestOtherCommands:
    def test_orbit(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
        code, out, _ = run_cli(capsys, "orbit", "--graph", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 4
        assert payload["members"][0]["sequence"] == []

    @pytest.mark.parametrize("max_size", ["0", "-3"])
    def test_orbit_refuses_cap_below_one(self, capsys, tmp_path, max_size):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
        with pytest.raises(SystemExit) as err:
            main(["orbit", "--graph", str(path), "--max-size", max_size])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: --max-size must be at least 1, got {max_size}\n"
        )

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"n": "3", "edges": []}', '"n"'),
            ('{"n": 3, "edges": [[1, "2"]]}', '"edges"'),
            ('{"n": 3, "edges": 5}', '"edges"'),
        ],
    )
    def test_orbit_names_mistyped_field(self, capsys, tmp_path, text, field):
        path = tmp_path / "graph.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "orbit", "--graph", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: graph JSON field ")
        assert f"field {field} " in err

    def test_orbit_refuses_oversized_graph(self, capsys, tmp_path):
        n = MAX_GRAPH_VERTICES + 1
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": n, "edges": []}))
        code, out, err = run_cli(capsys, "orbit", "--graph", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f'error: graph JSON field "n" is {n}; '
            f"the cap is {MAX_GRAPH_VERTICES} vertices\n"
        )

    @pytest.mark.parametrize(
        "extra,field",
        [
            ('"generators": [1, 2]', '"generators"'),
            ('"generators": ["XX", "ZZ"], "labels": 5', '"labels"'),
        ],
    )
    def test_enumerate_names_mistyped_field(self, capsys, tmp_path, extra, field):
        path = tmp_path / "code.json"
        path.write_text('{"name": "pair", "n_qubits": 2, ' + extra + "}")
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--file", str(path)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad code file: code JSON field ")
        assert f"field {field} " in captured.err

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

    @pytest.mark.parametrize(
        "sizes",
        [
            ("--kind", "standard", "--n", "21"),
            ("--kind", "twomeas", "--x-size", "21", "--z-size", "1"),
            ("--kind", "twomeas", "--x-size", "1", "--z-size", "21"),
        ],
    )
    def test_critical_prob_refuses_spans_past_the_cap(self, capsys, sizes):
        with pytest.raises(SystemExit) as err:
            main(["critical-prob", *sizes])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"the cap is {MAX_SPAN_QUBITS}\n"
        )

    def test_critical_prob_alternative_is_not_capped(self, capsys):
        # the alternative witness sums its basis only, so the span cap does
        # not apply to it
        code, out, _ = run_cli(
            capsys, "critical-prob", "--kind", "alternative", "--n", "40"
        )
        assert code == 0
        assert abs(float(out) - 39 / 40) < 1e-12

    def test_critical_prob_alternative_refuses_past_its_cap(self, capsys):
        # the spec's basis reduction costs O(n^3): 8,000 took 39 s
        cap = cli.MAX_ALTERNATIVE_QUBITS
        code, out, _ = run_cli(
            capsys, "critical-prob", "--kind", "alternative", "--n", str(cap)
        )
        assert code == 0
        assert out == f"{(cap - 1) / cap:.12g}\n"
        with pytest.raises(SystemExit) as err:
            main(["critical-prob", "--kind", "alternative", "--n", str(cap + 1)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: --n {cap + 1} would reduce {cap + 1} rows of "
            f"{2 * cap + 2} bits; the cap is {cap}\n"
        )

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

    def test_equivalence_scrambled_recipe_state(self, capsys, tmp_path):
        # recipe graph 0 on 8 qubits under its own letter maps: one letter
        # swap, three X <-> Y maps and a recombination that is not symmetric
        path = tmp_path / "recipe8_0.json"
        path.write_text(
            code_to_json(random_stabilizer_set(random.Random(0), 8), "recipe8_0")
        )
        code, out, _ = run_cli(capsys, "equivalence", "--file", str(path))
        assert code == 0
        assert out == (
            "local_clifford: I,S,I,I,S,S,H,I\n"
            'graph: {"n": 8, "edges": [[1, 3], [1, 4], [1, 5], [2, 8], [3, 4], '
            "[3, 5], [3, 6], [3, 7], [3, 8], [4, 5], [4, 7], [5, 6], [5, 8], "
            "[6, 7]]}\n"
            "recombination_rows: 00001000 01000000 10101100 10011000 10000100 "
            "00001100 00000110 01001001\n"
        )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# 127 records of color_code_7, one per non-identity member in label order;
# record i of weight w reads 1 - 0.045 w - 0.013 (i mod 7) on 150 + 41 (i mod 23)
# shots, so stddev and confidence vary from row to row
SHOT_DATA = Path(__file__).parent / "data" / "color_code_7_shots.csv"


def shot_data_text() -> str:
    labels = sorted(e.to_text() for e in span_group(build_color_code()).non_identity())
    lines = ["pauli,expectation,shots"]
    for i, label in enumerate(labels):
        weight = sum(c != "I" for c in label)
        expectation = 1.0 - 0.045 * weight - 0.013 * (i % 7)
        lines.append(f"{label},{expectation:.6f},{150 + 41 * (i % 23)}")
    return "\n".join(lines) + "\n"


class TestOutputBytes:
    """The sha256 of whole CLI outputs on color_code_7, recorded before the
    direct census became a pruned search (the per-subsystem cases before
    that search was pruned outside the subsystem, or before the census
    held keys): a change of speed must not change a byte."""

    ENUMERATE_STDOUT = "9202d4e49907a983895b56a6aac55e0b463c70a7c0161a83f95cb4d180803032"

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("x.json", "ddafdeacb41d511cf4179862269bbce9ab01b57d7bf7dab3c482820bfc0eca9f"),
            ("x.csv", "b3fe5fba1f465a5fe7fa7ccd5afa8461bbd67a75841f174227ad9830812b729a"),
        ],
    )
    def test_enumerate_with_witness_listing(self, capsys, tmp_path, name, digest):
        listing = tmp_path / name
        code, out, _ = run_cli(
            capsys, "enumerate", "color_code_7", "--witnesses-out", str(listing)
        )
        assert code == 0
        assert sha256(out) == self.ENUMERATE_STDOUT
        assert sha256(listing.read_text()) == digest

    @pytest.mark.parametrize(
        "methods,name,digest",
        [
            (
                "graph,twomeas",
                "x.json",
                "8906f4e2639cb7eb959601d4d50a42b68fd46dd363f60f12a09836dabd17cc65",
            ),
            (
                "twomeas",
                "x.csv",
                "1e7cab4671169814ba129aee654f41d73912cedc9e8c32a99f692172954be1a4",
            ),
        ],
        ids=["graph-twomeas-json", "twomeas-csv"],
    )
    def test_enumerate_listing_without_direct_column(
        self, capsys, tmp_path, methods, name, digest
    ):
        # the listing's method attribution when the direct column was not
        # asked for, recorded while the two-measurement column held specs
        listing = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "enumerate", "color_code_7", "--methods", methods,
            "--witnesses-out", str(listing),
        )
        assert code == 0
        assert sha256(listing.read_text()) == digest

    def test_enumerate_graph_only_listing(self, capsys, tmp_path):
        # the graph method alone, for every subsystem, is the one census
        # that walks the LC orbit; recorded before that walk ran on packed
        # adjacency and keyed each witness by one row insertion
        listing = tmp_path / "x.csv"
        code, out, _ = run_cli(
            capsys,
            "enumerate", "color_code_7", "--methods", "graph",
            "--witnesses-out", str(listing),
        )
        assert code == 0
        assert sha256(out) == (
            "7b6be9ff52ac8542277335b486aa675124f7b951320fc3e21c08474418d8e3cf"
        )
        assert sha256(listing.read_text()) == (
            "fb8a51ed15aae85028b07a9d76ecd381bd01d314b78dceced4fe445c3c6fba56"
        )

    @pytest.mark.parametrize(
        "flags,digest",
        [
            (
                ("--format", "json"),
                "aa0bb6a8ab56e6fa467edcd5f9db1f4b3cbf3767a7d7be7910dd47eb3120e643",
            ),
            (
                ("--methods", "direct", "--format", "json"),
                "74b3c0689f00f0699d9eb2559494bb780f21fc77dec3b9d87a4bb04cc289daf8",
            ),
            (
                ("--methods", "graph,twomeas"),
                "563cd26dd3188e7705fd67471cf9d079f5f44118509e598e4d6757520f29623c",
            ),
        ],
        ids=["json", "direct-json", "graph-twomeas-csv"],
    )
    def test_enumerate_census_report(self, capsys, flags, digest):
        # recorded before the report read its count columns off
        # witnesses._COLUMNS; a method not run is null in JSON and an empty
        # cell in CSV
        code, out, _ = run_cli(capsys, "enumerate", "color_code_7", *flags)
        assert code == 0
        assert sha256(out) == digest

    def test_eval_werner(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "color_code_7", "--werner", "0.9")
        assert code == 0
        assert sha256(out) == (
            "0a0a9ad921d445276e6d1224b64bc27a54ce22f7ca8270c2869b0f76acd9d713"
        )

    def test_enumerate_per_subsystem_with_witness_listing(self, capsys, tmp_path):
        listing = tmp_path / "x.json"
        code, out, _ = run_cli(
            capsys,
            "enumerate", "color_code_7", "--methods", "direct,twomeas",
            "--omega", "5,6", "--omega", "1,2,5", "--omega", "1,2,3,4",
            "--witnesses-out", str(listing),
        )
        assert code == 0
        assert sha256(out) == (
            "f09d6092b103cc0a59312ed284c4f01d8717d524a35bca721e75dc3a56a0c5b3"
        )
        assert sha256(listing.read_text()) == (
            "119d4c491f5bb1e6cc7104f00844ba1bcd046f61705bdbc8fc3a7c28126062d4"
        )

    def test_orbit_of_the_graph_form(self, capsys, tmp_path):
        # the 532 members of the LC orbit of color_code_7's graph form, as
        # ``equivalence`` prints it, recorded before the orbit walk built
        # its members without the checked Graph constructor
        path = tmp_path / "graph.json"
        path.write_text(
            '{"n": 7, "edges": [[1, 4], [1, 7], [2, 4], [2, 6], [3, 4], '
            "[3, 6], [3, 7], [5, 6], [5, 7]]}"
        )
        code, out, _ = run_cli(capsys, "orbit", "--graph", str(path))
        assert code == 0
        assert json.loads(out)["size"] == 532
        assert sha256(out) == (
            "3c2da3438302933d66f37a2dfba807ccccf013a41a6bc6ac5b64c7a71f1eca90"
        )

    def test_shot_data_fixture_is_its_formula(self):
        assert SHOT_DATA.read_text() == shot_data_text()

    @pytest.mark.parametrize(
        "flags,digest",
        [
            ((), "d326640a79322eacf0a4698ac47680d67422b29f8127c8a3b83ed72277693910"),
            (
                ("--format", "json"),
                "ae6b71f688adbce3f9f10d1e3d9b79c9bf2b32ecc472ac91ba136d194e6f8812",
            ),
            (
                ("--best-per-omega",),
                "f2e446adb291c718d08f6f99f31267fd9cfeeae2956195df161032c5c7228d9d",
            ),
        ],
        ids=["csv", "json", "best-per-omega"],
    )
    def test_eval_shot_data(self, capsys, flags, digest):
        # recorded before the reports memoised rows, keys and labels per call
        code, out, _ = run_cli(
            capsys, "eval", "color_code_7", "--data", str(SHOT_DATA), *flags
        )
        assert code == 0
        assert sha256(out) == digest

    def test_eval_werner_per_subsystem(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "color_code_7", "--werner", "0.9",
            "--omega", "5,6", "--omega", "1,2,3,4",
        )
        assert code == 0
        assert sha256(out) == (
            "f95212004ed8ef328d5ffedbb0719b61f132b7a9bf44cfd1a6c4a8dde2d9928f"
        )

    def test_enumerate_per_subsystem_default_methods(self, capsys, tmp_path):
        # all three columns per subsystem, recorded before the census held
        # keys and the graph column was filtered by the idle members
        listing = tmp_path / "x.csv"
        code, out, _ = run_cli(
            capsys,
            "enumerate", "color_code_7",
            "--omega", "5,6", "--omega", "1,2,5", "--omega", "1,2,3,4",
            "--witnesses-out", str(listing),
        )
        assert code == 0
        assert out.splitlines()[-1] == "total,,142,103,17"
        assert sha256(out) == (
            "de69649849574d708eacb3f8033755c6eb29ca6badab440c24aa7664ffab7ec4"
        )
        assert sha256(listing.read_text()) == (
            "506572443c8d3513523356b18c8c2e31a8cd70c1f0d661605e160e1e295b1859"
        )

    def test_eval_shot_data_per_subsystem(self, capsys):
        # recorded before the evaluation report read the census's keys
        code, out, _ = run_cli(
            capsys,
            "eval", "color_code_7", "--data", str(SHOT_DATA),
            "--omega", "5,6", "--omega", "1,2,3,4",
        )
        assert code == 0
        assert sha256(out) == (
            "1d5b0766dac10d551be5e61e0985411ff2bb31932d4176068738f80573aaac11"
        )


class TestMissingRecords:
    """The error of a dataset that lacks records a census witness needs,
    recorded while the report evaluated the witnesses in census order: it
    names the members missing from the first witness in that order that
    lacks any, whatever order the report builds its rows in."""

    @pytest.mark.parametrize(
        "dropped,kinds,omegas,message",
        [
            # ZZZZIII is the first key row of the first pair's first witness
            (["ZZZZIII"], "standard,alternative,twomeas", [], "ZZZZIII"),
            (["ZZZZIII"], "alternative", [], "ZZZZIII"),
            # the first witness, by digest, of the first pair that lacks a
            # record lacks XXXXIII, a witness before it in census order
            # ZZZZIII
            (["XXXXIII", "ZZZZIII"], "standard,alternative,twomeas", [], "ZZZZIII"),
            (["XXXXIII", "ZZZZIII"], "alternative", [], "ZZZZIII"),
            # YYYYIII is in the span of the first witness of 1,2,3,4, and
            # XZZXYYI in that of 5,6, which the report lists first; given in
            # the other order, the subsystems name XZZXYYI
            (
                ["YYYYIII", "XZZXYYI"],
                "standard,alternative,twomeas",
                ["1,2,3,4", "5,6"],
                "YYYYIII",
            ),
            (["YYYYIII", "XZZXYYI"], "standard", ["1,2,3,4", "5,6"], "YYYYIII"),
            (["YYYYIII", "XZZXYYI"], "standard", ["5,6", "1,2,3,4"], "XZZXYYI"),
        ],
        ids=[
            "one-all-kinds",
            "one-alternative",
            "two-all-kinds",
            "two-alternative",
            "omegas-all-kinds",
            "omegas-standard",
            "omegas-reversed",
        ],
    )
    def test_names_the_first_witness_in_census_order(
        self, capsys, tmp_path, dropped, kinds, omegas, message
    ):
        lines = SHOT_DATA.read_text().splitlines(True)
        kept = [line for line in lines if line.split(",")[0] not in dropped]
        assert len(kept) == len(lines) - len(dropped)
        data = tmp_path / "missing.csv"
        data.write_text("".join(kept))
        omega_args = [arg for omega in omegas for arg in ("--omega", omega)]
        code, out, err = run_cli(
            capsys,
            "eval",
            "color_code_7",
            "--data",
            str(data),
            "--kinds",
            kinds,
            *omega_args,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: missing stabilizer records: {message}\n"


def live_specs() -> int:
    """The ``WitnessSpec`` instances alive, found by a scan of the heap, so
    a spec made without the constructor counts too."""
    return sum(type(o) is WitnessSpec for o in gc.get_objects())


class TestCensusSpecs:
    """The CLI reads every census column as keys.  A command builds only
    the genuine spec and its two-measurement split; building every census
    witness as a spec took 3,927 or more per command, and building the
    two-measurement column as specs 952."""

    @pytest.mark.parametrize(
        "command,built",
        [(("enumerate", "color_code_7"), 0), (("eval", "color_code_7"), 2)],
        ids=["enumerate", "eval"],
    )
    def test_specs_built_per_command(
        self, capsys, tmp_path, monkeypatch, command, built
    ):
        if command[0] == "enumerate":
            command += ("--witnesses-out", str(tmp_path / "x.csv"))
        else:
            command += ("--data", str(SHOT_DATA))
        constructed = []
        post_init = WitnessSpec.__post_init__

        def counted(spec, key):
            constructed.append(spec.kind)
            post_init(spec, key)

        monkeypatch.setattr(WitnessSpec, "__post_init__", counted)
        # the specs alive just after each report is built, while the
        # command still holds its census
        alive = []
        for name in ("build_census_report", "witness_rows", "build_evaluation_report"):
            report = getattr(cli, name)

            def counted_report(*args, report=report, **kwargs):
                result = report(*args, **kwargs)
                alive.append(live_specs() - before)
                return result

            monkeypatch.setattr(cli, name, counted_report)
        before = live_specs()
        code, _, _ = run_cli(capsys, *command)
        assert code == 0
        assert alive and max(alive) == 0
        assert len(constructed) == built
        assert constructed.count(WitnessKind.TWO_MEASUREMENT) == built // 2
