"""Fast tests of the benchmark itself: each workload runs one op on a small
state (N = 6), then the metric names, units and digest gate are checked.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_library()

import inputs  # noqa: E402
import record  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

N_SMALL = 6
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


class WorkloadTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.workdir = Path(cls.tmp.name)
        cls.catalogue = workloads.make_workloads(
            N_SMALL, inputs.state_texts(0, 0, N_SMALL), batch=1
        )
        # One case each.  On omega_random8 the subsystems drawn for graph 0
        # have no witness at N = 6, so the test uses graph 1 (case 8) there:
        # witnesses_per_s must not read 0.
        with contextlib.redirect_stdout(io.StringIO()):
            cls.references = {
                name: record.record(w, cls.workdir, [(8 if name == "omega_random8" else 0, 0)])
                for name, w in cls.catalogue.items()
            }

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def bench(self, name: str, reference: dict, trace: bool) -> dict:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run.benchmark(self.catalogue[name], reference, 7, 0.0, trace, self.workdir)

    def test_contract_names_every_workload(self):
        self.assertEqual({w["name"] for w in CONTRACT["workloads"]}, set(self.catalogue))

    def test_untraced_metrics_and_gate(self):
        for name in self.catalogue:
            with self.subTest(workload=name):
                result = self.bench(name, self.references[name], trace=False)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, declared("end_to_end"))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_metrics_and_self_times(self):
        for name in self.catalogue:
            with self.subTest(workload=name):
                result = self.bench(name, self.references[name], trace=True)
                self.assertTrue(result["correct"])
                metrics = result["metrics"]
                got = {k: v["unit"] for k, v in metrics.items()}
                self.assertEqual(got, declared("per_layer"))
                self_times = sum(
                    v["value"] for k, v in metrics.items()
                    if k.endswith("_s") and k != "bench.traced_op_s"
                )
                self.assertAlmostEqual(self_times, metrics["bench.traced_op_s"]["value"], places=9)

    def test_layers_run_where_predicted(self):
        traced = {
            name: self.bench(name, self.references[name], trace=True)["metrics"]
            for name in ("direct_random8", "graph_random8")
        }
        direct, graph = traced["direct_random8"], traced["graph_random8"]
        self.assertGreater(direct["witnesses.direct_census_s"]["value"], 0)
        self.assertEqual(direct["graphs.orbit_size"]["value"], 0)
        self.assertEqual(
            direct["witnesses.subspaces_total"]["value"], tracing.subspace_total(N_SMALL)
        )
        self.assertGreater(graph["graphs.orbit_size"]["value"], 0)
        self.assertGreater(graph["witnesses.graph_dedup_ratio"]["value"], 0)
        self.assertEqual(graph["witnesses.direct_census_s"]["value"], 0)

    def test_corrupted_digest_fails_every_op(self):
        for name in self.catalogue:
            with self.subTest(workload=name):
                reference = json.loads(json.dumps(self.references[name]))
                reference["cases"][0]["digest"] = "0" * 64
                result = self.bench(name, reference, trace=False)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 2)
                self.assertEqual(result["failed"], result["attempted"])


class HelperTests(unittest.TestCase):
    def test_subspace_total_at_eight_qubits(self):
        self.assertEqual(tracing.subspace_total(8), 416_942)

    def test_tail_percentile_leaves_ten_ops_beyond(self):
        q, value = run.tail_percentile([float(i) for i in range(100)])
        self.assertEqual((q, value), (90, 89.0))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0, 4.0]), (50, 2.5))
        self.assertEqual(run.tail_percentile([float(i) for i in range(25)])[0], 60)

    def test_sampling_is_seeded_and_stratified(self):
        corpus = [{"case": c, "stratum": c % 4} for c in range(12)]
        first = inputs.sample_cases(corpus, 4, 5)
        self.assertEqual(first, inputs.sample_cases(corpus, 4, 5))
        self.assertEqual(sorted(c % 4 for c in first), [0, 1, 2, 3])
        pairs = inputs.sample_cases(corpus, 8, 5)
        self.assertEqual(len(set(pairs)), 8)
        self.assertEqual(sorted(c % 4 for c in pairs), [0, 0, 1, 1, 2, 2, 3, 3])

    def test_dataset_covers_every_label_with_noise(self):
        labels = ["XZI", "ZZZ", "IXX"]
        text = inputs.dataset_csv(inputs.case_rng("t", 0), labels)
        self.assertEqual(text, inputs.dataset_csv(inputs.case_rng("t", 0), labels))
        rows = [line.split(",") for line in text.splitlines()[1:]]
        self.assertEqual([r[0] for r in rows], labels)
        self.assertTrue(all(-1.0 <= float(r[1]) <= 1.0 for r in rows))

    def test_refuses_to_run_without_library_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench_dir = Path(tmp) / "perfbench"
            bench_dir.mkdir()
            for path in run.HERE.glob("*.py"):
                (bench_dir / path.name).write_text(path.read_text())
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "color7_cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
