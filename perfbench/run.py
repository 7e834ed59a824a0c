"""Benchmark runner for stabwitness.

    python3 perfbench/run.py --workload color7_cli --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  The library is imported from that
checkout's ``src/`` in this process, on one thread.  The run sets up its
batch of cases (several times, to time set-up), then runs closed-loop ops,
each starting when the previous one ends, for ``--seconds``.  Every op's
output is checked against the digest recorded for its case in
``reference.json``.  Every metric is printed as "name value unit"; the last
line is one JSON object with the result.  ``--trace 1`` runs untraced and
traced passes in turn and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
# Untraced runs repeat set-up in a burst before every op, each burst at
# least this long and this many times, and setup_s is the median over all
# of them.  One set-up of a random-state workload takes milliseconds, too
# short to time once; and set-ups spread over the run meet the machine's
# speed drift the way the ops do, where one block of set-ups would not.
SETUP_BURST_SECONDS = 0.05
SETUP_BURST_REPS = 1
# Before each op a fixed pure-Python loop of CAL_LOOPS iterations is timed,
# and the op's (and its set-up burst's) times are scaled by
# CAL_REFERENCE_S / that time: every reported time is in seconds at the
# speed at which the loop takes CAL_REFERENCE_S.  Shared machines drift in
# speed by a third for minutes at a time; the loop slows with them, the
# library's code does not change it, and the scaled times keep the program's
# own cost while the drift cancels.
CAL_LOOPS = 300_000
CAL_REFERENCE_S = 0.025

# per_layer metric -> span whose self time it reports
LAYER_SELF_TIMES = {
    "witnesses.run_census_self_s": "witnesses.run_census",
    "witnesses.direct_census_s": "witnesses.direct_census",
    "witnesses.xz_split_s": "witnesses.xz_split",
    "witnesses.graph_pullback_self_s": "witnesses.graph_pullback",
    "graphs.lc_orbit_s": "graphs.lc_orbit",
    "cliffords.graph_equivalence_s": "cliffords.graph_equivalence",
    "cliffords.local_symmetries_s": "cliffords.local_symmetries",
    "groups.span_group_s": "groups.span_group",
    "evaluation.dataset_parse_s": "evaluation.dataset_parse",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "reporting.eval_report_self_s": "reporting.eval_report",
    "reporting.census_report_s": "reporting.census_report",
    "reporting.witness_rows_s": "reporting.witness_rows",
    "reporting.render_s": "reporting.render",
    "cli.main_self_s": "cli.main",
    "bench.op_self_s": "bench.op",
}
LAYER_CALLS = {
    "witnesses.xz_split_calls": "witnesses.xz_split",
    "evaluation.evaluate_calls": "evaluation.evaluate",
}
# counts derived by LayerCounts hooks
LAYER_COUNTS = (
    "witnesses.xz_split_hits",
    "witnesses.graph_unique_keys",
    "graphs.orbit_size",
    "cliffords.symmetries_found",
    "witnesses.subspaces_total",
)
# counts kept by the tracer's counting wrappers
KERNEL_COUNTS = ("binary.rows_rank_calls", "binary.rows_rref_calls")


def import_library():
    """Import stabwitness from this checkout's src/, and nothing else."""
    if not (SRC / "stabwitness" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'stabwitness'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import stabwitness

    if Path(stabwitness.__file__).resolve().parent != SRC / "stabwitness":
        raise SystemExit(f"error: imported stabwitness from {stabwitness.__file__}")


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile (nearest rank) with at least ten ops
    ranked beyond it, but never below the median: with fewer than twenty
    ops no percentile above p50 has ten ops beyond it, and p50 is reported."""
    ranked = sorted(times)
    n = len(ranked)
    for q in range(99, 50, -1):
        index = math.ceil(q / 100 * n) - 1
        if n - 1 - index >= 10:
            return q, ranked[index]
    return 50, statistics.median(ranked)


class Run:
    def __init__(self, workload, cases: list[int], reference: dict, workdir: Path):
        self.workload = workload
        self.cases = cases
        self.reference = {c["case"]: c["digest"] for c in reference["cases"]}
        self.workdir = workdir
        self.inputs: dict[int, object] = {}
        self.ops: list[dict] = []
        self.passes: dict[bool, list[float]] = {False: [], True: []}
        self.setup_times: list[float] = []
        self.raw_setup_times: list[float] = []

    def setup(self) -> float:
        start = time.perf_counter()
        self.inputs = {c: self.workload.setup(c, self.workdir) for c in self.cases}
        return time.perf_counter() - start

    def setup_burst(self, scale: float) -> None:
        times = []
        while len(times) < SETUP_BURST_REPS or sum(times) < SETUP_BURST_SECONDS:
            times.append(self.setup())
        self.setup_times.extend(t * scale for t in times)
        self.raw_setup_times.extend(times)

    @staticmethod
    def speed_scale() -> float:
        """CAL_REFERENCE_S over the time the calibration loop takes now."""
        start = time.perf_counter()
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i % 7
        return CAL_REFERENCE_S / (time.perf_counter() - start)

    def one_op(self, case: int, scale: float, tracer=None) -> None:
        args = self.inputs[case]
        op_id = len(self.ops)
        outcome = None
        problems = []
        traced_wall = elapsed = None
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = self.workload.op(args)
            else:
                raw, traced_wall = tracer.run_op(op_id, lambda: self.workload.op(args))
            elapsed = time.perf_counter() - start
            outcome = self.workload.check(args, raw)
        except Exception:
            if elapsed is None:
                elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            problems.append("exception")
        if outcome is not None:
            problems.extend(outcome.problems)
            if outcome.digest != self.reference.get(case):
                problems.append(f"digest mismatch for case {case}")
        if problems:
            print(f"op {op_id} case {case} failed: {'; '.join(problems)}", file=sys.stderr)
        self.ops.append({
            "case": case,
            "seconds": elapsed * scale,
            "raw_seconds": elapsed,
            "scale": scale,
            "traced": tracer is not None,
            "traced_wall": traced_wall,
            "failed": bool(problems),
            "witnesses": outcome.witnesses if outcome else 0,
            "rows": outcome.rows if outcome else 0,
        })

    def loop(self, seconds: float, tracer=None) -> None:
        """Closed loop of whole passes over the batch: a pass starts while
        time is left, and always runs to its end, so every case is timed
        equally often.  A pass's time is the sum of its ops' times, so the
        output checks and, untraced, the set-up burst before each op are not
        in it.  With a tracer, passes alternate untraced and traced until one
        of each has run."""
        deadline = time.perf_counter() + seconds
        traced = False
        while True:
            first = len(self.ops)
            with tracer if traced else contextlib.nullcontext():
                for case in self.cases:
                    scale = self.speed_scale()
                    if tracer is None:
                        self.setup_burst(scale)
                    self.one_op(case, scale, tracer if traced else None)
            self.passes[traced].append(sum(op["seconds"] for op in self.ops[first:]))
            if tracer is not None:
                traced = not traced
            if time.perf_counter() >= deadline and all(
                self.passes[kind] for kind in ((False, True) if tracer else (False,))
            ):
                return


def end_to_end(run: Run) -> dict:
    timed = [op for op in run.ops if not op.get("warmup")]
    times = [op["seconds"] for op in timed]
    op_time = sum(times)
    q, tail = tail_percentile(times)
    rows = sum(op["rows"] for op in timed)
    failed = sum(op["failed"] for op in run.ops)
    print(f"# {len(run.setup_times)} set-ups; timed ops {len(times)} in passes of "
          f"{', '.join(f'{p:.3f}' for p in run.passes[False])} s after one warm-up op; "
          f"op_tail_s is p{q} of {len(times)} ops")
    print(f"# ops_failed_ratio {failed / len(run.ops)!r} ({failed}/{len(run.ops)})")
    print(f"# unscaled: setup_s {statistics.median(run.raw_setup_times)!r}, op_p50_s "
          f"{statistics.median(op['raw_seconds'] for op in timed)!r}; speed scale median "
          f"{statistics.median(op['scale'] for op in timed)!r}, range "
          f"{min(op['scale'] for op in timed)!r}-{max(op['scale'] for op in timed)!r}")
    if rows:
        print(f"# eval_rows_per_s {rows / op_time!r} 1/s")
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "wall_s": (statistics.median(run.passes[False]), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "witnesses_per_s": (sum(op["witnesses"] for op in timed) / op_time, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run, tracer, layer_counts: LayerCounts) -> tuple[dict, bool]:
    traced_ops = [i for i, op in enumerate(run.ops) if op["traced"] and not op["failed"]]
    spans = tracer.per_op()
    sums: dict[str, float] = defaultdict(float)
    consistent = True
    for i in traced_ops:
        wall = run.ops[i]["traced_wall"]
        self_sum = sum(self_time for _, self_time in spans[i].values())
        if abs(self_sum - wall) > 1e-9 * max(wall, 1.0):
            print(f"op {i}: self times sum to {self_sum!r}, traced wall {wall!r}", file=sys.stderr)
            consistent = False
        sums["bench.traced_op_s"] += wall
        for metric, span in LAYER_SELF_TIMES.items():
            sums[metric] += spans[i][span][1] if span in spans[i] else 0.0
        for metric, span in LAYER_CALLS.items():
            sums[metric] += spans[i][span][0] if span in spans[i] else 0
        for metric in (*LAYER_COUNTS, "witnesses.direct_accepted"):
            sums[metric] += layer_counts.counts[i].get(metric, 0.0)
        for metric in KERNEL_COUNTS:
            sums[metric] += tracer.counts.get((i, metric), 0)
        if layer_counts.orbits[i]:
            sums["pulled"] += layer_counts.pulled_candidates(i)
    n = max(len(traced_ops), 1)
    metrics = {name: (sums[name] / n, "s") for name in LAYER_SELF_TIMES}
    metrics["bench.traced_op_s"] = (sums["bench.traced_op_s"] / n, "s")
    for name in (*LAYER_CALLS, *LAYER_COUNTS, *KERNEL_COUNTS):
        metrics[name] = (sums[name] / n, "count")
    scanned = sums["witnesses.subspaces_total"]
    metrics["witnesses.direct_accept_ratio"] = (
        sums["witnesses.direct_accepted"] / scanned if scanned else 0.0, "ratio")
    pulled = sums["pulled"]
    metrics["witnesses.graph_dedup_ratio"] = (
        sums["witnesses.graph_unique_keys"] / pulled if pulled else 0.0, "ratio")
    untraced, traced = run.passes[False], run.passes[True]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    print(f"# traced ops {len(traced_ops)}; untraced wall_s {statistics.median(untraced)!r}, "
          f"traced wall_s {statistics.median(traced)!r}; witnesses.subspaces_total is computed "
          "from Gaussian binomials, not observed")
    return metrics, consistent


def benchmark(workload, reference: dict, seed: int, seconds: float, trace: bool,
              workdir: Path) -> dict:
    """Set up, warm up, measure and check one run; returns the result
    object that ``main`` prints as the last line."""
    import inputs
    from tracing import LayerCounts, Tracer

    cases = inputs.sample_cases(reference["cases"], workload.batch, seed)
    print(f"# {workload.name} seed {seed}: cases {cases}")
    run = Run(workload, cases, reference, workdir)
    scale = run.speed_scale()
    if trace:
        run.setup()
    else:
        run.setup_burst(scale)
    # One untimed op first, so one-time costs (first allocations, lazy
    # imports) land in no op's timing.  Its output is checked like any op's.
    run.one_op(cases[0], scale)
    run.ops[-1]["warmup"] = True

    if trace:
        layer_counts = LayerCounts()
        tracer = Tracer(layer_counts.hooks())
        run.loop(seconds, tracer)
        metrics, consistent = per_layer(run, tracer, layer_counts)
        tracer.write_jsonl(workdir / "spans.jsonl")
    else:
        run.loop(seconds)
        metrics = end_to_end(run)
        consistent = True

    failed = sum(op["failed"] for op in run.ops)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return {
        "correct": failed == 0 and consistent,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    catalogue = workloads.make_workloads()
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(catalogue)}")
    reference = json.loads(REFERENCE.read_text())[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = benchmark(catalogue[args.workload], reference, args.seed, args.seconds,
                       bool(args.trace), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
