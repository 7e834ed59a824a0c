"""Span and count capture around the library's public functions.

The tracer rebinds each traced name in every ``stabwitness`` module that
imported it (and wraps the traced report and dataset methods on their
classes), so the library's own source stays untouched.  A span records
(name, start, end, parent span, op id).  Spans stay in memory until the run
ends; ``write_jsonl`` writes them out then.  ``LayerCounts`` derives the
counts the library does not expose from the traced functions' results.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable

# Traced functions: (defining module, attribute, span name).
SPANNED_FUNCTIONS = (
    ("witnesses", "run_census", "witnesses.run_census"),
    ("witnesses", "direct_census", "witnesses.direct_census"),
    ("witnesses", "two_measurement_from_standard", "witnesses.xz_split"),
    ("witnesses", "enumerate_graph_based", "witnesses.graph_pullback"),
    ("graphs", "lc_orbit", "graphs.lc_orbit"),
    ("cliffords", "find_graph_equivalence", "cliffords.graph_equivalence"),
    ("cliffords", "find_local_symmetries", "cliffords.local_symmetries"),
    ("groups", "span_group", "groups.span_group"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("reporting", "build_evaluation_report", "reporting.eval_report"),
    ("reporting", "build_census_report", "reporting.census_report"),
    ("reporting", "witness_rows", "reporting.witness_rows"),
    ("reporting", "witness_rows_to_csv", "reporting.render"),
    ("reporting", "witness_rows_to_json", "reporting.render"),
    ("cli", "main", "cli.main"),
)

# Traced methods: (module, class, method, span name).
SPANNED_METHODS = (
    ("evaluation", "MeasurementDataset", "from_csv", "evaluation.dataset_parse"),
    ("reporting", "CensusReport", "to_csv", "reporting.render"),
    ("reporting", "CensusReport", "to_json", "reporting.render"),
    ("reporting", "EvaluationReport", "to_csv", "reporting.render"),
    ("reporting", "EvaluationReport", "to_json", "reporting.render"),
)

# Kernel calls that are counted but get no span: they run hundreds of
# thousands of times per op, and a span each would swamp the op.
COUNTED_FUNCTIONS = (
    ("binary", "rows_rank", "binary.rows_rank_calls"),
    ("binary", "rows_rref", "binary.rows_rref_calls"),
)

ROOT = "bench.op"


class Tracer:
    """Records spans and counts while installed; restores every rebinding
    on ``uninstall``."""

    def __init__(self, hooks: dict[str, Callable] | None = None) -> None:
        self.spans: list = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        # span name -> hook(tracer, args, result), run after the span ends;
        # hooks only stash or count, so they add little to the parent span
        self.hooks = hooks or {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- capture ------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_op(self, op: int, fn: Callable):
        """Run one op under a root span; returns (result, root span wall
        time), the time the op's self times add up to."""
        self.op = op
        sid = len(self.spans)
        result = self.span(ROOT, fn)()
        _, start, end, _, _ = self.spans[sid]
        return result, end - start

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "stabwitness" or name.startswith("stabwitness.")
        ]
        for module, attr, span_name in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[f"stabwitness.{module}"], attr)
            self._rebind(modules, original, self.span(span_name, original))
        for module, attr, count_name in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[f"stabwitness.{module}"], attr)
            self._rebind(modules, original, self.counter(count_name, original))
        for module, cls_name, attr, span_name in SPANNED_METHODS:
            cls = getattr(sys.modules[f"stabwitness.{module}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(span_name, raw.__func__))
            else:
                wrapped = self.span(span_name, raw)
            setattr(cls, attr, wrapped)
            self._undo.append(lambda c=cls, a=attr, r=raw: setattr(c, a, r))

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr, o=original: setattr(m, a, o)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, list]]:
        """Per op, per span name: [calls, self time], where self time is the
        span's duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            entry = out[op][name]
            entry[0] += 1
            entry[1] += (end - start) - child[sid]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


class LayerCounts:
    """Tracer hooks that derive counts from traced results.  Orbits are
    kept per op, and the pulled candidates counted after the op ends."""

    def __init__(self):
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.orbits: dict[int, list] = defaultdict(list)

    def hooks(self) -> dict:
        def xz_split(tracer, args, result):
            self.counts[tracer.op]["witnesses.xz_split_hits"] += result is not None

        def direct_census(tracer, args, result):
            c = self.counts[tracer.op]
            c["witnesses.subspaces_total"] += subspace_total(args[0].n_qubits)
            c["witnesses.direct_accepted"] += sum(len(v) for v in result.values())

        def graph_pullback(tracer, args, result):
            self.counts[tracer.op]["witnesses.graph_unique_keys"] += sum(len(v) for v in result.values())

        def lc_orbit(tracer, args, result):
            self.counts[tracer.op]["graphs.orbit_size"] += len(result)
            self.orbits[tracer.op].append(result)

        def local_symmetries(tracer, args, result):
            self.counts[tracer.op]["cliffords.symmetries_found"] += len(result)

        return {
            "witnesses.xz_split": xz_split,
            "witnesses.direct_census": direct_census,
            "witnesses.graph_pullback": graph_pullback,
            "graphs.lc_orbit": lc_orbit,
            "cliffords.local_symmetries": local_symmetries,
        }

    def pulled_candidates(self, op: int) -> int:
        """Orbit members times the subsystems connected in each member."""
        return sum(
            connected_subsystems(g.adjacency)
            for orbit in self.orbits[op] for g in orbit.graphs
        )


def subspace_total(n_qubits: int) -> int:
    """Number of subspaces a full direct scan visits: the sum of Gaussian
    binomials [n_gens, k]_2 for k = 2..N-1, with n_gens = N."""

    def gaussian(n: int, k: int) -> int:
        num = den = 1
        for i in range(k):
            num *= (1 << (n - i)) - 1
            den *= (1 << (i + 1)) - 1
        return num // den

    return sum(gaussian(n_qubits, k) for k in range(2, n_qubits))


@functools.lru_cache(maxsize=None)
def _subsystem_masks(n_qubits: int) -> tuple[int, ...]:
    return tuple(
        sum(1 << v for v in combo)
        for size in range(2, n_qubits)
        for combo in itertools.combinations(range(n_qubits), size)
    )


def connected_subsystems(adjacency: tuple[int, ...]) -> int:
    """How many subsystems of size 2..N-1 induce a connected subgraph."""
    count = 0
    for mask in _subsystem_masks(len(adjacency)):
        reached = frontier = mask & -mask
        while frontier:
            grown = reached
            rest = frontier
            while rest:
                low = rest & -rest
                grown |= adjacency[low.bit_length() - 1] & mask
                rest ^= low
            frontier = grown & ~reached
            reached = grown
        count += reached == mask
    return count
