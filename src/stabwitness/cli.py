"""Command-line front end.

Subcommands: build-code, enumerate, eval, orbit, critical-prob, equivalence.
Exit codes: 0 on success, 1 on runtime or data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .cliffords import find_graph_equivalence
from .evaluation import MeasurementDataset, WernerModel, critical_probability
from .graphs import graph_from_json, graph_to_json, lc_orbit
from .groups import (
    MAX_SPAN_QUBITS,
    GeneratorSet,
    NAMED_CODES,
    code_from_json,
    code_to_json,
    load_named_code,
)
from .reporting import (
    _witness_csv,
    build_census_report,
    build_evaluation_report,
    witness_rows,
    witness_rows_to_json,
)
from .witnesses import WitnessKind, WitnessSpec, run_census

# The alternative witness sums only its n basis members, but building its
# spec reduces n rows of 2n bits: O(n^3) time and O(n^2) memory.  At this
# size it answers in well under a second.
MAX_ALTERNATIVE_QUBITS = 1000

_KIND_FLAGS = {
    "standard": WitnessKind.STANDARD,
    "alternative": WitnessKind.ALTERNATIVE,
    "twomeas": WitnessKind.TWO_MEASUREMENT,
}


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def _load_code(parser: argparse.ArgumentParser, args) -> tuple[str, GeneratorSet]:
    if args.file is not None:
        if args.code is not None:
            parser.error("give either a code name or --file, not both")
        try:
            return code_from_json(Path(args.file).read_text())
        except OSError as exc:
            raise SystemExit(_fail(f"cannot read {args.file}: {exc}"))
        except ValueError as exc:
            raise SystemExit(_fail(f"bad code file: {exc}"))
    if args.code is None:
        parser.error("a code name or --file is required")
    try:
        return args.code, load_named_code(args.code)
    except KeyError as exc:
        parser.error(exc.args[0])


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parse_omegas(values) -> list[tuple[int, ...]] | None:
    """The integer labels of each --omega value; ``run_census`` checks them
    against the code."""
    if not values:
        return None
    out = []
    for value in values:
        try:
            out.append(tuple(int(tok) for tok in value.split(",")))
        except ValueError:
            raise ValueError(f"bad subsystem {value!r}; expected e.g. 5,6") from None
    return out


def _add_code_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("code", nargs="?", help=f"code name ({', '.join(sorted(NAMED_CODES))})")
    sub.add_argument("--file", help="path to a code-definition JSON file")


def cmd_build_code(parser, args) -> int:
    name, code = _load_code(parser, args)
    _write_out(code_to_json(code, name), args.out)
    return 0


def cmd_enumerate(parser, args) -> int:
    _, code = _load_code(parser, args)
    methods = [m.strip() for m in args.methods.split(",")]
    try:
        omegas = _parse_omegas(args.omega)
        census = run_census(code, methods, omegas)
    except ValueError as exc:
        parser.error(str(exc))
    report = build_census_report(census)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _write_out(text, args.out)
    if args.witnesses_out:
        if args.witnesses_out.endswith(".json"):
            listing = witness_rows_to_json(witness_rows(census))
        else:
            listing = _witness_csv(census)
        Path(args.witnesses_out).write_text(listing)
    return 0


def cmd_eval(parser, args) -> int:
    _, code = _load_code(parser, args)
    if (args.data is None) == (args.werner is None):
        parser.error("give exactly one of --data or --werner")
    # a negative threshold would mark positive estimates as detected
    if not (math.isfinite(args.sigma_threshold) and args.sigma_threshold >= 0.0):
        parser.error(
            "--sigma-threshold must be finite and non-negative,"
            f" got {args.sigma_threshold}"
        )
    try:
        omegas = _parse_omegas(args.omega)
        kinds = [_KIND_FLAGS[k.strip()] for k in args.kinds.split(",")]
    except KeyError as exc:
        parser.error(
            f"unknown kind {exc.args[0]!r}; choose from {','.join(_KIND_FLAGS)}"
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.werner is not None:
        try:
            data = WernerModel(args.werner)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        try:
            data = MeasurementDataset.from_csv(Path(args.data).read_text())
        except OSError as exc:
            return _fail(f"cannot read {args.data}: {exc}")
        except ValueError as exc:
            return _fail(f"bad dataset: {exc}")
        if data.n_qubits != code.n_qubits:
            return _fail(
                f"dataset is on {data.n_qubits} qubits, the code on {code.n_qubits}"
            )
    methods = ["direct"]
    if WitnessKind.TWO_MEASUREMENT in kinds:
        methods.append("twomeas")
    try:
        census = run_census(code, methods, omegas)
    except ValueError as exc:
        parser.error(str(exc))
    report = build_evaluation_report(
        census,
        data,
        kinds,
        sigma_threshold=args.sigma_threshold,
        genuine_set=code if omegas is None and not args.no_genuine else None,
    )
    if args.best_per_omega:
        report = report.best_per_omega()
    _write_out(
        report.to_csv() if args.format == "csv" else report.to_json(), args.out
    )
    return 0


def cmd_orbit(parser, args) -> int:
    if args.max_size < 1:
        parser.error(f"--max-size must be at least 1, got {args.max_size}")
    try:
        graph = graph_from_json(Path(args.graph).read_text())
    except OSError as exc:
        return _fail(f"cannot read {args.graph}: {exc}")
    except ValueError as exc:
        return _fail(str(exc))
    orbit = lc_orbit(graph, max_size=args.max_size)
    payload = {
        "size": len(orbit),
        "members": [
            {"edges": [list(e) for e in g.edges()], "sequence": list(seq)}
            for g, seq in orbit.items()
        ],
    }
    _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_critical_prob(parser, args) -> int:
    if args.kind == "twomeas":
        if args.x_size is None or args.z_size is None:
            parser.error("--kind twomeas needs --x-size and --z-size")
        a, b = args.x_size, args.z_size
        n = a + b
        if a < 0 or b < 0 or n < 2:
            parser.error("sizes must be non-negative with at least two total")
        if max(a, b) > MAX_SPAN_QUBITS:
            parser.error(
                f"--x-size/--z-size would span 2^{max(a, b)} members; "
                f"the cap is {MAX_SPAN_QUBITS}"
            )
        # witness structure only matters through (a, b); build a disjoint
        # X/Z seed on n qubits as packed rows: X on qubits 1..a, Z on the rest
        x_rows = tuple(1 << i for i in range(a))
        z_rows = tuple(1 << (n + i) for i in range(a, n))
        spec = WitnessSpec(
            WitnessKind.TWO_MEASUREMENT, None, n, x_rows + z_rows, x_rows, z_rows
        )
    else:
        if args.n is None or args.n < 2:
            parser.error("--n >= 2 is required")
        n = args.n
        # the standard witness spans 2^n members; the alternative sums its
        # n basis members only
        if args.kind == "standard" and n > MAX_SPAN_QUBITS:
            parser.error(
                f"--n {n} would span 2^{n} members; the cap is {MAX_SPAN_QUBITS}"
            )
        if n > MAX_ALTERNATIVE_QUBITS:
            parser.error(
                f"--n {n} would reduce {n} rows of {2 * n} bits; "
                f"the cap is {MAX_ALTERNATIVE_QUBITS}"
            )
        # value depends only on n; use an n-qubit GHZ-style seed as packed
        # rows: X on every qubit, then ZZ on each neighboring pair
        all_x = (1 << n) - 1
        zz_pairs = tuple(0b11 << (n + i) for i in range(n - 1))
        spec = WitnessSpec(_KIND_FLAGS[args.kind], None, n, (all_x,) + zz_pairs)
    print(f"{critical_probability(spec):.12g}")
    return 0


def cmd_equivalence(parser, args) -> int:
    _, code = _load_code(parser, args)
    clifford, recomb, graph = find_graph_equivalence(code)
    print(f"local_clifford: {clifford.to_text()}")
    print(f"graph: {graph_to_json(graph)}")
    rows = [
        "".join(str((row >> j) & 1) for j in range(recomb.size))
        for row in recomb.matrix.row_bits
    ]
    print(f"recombination_rows: {' '.join(rows)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabwitness",
        description="Construct, enumerate, and evaluate local entanglement "
        "witnesses for stabilizer states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-code", help="emit a code definition as JSON")
    _add_code_arguments(p)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("enumerate", help="run the witness census")
    _add_code_arguments(p)
    p.add_argument(
        "--methods",
        default="direct,graph,twomeas",
        help="comma list from direct,graph,twomeas",
    )
    p.add_argument(
        "--omega",
        action="append",
        help="restrict to a subsystem, e.g. --omega 5,6 (repeatable)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the census table to a file")
    p.add_argument(
        "--witnesses-out",
        help="also write one row per witness (.csv or .json)",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("eval", help="evaluate witnesses against data")
    _add_code_arguments(p)
    p.add_argument("--data", help="dataset CSV (pauli,expectation,shots)")
    p.add_argument(
        "--werner", type=float, help="use the white-noise model at this p"
    )
    p.add_argument(
        "--kinds",
        default="standard,alternative,twomeas",
        help="comma list from standard,alternative,twomeas",
    )
    p.add_argument("--omega", action="append", help="restrict subsystems")
    p.add_argument(
        "--best-per-omega",
        action="store_true",
        help="keep only the most negative witness per subsystem and kind",
    )
    p.add_argument(
        "--sigma-threshold",
        type=float,
        default=0.0,
        help="detection requires expectation + k*stddev < 0 (k >= 0)",
    )
    p.add_argument(
        "--no-genuine",
        action="store_true",
        help="skip the genuine (whole-state) witnesses",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("orbit", help="dump the local-complementation orbit")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--max-size", type=int, default=10**6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser(
        "critical-prob", help="white-noise critical probability calculator"
    )
    p.add_argument(
        "--kind",
        choices=("standard", "alternative", "twomeas"),
        required=True,
    )
    p.add_argument("--n", type=int, help="witness size (standard/alternative)")
    p.add_argument("--x-size", type=int, help="X-type basis size (twomeas)")
    p.add_argument("--z-size", type=int, help="Z-type basis size (twomeas)")
    p.set_defaults(func=cmd_critical_prob)

    p = sub.add_parser(
        "equivalence", help="print a graph form of the code's generator set"
    )
    _add_code_arguments(p)
    p.set_defaults(func=cmd_equivalence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
