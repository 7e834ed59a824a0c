"""Record the reference corpus: every case's output digest and work count.

    python3 perfbench/record.py [workload ...]

Run from the root of a checkout whose outputs are trusted.  Writes
``perfbench/reference.json``; the benchmark then fails any op whose output
differs from the digest recorded here for its case.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run


def record(workload, workdir: Path, cases: list[tuple[int, int]] | None = None) -> dict:
    """Run each (case, stratum) of ``cases`` (default: every case of
    ``workload``) once and keep its digest."""
    recorded = []
    for case, stratum in cases or workload.cases():
        start = time.perf_counter()
        args = workload.setup(case, workdir)
        outcome = workload.check(args, workload.op(args))
        if outcome.problems:
            raise SystemExit(f"{workload.name} case {case}: {outcome.problems}")
        recorded.append({"case": case, "stratum": stratum, "digest": outcome.digest})
        print(f"{workload.name} case {case} (stratum {stratum}): {outcome.witnesses} "
              f"witnesses, {time.perf_counter() - start:.2f} s", flush=True)
    return {"cases": recorded}


def main(argv: list[str]) -> int:
    run.import_library()
    import workloads

    catalogue = workloads.make_workloads()
    names = argv or list(catalogue)
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name in names:
            reference[name] = record(catalogue[name], Path(tmp))
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
