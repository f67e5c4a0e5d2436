"""Sweep benchmark for the Xheal reproduction.

Runs one named workload (or ``all``) of streamed ``repro.scenarios`` sweeps
at a given seed, prints every metric by name with its unit and sample
count, checks the program's outputs, and prints one JSON result object as
its last line.  Exits 1 when a correctness check fails and 2 when the
program under test cannot be found.

    python3 perfbench/run.py --workload snapshot-sweepcut --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same grid untraced and then traced, and reports the
per-layer metrics of the traced run plus the tracing overhead; its spans
are written to ``.perfbench-out/<workload>/spans-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: One BLAS/OpenMP thread per process, so two fleet workers and the
#: coordinator do not oversubscribe a 2-core machine.
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def _report(outcome) -> None:
    print(f"== {outcome.workload}  seed={outcome.seed}  points={outcome.points}")
    for name, metric in outcome.metrics.items():
        samples = outcome.samples.get(name)
        suffix = f"  ({samples})" if samples else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    for name, text in outcome.samples.items():
        if name not in outcome.metrics:
            print(f"  {name:<44} {text}")
    failed = outcome.failed_points
    print(f"  failed_points_frac {failed / outcome.points:.6g} ({failed} of {outcome.points} points)")
    print(f"  summary_sha256 {outcome.digest}")
    identical = outcome.outputs_identical
    if identical is None:
        identical = "n/a (no reference for this seed and size)"
    print(f"  outputs_identical {identical}")
    for reason in outcome.checks[:20]:
        print(f"  CHECK FAILED: {reason}")
    print(f"  correct {not outcome.failed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))

    import measure
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or 'all'")

    outcomes = []
    for name in names:
        workload = WORKLOADS[name]
        outcome = measure.run(workload, args.seed, workload.points(args.seconds), bool(args.trace))
        _report(outcome)
        outcomes.append(outcome)

    if len(outcomes) == 1:
        metrics = outcomes[0].metrics
    else:
        metrics = {
            f"{outcome.workload}/{name}": metric
            for outcome in outcomes
            for name, metric in outcome.metrics.items()
        }
    correct = not any(outcome.failed for outcome in outcomes)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(outcome.points for outcome in outcomes),
                "failed": sum(outcome.failed_points for outcome in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
