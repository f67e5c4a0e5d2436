"""Self-tests of the benchmark itself (not of the program under test).

1. Two traced runs at the same seed give exactly equal counts: every
   ``*.calls`` metric and the derived per-point/per-snapshot/per-deletion
   ratios.
2. The per-layer shares confirm the workload design: ``perf`` plus
   ``spectral`` carry most of ``snapshot-sweepcut`` and almost none of
   ``churn-heal``/``fleet-stream``; ``core`` (with the expander builds its
   repairs call) carries most of ``churn-heal``; the coordinator-side
   ``fleet``, ``scenarios`` and ``stream`` layers carry most of
   ``fleet-stream``.
3. Uninstalling the tracer puts every wrapped function back.

Usage: ``python3 perfbench/selftest.py`` (about a minute on 2 cores).
Exits 1 when a check fails.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import PINNED_THREADS  # noqa: E402

os.environ.update(PINNED_THREADS)

import measure  # noqa: E402
from tracer import SPAN_MARKER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Small grids: counts and shares need no more than this.
POINTS = {"snapshot-sweepcut": 12, "churn-heal": 12, "fleet-stream": 150}
SEED = 3
SHARED_MODULES = ("os", "subprocess", "networkx")

COUNT_RATIOS = (
    "spectral.eigensolves_per_snapshot",
    "spectral.cut_scans_per_snapshot",
    "stream.fsyncs_per_point",
    "stream.bytes_per_point",
    "core.edge_changes_per_deletion",
    "expanders.builds_per_deletion",
    "core.materializations_per_point",
    "scenarios.validations_per_point",
    "fleet.spawns",
)


def _counts(outcome) -> dict:
    return {
        name: metric["value"]
        for name, metric in outcome.metrics.items()
        if name.endswith(".calls") or name in COUNT_RATIOS
    }


def _share(outcome, *layers) -> float:
    return sum(outcome.metrics[f"{layer}.share"]["value"] for layer in layers)


def _leftover_wrappers() -> list[str]:
    """Return every tracer wrapper still reachable from a loaded module."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name.startswith("repro") or module_name in SHARED_MODULES):
            continue
        for name, value in list(vars(module).items()):
            owners = [(name, value)]
            if isinstance(value, type):
                owners += [(f"{name}.{attr}", inner) for attr, inner in vars(value).items()]
            found += [f"{module_name}.{path}" for path, inner in owners if hasattr(inner, SPAN_MARKER)]
    return found


def main() -> int:
    failures = []

    def check(ok: bool, text: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
        if not ok:
            failures.append(text)

    outcomes = {}
    for name, points in POINTS.items():
        first, second = (
            measure.run(WORKLOADS[name], SEED, points, trace=True) for _ in range(2)
        )
        outcomes[name] = first
        check(not first.failed and not second.failed, f"{name}: every point passes the correctness gate")
        a, b = _counts(first), _counts(second)
        differing = sorted(key for key in a if a[key] != b[key])
        check(not differing, f"{name}: {len(a)} counts repeat exactly across two traced runs {differing}")
    leftovers = _leftover_wrappers()
    check(not leftovers, f"every wrapped function is restored after tracing {leftovers}")

    snapshot = _share(outcomes["snapshot-sweepcut"], "perf", "spectral")
    check(snapshot > 0.5, f"perf+spectral carry most of snapshot-sweepcut ({snapshot:.2f})")
    for name in ("churn-heal", "fleet-stream"):
        share = _share(outcomes[name], "perf", "spectral")
        check(share < 0.02, f"perf+spectral carry almost none of {name} ({share:.3f})")
    churn = _share(outcomes["churn-heal"], "core", "expanders")
    check(churn > 0.5, f"core (with its expander builds) carries most of churn-heal ({churn:.2f})")
    fleet = _share(outcomes["fleet-stream"], "fleet", "scenarios", "stream")
    check(fleet > 0.5, f"fleet+scenarios+stream carry most of fleet-stream ({fleet:.2f})")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
