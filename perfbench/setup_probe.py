"""One fresh interpreter's set-up: import the sweep API, expand and validate.

``run.py`` times this script from outside, so ``setup_s`` covers interpreter
start, imports and grid expansion/validation -- what a user waits for before
the first point of a sweep runs.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <points>``
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, points = argv
    workload = WORKLOADS[name]
    import repro.analysis.report  # noqa: F401
    import repro.scenarios.runner  # noqa: F401
    import repro.scenarios.stream  # noqa: F401

    if workload.executor == "subprocess-fleet":
        import repro.scenarios.fleet  # noqa: F401
    for spec in workload.sweep(int(seed), int(points)).expand():
        spec.validate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
