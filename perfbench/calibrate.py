"""Express CPU time in seconds of a reference core.

On a shared VM the host runs the same vCPU 1.5-2x faster or slower from
one second to the next (frequency and SMT-sibling load), so even CPU time
of identical work varied by +-25% between runs.  :class:`ReferenceCore`
runs one calibration process per vCPU the benchmark uses, pinned to that
vCPU at nice 19, so it takes about 2% of the CPU.  The process times a
fixed unit of pure-Python work in CPU time, over and over.  Units timed
during a phase tell how fast the vCPU ran then, and
:meth:`ReferenceCore.scale` turns the phase's CPU seconds into seconds of a
core that runs one unit in :data:`UNIT_S`.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

#: CPU seconds one calibration unit takes on the reference core (an idle
#: vCPU of a 2-vCPU x86 VM).
UNIT_S = 0.003
UNIT_ITERATIONS = 20000

#: The vCPUs the benchmark may use, read before it pins itself.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

_PROBE = f"""
import os, sys, time
os.sched_setaffinity(0, {{int(sys.argv[1])}})
os.nice(19)
parent = os.getppid()
with open(sys.argv[2], "w") as log:
    while os.getppid() == parent:
        start = time.process_time()
        x = 0
        for j in range({UNIT_ITERATIONS}):
            x += j * j
        log.write(f"{{time.perf_counter()}} {{time.process_time() - start}}\\n")
        log.flush()
"""


class ReferenceCore:
    """Calibration processes on ``cpus``; a context manager that stops them."""

    def __init__(self, cpus, directory: Path):
        self.logs = {cpu: Path(directory) / f"calibration-cpu{cpu}.log" for cpu in cpus}
        self._processes = [
            subprocess.Popen([sys.executable, "-c", _PROBE, str(cpu), str(log)])
            for cpu, log in self.logs.items()
        ]

    def __enter__(self) -> "ReferenceCore":
        return self

    def __exit__(self, *exc_info) -> None:
        for process in self._processes:
            process.kill()
        for process in self._processes:
            process.wait()

    def scale(self, start: float, end: float, cpus=None) -> float:
        """Return reference seconds per CPU second over ``[start, end]``.

        ``start``/``end`` are ``time.perf_counter()`` readings; ``cpus``
        names the vCPUs the phase ran on (default: all calibrated).  A phase
        shorter than the gap between units borrows the units nearest to it.
        """
        units = []
        for cpu, log in self.logs.items():
            if cpus is not None and cpu not in cpus:
                continue
            # The last line may still be being written.
            lines = log.read_text(encoding="utf-8").split("\n")[:-1]
            units += [tuple(map(float, line.split())) for line in lines]
        if not units:
            raise RuntimeError("the calibration processes timed no unit")
        inside = [cost for stamp, cost in units if start <= stamp <= end]
        if len(inside) < 5:
            middle = (start + end) / 2
            inside = [cost for _, cost in sorted(units, key=lambda unit: abs(unit[0] - middle))[:5]]
        return UNIT_S / statistics.mean(inside)


def benchmark_cpus(workers: int) -> list[int]:
    """Pin a serial benchmark to one vCPU; let a fleet use every vCPU it may.

    Returns the vCPUs to calibrate.  Pinning happens here, before any child
    starts, so set-up interpreters and fleet workers inherit it.
    """
    cpus = ALLOWED_CPUS if workers > 1 else ALLOWED_CPUS[:1]
    os.sched_setaffinity(0, set(cpus))
    return cpus
