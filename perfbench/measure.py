"""Run one workload: warm-up, measured sweep, read phase, checks, set-up.

Every sweep is closed-loop: the ``serial`` executor starts the next point
only when the previous one has been streamed, and the fleet keeps one point
in flight per worker.  Stream directories live under ``.perfbench-out/`` in
the checkout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import ReferenceCore, benchmark_cpus
from tracer import CompletionClock, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"
REFERENCE = HERE / "reference.json"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Read-phase repetitions: at least MIN_READS, and enough that about
#: READ_POINTS points are read in total.
MIN_READS = 3
READ_POINTS = 2000
#: Completion intervals per run over which one p90 is taken.
SEGMENT = 100
#: Layers as named by the modules; a layer's share is its spans' self time
#: over the traced run's wall time (sweep plus read phase).
LAYERS = (
    "spectral", "perf", "core", "expanders", "adversary",
    "analysis", "harness", "scenarios", "stream", "fleet",
)


@dataclass
class Outcome:
    """What one run measured and checked."""

    workload: str
    seed: int
    points: int
    failed: set = field(default_factory=set)
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    digest: str = ""
    outputs_identical: bool | None = None

    @property
    def failed_points(self) -> int:
        return min(len(self.failed), self.points)

    def fail(self, index, reason: str) -> None:
        self.failed.add(index)
        self.checks.append(reason)

    def put(self, name: str, value: float, unit: str, samples: str | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if samples is not None:
            self.samples[name] = samples


@dataclass(frozen=True)
class Spent:
    """Wall time and CPU time (user+sys of this process and its reaped children)."""

    wall: float
    cpu: float
    started: float = 0.0

    @classmethod
    def now(cls) -> "Spent":
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return cls(time.perf_counter(), time.process_time() + children.ru_utime + children.ru_stime)

    def since(self, start: "Spent") -> "Spent":
        return Spent(self.wall - start.wall, self.cpu - start.cpu, start.wall)

    def ref(self, core: ReferenceCore, cpus=None) -> float:
        """Return the CPU time in seconds of the reference core."""
        return self.cpu * core.scale(self.started, self.started + self.wall, cpus)


def _sweep(workload, specs, directory: Path):
    """Stream ``specs`` to ``directory``; return (result, spent, completion stamps).

    Fleet workers exit, and are reaped, before ``run_scenarios`` returns, so
    ``spent.cpu`` covers them too.
    """
    import numpy

    from repro.scenarios import runner

    shutil.rmtree(directory, ignore_errors=True)
    # The sweep-cut eigensolves start from numpy's global RNG; seeding it
    # makes their iteration counts, and so their cost, a function of the
    # run seed.  Outputs do not depend on it.
    numpy.random.seed(specs[0].seed % 2**32)
    clock = CompletionClock()
    clock.install()
    try:
        start = Spent.now()
        result = runner.run_scenarios(
            specs,
            workers=workload.workers,
            stream_to=directory,
            compress=True,
            executor=workload.executor,
        )
        spent = Spent.now().since(start)
    finally:
        clock.uninstall()
    return result, spent, [(wall - start.wall, cpu) for wall, cpu in clock.stamps]


def _read(workload, specs, fingerprints, directory: Path, outcome: Outcome) -> Spent:
    """Resume (must execute nothing), then report; return what it spent."""
    from repro.analysis import report
    from repro.scenarios import runner

    start = Spent.now()
    resumed = runner.run_scenarios(
        specs, workers=workload.workers, resume=directory, executor=workload.executor
    )
    swept = report.generate_report(directory, ci=True)
    spent = Spent.now().since(start)
    if resumed.executed:
        outcome.fail("resume", f"resume executed {resumed.executed} points, expected 0")
    reported = {point.fingerprint for point in swept.points}
    for index, fingerprint in enumerate(fingerprints):
        if fingerprint not in reported:
            outcome.fail(index, f"point {index} missing from the report")
    return spent


def _check(workload, specs, fingerprints, directory: Path, outcome: Outcome) -> dict:
    """Apply the per-point correctness gate; return summed cache stats."""
    from repro.scenarios.artifacts import load_run

    manifest = json.loads((directory / "MANIFEST.json").read_text(encoding="utf-8"))
    for entry in manifest["failed"]:
        outcome.fail(entry["index"], f"point {entry['index']} quarantined: {entry['error']}")
    records = {}
    for entry in manifest["entries"]:
        record = load_run(directory / entry["artifact"])
        records[record.spec.fingerprint()] = record
    rows = []
    cache = {"hits": 0, "misses": 0}
    for index, (spec, fingerprint) in enumerate(zip(specs, fingerprints)):
        record = records.get(fingerprint)
        if record is None:
            outcome.fail(index, f"point {index} has no artifact")
            continue
        summary = record.summary
        rows.append(summary)
        if summary.get("steps") != spec.timesteps:
            outcome.fail(index, f"point {index} ran {summary.get('steps')} of {spec.timesteps} steps")
        if summary.get("connected") is not True:
            outcome.fail(index, f"point {index} ended disconnected")
        if workload.snapshot_every is None and summary.get("theorem2_holds") is None:
            outcome.fail(index, f"point {index} has no Theorem-2 verdict")
        for key in cache:
            cache[key] += record.cache_stats.get(key, 0)
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    outcome.digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)
    if reference and reference["seed"] == outcome.seed and reference["points"] == len(specs):
        outcome.outputs_identical = reference["summary_sha256"] == outcome.digest
    return cache


def _setup(workload, seed: int, points: int) -> list[Spent]:
    """Run fresh interpreters that import the API and expand/validate the grid."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed), str(points)]
    spent = []
    for _ in range(SETUP_PROBES):
        start = Spent.now()
        subprocess.run(command, check=True, timeout=120)
        spent.append(Spent.now().since(start))
    return spent


def _p90(intervals: list[float]) -> tuple[float, int]:
    """Return the median of the p90s of consecutive runs of >= SEGMENT intervals.

    A burst of contention that hits one run does not move the result, and
    each run keeps at least ten intervals beyond its p90.  Also returns the
    number of runs.
    """
    count = max(1, len(intervals) // SEGMENT)
    size = len(intervals) // count
    runs = [intervals[i * size : (i + 1) * size if i < count - 1 else None] for i in range(count)]
    return statistics.median(statistics.quantiles(run, n=10)[8] for run in runs), count


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(workload, seed: int, points: int, trace: bool) -> Outcome:
    """Measure one workload on a grid of ``points`` replicates."""
    from repro.scenarios import run_scenarios

    base = OUT / workload.name
    base.mkdir(parents=True, exist_ok=True)
    specs = workload.sweep(seed, points).expand()
    fingerprints = [spec.fingerprint() for spec in specs]
    outcome = Outcome(workload=workload.name, seed=seed, points=len(specs))
    cpus = benchmark_cpus(workload.workers)
    shutil.rmtree(base / "warmup", ignore_errors=True)
    run_scenarios(
        [workload.warmup_spec(seed)],
        workers=workload.workers,
        stream_to=base / "warmup",
        compress=True,
        executor=workload.executor,
    )
    try:
        if trace:
            _per_layer(workload, specs, fingerprints, base, outcome)
        else:
            with ReferenceCore(cpus, base) as core:
                _end_to_end(workload, specs, fingerprints, base, outcome, core)
    except Exception as error:
        # A point that raises aborts the sweep, so no point is known good.
        traceback.print_exc()
        outcome.failed.update(range(len(specs)))
        outcome.checks.append(f"the sweep raised {error!r}")
    return outcome


def _end_to_end(workload, specs, fingerprints, base: Path, outcome: Outcome, core) -> None:
    """Untraced sweep, read phase, checks, then set-up in fresh interpreters.

    Timings are CPU time in seconds of the reference core (see
    :mod:`calibrate`): on a shared VM, stolen CPU, fsync latency and host
    speed swings move wall time and raw CPU time by tens of percent between
    runs.  Raw CPU and wall figures are printed beside them.
    """
    directory = base / "sweep"
    result, spent, stamps = _sweep(workload, specs, directory)
    coordinator_rss = _max_rss_mb(resource.RUSAGE_SELF)
    worker_rss = _max_rss_mb(resource.RUSAGE_CHILDREN)
    # The fleet's sweep used every vCPU; what follows runs on one, and is
    # scaled by that vCPU's calibration only.
    single = benchmark_cpus(1)
    reads = [
        _read(workload, specs, fingerprints, directory, outcome)
        for _ in range(max(MIN_READS, -(-READ_POINTS // len(specs))))
    ]
    _check(workload, specs, fingerprints, directory, outcome)
    setup = _setup(workload, outcome.seed, len(specs))

    sweep_ref = spent.ref(core)
    ref_ms = [1e3 * (b[1] - a[1]) * sweep_ref / spent.cpu for a, b in zip(stamps, stamps[1:])]
    wall_ms = [1e3 * (b[0] - a[0]) for a, b in zip(stamps, stamps[1:])]
    done = result.executed
    outcome.put("points_per_ref_s", done / sweep_ref, "1/s", f"{done} points")
    outcome.put("point_ref_ms_p50", statistics.median(ref_ms), "ms", f"{len(ref_ms)} intervals")
    p90, segments = _p90(ref_ms)
    outcome.put("point_ref_ms_p90", p90, "ms", f"median over {segments} runs of >= {SEGMENT} intervals")
    outcome.put(
        "report_points_per_ref_s",
        len(specs) * len(reads) / sum(read.ref(core, single) for read in reads),
        "1/s",
        f"{len(reads)} reads of {len(specs)} points",
    )
    setup_ref = statistics.median(probe.ref(core, single) for probe in setup)
    outcome.put("setup_s", setup_ref, "s", f"median of {len(setup)} interpreters")
    outcome.put("peak_rss_mb", coordinator_rss, "MB", "coordinator")
    if workload.workers > 1:
        outcome.samples["worker_peak_rss_mb"] = f"{worker_rss:.1f} MB (largest worker)"
    outcome.samples["cpu.points_per_s"] = f"{done / spent.cpu:.4f} 1/s"
    outcome.samples["wall.points_per_s"] = f"{done / spent.wall:.4f} 1/s"
    outcome.samples["wall.point_ms_p50"] = f"{statistics.median(wall_ms):.4f} ms"
    outcome.samples["wall.point_ms_p90"] = f"{_p90(wall_ms)[0]:.4f} ms"
    outcome.samples["wall.setup_s"] = f"{statistics.median(probe.wall for probe in setup):.4f} s"


def _per_layer(workload, specs, fingerprints, base: Path, outcome: Outcome) -> None:
    """Untraced then traced sweep of the same grid; per-layer metrics of the latter."""
    _, untraced, _ = _sweep(workload, specs, base / "untraced")
    directory = base / "sweep"
    tracer = Tracer()
    tracer.install()
    try:
        result, traced, stamps = _sweep(workload, specs, directory)
        tracer.phase = "read"
        read = _read(workload, specs, fingerprints, directory, outcome)
    finally:
        tracer.uninstall()
    cache = _check(workload, specs, fingerprints, directory, outcome)
    tracer.write(base / f"spans-seed{outcome.seed}.jsonl.gz")
    _layer_metrics(outcome, tracer, cache, len(specs), result, traced.wall + read.wall, stamps[0][0])
    worker_rss = _max_rss_mb(resource.RUSAGE_CHILDREN) if workload.workers > 1 else 0.0
    outcome.put("fleet.worker_peak_rss_mb", worker_rss, "MB")
    outcome.put(
        "trace.overhead_frac", traced.cpu / untraced.cpu - 1.0, "ratio", "CPU, traced vs untraced sweep"
    )
    outcome.put("trace.spans", float(len(tracer.spans)), "count")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(outcome, tracer, cache, points, result, traced_s, first_result_s) -> None:
    """Per-function counts and self-time fractions, layer shares and ratios.

    Self time is reported as a fraction of the traced run's wall time
    (sweep plus read phase); the seconds themselves are printed beside it.
    """
    total = tracer.summary()
    sweep = tracer.summary("sweep")
    renamed = {"fleet.Popen": "fleet.spawns", "scenarios.retry_delay": "scenarios.retries"}
    for name, row in total.items():
        outcome.put(renamed.get(name, f"{name}.calls"), float(row["calls"]), "count")
        outcome.put(
            f"{name}.self_frac", row["self_s"] / traced_s, "ratio", f"{row['self_s']:.6f} s self time"
        )
    for layer in LAYERS:
        busy = sum(row["self_s"] for name, row in total.items() if name.startswith(layer + "."))
        outcome.put(f"{layer}.share", busy / traced_s, "ratio")

    def calls(name):
        return sweep[name]["calls"]

    snapshots = calls("perf.snapshot")
    deletions = calls("core.handle_deletion")
    solves = calls("spectral.fiedler_vector")
    scans = calls("spectral.edge_expansion_of_cut") + calls("spectral.cheeger_constant_of_cut")
    outcome.put("spectral.eigensolves_per_snapshot", _ratio(solves, snapshots), "1/snapshot")
    outcome.put("spectral.cut_scans_per_snapshot", _ratio(scans, snapshots), "1/snapshot")
    outcome.put("perf.cache.hit_ratio", _ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    outcome.put("core.edge_changes_per_deletion", _ratio(tracer.edge_changes, deletions), "1/deletion")
    builds = calls("expanders.expander_or_clique")
    outcome.put("expanders.builds_per_deletion", _ratio(builds, deletions), "1/deletion")
    outcome.put("core.materializations_per_point", calls("core.to_networkx") / points, "1/point")
    outcome.put("scenarios.validations_per_point", calls("scenarios.validate") / points, "1/point")
    outcome.put("scenarios.quarantined", float(result.failed), "count")
    outcome.put("stream.fsyncs_per_point", calls("stream.fsync") / points, "1/point")
    written = sum(path.stat().st_size for path in result.paths)
    outcome.put("stream.bytes_per_point", written / points, "B/point")
    outcome.put("fleet.first_result_s", first_result_s, "s", "sweep start to first completion")
