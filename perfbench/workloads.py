"""The benchmark's three sweep workloads and the specs they generate.

Every workload uses the Xheal healer, the random churn adversary
(``delete_probability=0.6``) and a random-regular initial topology, and
expands into ``points`` independently seeded replicates of one base point.
The run seed is the base spec's seed; the program only ever sees the
expanded specs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Points below which ``point_ms_p90`` would have fewer than ten intervals
#: beyond it (101 points give 100 completion intervals).
MIN_POINTS = 101


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    degree: int
    timesteps: int
    #: ``None`` keeps the default final Theorem-2 snapshot trio; ``0`` skips it.
    snapshot_every: int | None
    executor: str
    workers: int
    #: Grid points per second of ``--seconds``.  The grid depends only on
    #: the seed and ``--seconds``, never on the machine; on a 2-vCPU VM one
    #: run then sweeps for about ``--seconds`` (twice that for
    #: ``snapshot-sweepcut``, whose point cost swings most with host load).
    points_per_second: float

    def points(self, seconds: float) -> int:
        """Return the grid size for a run of ``seconds``."""
        return max(MIN_POINTS, round(seconds * self.points_per_second))

    def sweep(self, seed: int, points: int):
        """Return the :class:`repro.scenarios.SweepSpec` of ``points`` replicates."""
        from repro.scenarios import SweepSpec

        return SweepSpec(base=self._base(seed), name=self.name, replicates=points)

    def warmup_spec(self, seed: int):
        """Return one spec whose seed lies outside every measured replicate's."""
        from repro.util.rng import derive_seed

        return self._base(derive_seed(seed, "perfbench-warmup")).with_overrides(
            name=f"{self.name}-warmup"
        )

    def _base(self, seed: int):
        from repro.scenarios import ScenarioSpec

        return ScenarioSpec(
            healer="xheal",
            adversary="random",
            adversary_kwargs={"delete_probability": 0.6},
            topology="random-regular",
            topology_kwargs={"n": self.n, "degree": self.degree},
            timesteps=self.timesteps,
            snapshot_every=self.snapshot_every,
            seed=seed,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Healed and ghost graphs (40-56 nodes) sit above the exact-cut limit
        # of 22, so every final snapshot takes the Fiedler sweep-cut path.
        Workload(
            name="snapshot-sweepcut",
            why="final Theorem-2 snapshots above the exact-cut limit: Fiedler "
            "sweep cuts and eigensolves dominate",
            n=48,
            degree=6,
            timesteps=20,
            snapshot_every=None,
            executor="serial",
            workers=1,
            points_per_second=18.0,
        ),
        # Long churn with no snapshot kernels: Xheal repairs dominate.
        Workload(
            name="churn-heal",
            why="250 churn steps per point without snapshots: Xheal repairs, "
            "expander builds and the degree tracker dominate",
            n=64,
            degree=8,
            timesteps=250,
            snapshot_every=0,
            executor="serial",
            workers=1,
            points_per_second=5.5,
        ),
        # A point simulates in a few ms, so spec handling, streaming and the
        # executor's spawn, lease and pipe costs dominate; workers write
        # their own shard indices.
        Workload(
            name="fleet-stream",
            why="tiny gzip-streamed points through subprocess-fleet with 2 workers: "
            "spec, stream, spawn, lease and pipe costs dominate",
            n=16,
            degree=4,
            timesteps=5,
            snapshot_every=0,
            executor="subprocess-fleet",
            workers=2,
            points_per_second=180.0,
        ),
    )
}
