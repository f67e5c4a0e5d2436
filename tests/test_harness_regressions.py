"""Regression tests for harness accounting bugs fixed alongside the fast core.

Three distinct bugs are pinned here:

* ``run_experiment`` used to pass ``rounds=0`` to the cost ledger instead of
  the repair report's round estimate, so live runs reported zero repair
  rounds while trace replays of the very same events reported the true ones.
* ``run_healer_on_trace`` counted an insertion as executed before discovering
  that none of its anchor neighbours survived, inflating the summary row's
  step counters relative to the work actually replayed.
* ``snapshot_every`` cadence/skip semantics on both entry points.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.adversary.base import AdversaryEvent, EventType
from repro.core.xheal import Xheal
from repro.harness.experiment import run_experiment, run_healer_on_trace
from repro.scenarios.artifacts import replay_artifact, save_run
from repro.scenarios.runner import RunRecord
from repro.scenarios.spec import ScenarioSpec


def _deletion_heavy_spec(**overrides) -> ScenarioSpec:
    base = dict(
        healer="xheal",
        topology="random-regular",
        topology_kwargs={"n": 24, "degree": 4},
        adversary="random",
        adversary_kwargs={"delete_probability": 0.9},
        timesteps=25,
        seed=21,
        exact_expansion_limit=0,
        stretch_sample_pairs=10,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRepairRoundAccounting:
    def test_live_run_records_nonzero_repair_rounds(self):
        result = run_experiment(_deletion_heavy_spec().validate().compile())
        assert result.deletions > 0
        # Xheal's cost model charges O(log n) rounds per repaired deletion;
        # before the fix the ledger saw rounds=0 for every live deletion.
        assert result.cost_summary.max_rounds > 0
        assert result.cost_summary.mean_rounds > 0

    def test_live_and_replayed_cost_summaries_agree_on_rounds(self):
        spec = _deletion_heavy_spec()
        config = spec.validate().compile()
        live = run_experiment(config)
        replayed = run_healer_on_trace(
            Xheal(**spec.component_kwargs("healer")),
            spec.build_initial_graph(),
            live.trace,
            kappa=spec.kappa,
            exact_expansion_limit=spec.exact_expansion_limit,
            stretch_sample_pairs=spec.stretch_sample_pairs,
            seed=spec.seed,
        )
        assert live.cost_summary.max_rounds == replayed.cost_summary.max_rounds
        assert live.cost_summary.mean_rounds == replayed.cost_summary.mean_rounds
        assert live.cost_summary.total_messages == replayed.cost_summary.total_messages


class TestTraceReplaySkipCounting:
    def test_unapplicable_insertion_is_not_counted(self):
        initial = nx.path_graph(4)  # nodes 0..3
        trace = [
            AdversaryEvent(EventType.INSERT, 10, (99,)),  # anchor never existed
            AdversaryEvent(EventType.INSERT, 11, (0, 1)),
        ]
        result = run_healer_on_trace(
            Xheal(kappa=2, seed=0),
            initial,
            trace,
            kappa=2,
            exact_expansion_limit=0,
            stretch_sample_pairs=None,
        )
        assert result.timesteps_executed == 1
        assert result.insertions == 1
        assert not result.final_graph.has_node(10)
        assert result.final_graph.has_node(11)
        # A replay runs through run_experiment's loop: its trace lists only
        # the applied events, with event_steps parallel to it.
        assert result.trace == [trace[1]]
        assert result.event_steps == [1]

    def test_artifact_replay_of_undegraded_run_is_byte_identical(self, tmp_path):
        spec = _deletion_heavy_spec(timesteps=15)
        record = RunRecord.from_result(
            spec, run_experiment(spec.validate().compile())
        )
        path = save_run(record, tmp_path / "run.jsonl")
        report = replay_artifact(path)
        assert report.identical, report.differences()


class TestSnapshotEvery:
    def test_snapshot_every_zero_skips_final_snapshots(self):
        spec = _deletion_heavy_spec(snapshot_every=0)
        result = run_experiment(spec.validate().compile())
        assert result.final_metrics is None
        assert result.ghost_metrics is None
        assert result.final_verdict is None
        row = result.summary_row()
        for column in ("h(Gt)", "h(G't)", "lambda(Gt)", "lambda(G't)", "theorem2_holds"):
            assert row[column] is None
        # Counter columns stay exact even without snapshots.
        assert row["steps"] == result.timesteps_executed > 0
        assert row["nodes"] == result.final_graph.number_of_nodes()
        assert row["edges"] == result.final_graph.number_of_edges()
        assert row["max_degree_ratio"] > 0

    def test_snapshot_every_zero_replay_matches_live_row(self, tmp_path):
        spec = _deletion_heavy_spec(timesteps=15, snapshot_every=0)
        record = RunRecord.from_result(
            spec, run_experiment(spec.validate().compile())
        )
        report = replay_artifact(save_run(record, tmp_path / "run.jsonl"))
        assert report.identical, report.differences()

    def test_snapshot_cadence_records_timeline_entries(self):
        spec = _deletion_heavy_spec(timesteps=20, snapshot_every=5)
        result = run_experiment(spec.validate().compile())
        recorded = [entry.timestep for entry in result.timeline.entries]
        assert recorded  # at least the cadence points that were reached
        assert all(timestep % 5 == 0 for timestep in recorded)
        assert result.final_metrics is not None  # cadence N>=1 keeps the final trio

    def test_default_none_keeps_legacy_behavior(self):
        spec = _deletion_heavy_spec(timesteps=10)
        result = run_experiment(spec.validate().compile())
        assert result.final_metrics is not None
        assert result.final_verdict is not None
        assert spec.to_dict().get("snapshot_every", "absent") == "absent"

    def test_validate_rejects_negative_snapshot_every(self):
        spec = _deletion_heavy_spec(snapshot_every=-1)
        with pytest.raises(Exception):
            spec.validate()
