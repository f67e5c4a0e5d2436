"""Equivalence suite pinning the data-oriented core to the pre-rewrite code.

``tests/golden/reference_summaries.json`` holds ``summary_row()`` outputs for
24 scenarios, generated with the original pure-NetworkX simulation core (see
``scripts/regen_reference_golden.py``).  Re-running the same specs through
the current struct-of-arrays core must reproduce every row byte for byte —
node iteration order, metric floats, verdicts, everything.

Each golden run is also saved as an artifact and replayed: the replay goes
through the same event loop as the live run, so it must reproduce the row too.

A further layer cross-checks the *internal* fast paths against their reference
implementations on live runs: the incremental degree-ratio tracker vs the
full per-node scan, and the materialized ``nx.Graph`` vs the store.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.trackers import DegreeRatioTracker
from repro.core.ghost import GhostGraph
from repro.core.xheal import Xheal
from repro.harness.experiment import run_experiment
from repro.scenarios.artifacts import replay_artifact, save_run
from repro.scenarios.runner import RunRecord
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.registry import ADVERSARIES

GOLDEN = Path(__file__).parent / "golden" / "reference_summaries.json"


def _golden_entries():
    return json.loads(GOLDEN.read_text())


def _golden_id(entry):
    spec = entry["spec"]
    return (
        f"{spec['healer']}@{spec.get('topology')}"
        f"/{spec.get('adversary')}-s{spec.get('seed', 0)}"
    )


@pytest.mark.parametrize("entry", _golden_entries(), ids=_golden_id)
def test_summary_rows_match_pre_rewrite_reference(entry):
    spec = ScenarioSpec.from_dict(entry["spec"])
    result = run_experiment(spec.validate().compile())
    assert result.summary_row() == entry["summary"]


@pytest.mark.parametrize("entry", _golden_entries(), ids=_golden_id)
def test_artifact_replays_reproduce_reference(entry, tmp_path):
    """Each golden run, saved and replayed from its artifact, reproduces its row."""
    spec = ScenarioSpec.from_dict(entry["spec"]).validate()
    record = RunRecord.from_result(spec, run_experiment(spec.compile()))
    report = replay_artifact(save_run(record, tmp_path / "run.jsonl"))
    assert report.identical, report.differences()
    assert report.replayed_summary == entry["summary"]


def test_incremental_tracker_matches_reference_scan():
    """The vectorized tracker and the Python reference scan agree event by event."""
    spec = ScenarioSpec(
        healer="xheal",
        topology="random-regular",
        topology_kwargs={"n": 24, "degree": 4},
        adversary="churn",
        timesteps=60,
        seed=13,
    )
    config = spec.validate().compile()
    healer = config.healer_factory()
    healer.initialize(config.initial_graph)
    ghost = GhostGraph(config.initial_graph)
    adversary = config.adversary_factory()
    adversary.bind(config.initial_graph)

    fast = DegreeRatioTracker(kappa=config.kappa)
    reference = DegreeRatioTracker(kappa=config.kappa)
    fast.attach_store(healer.graph_store, ghost)

    for timestep in range(1, config.timesteps + 1):
        event = adversary.next_event(healer.graph_store, timestep)
        if event is None:
            break
        if event.is_insertion:
            ghost.record_insertion(event.node, event.neighbors)
            healer.handle_insertion(event.node, event.neighbors)
            fast.record_insertion(event.node, event.neighbors)
        else:
            ghost.record_deletion(event.node)
            healer.handle_deletion(event.node)
        worst_fast = fast.observe_store()
        worst_reference = reference.observe(healer.graph, ghost)
        assert worst_fast == worst_reference
        assert fast.max_ratio_seen == reference.max_ratio_seen
        assert fast.worst_node == reference.worst_node
        assert fast.max_additive_violation == reference.max_additive_violation
        assert fast.bound_respected == reference.bound_respected


def test_materialized_graph_matches_store_after_churn():
    """The lazy nx materializer mirrors the store's nodes, edges and attrs."""
    spec = ScenarioSpec(
        healer="xheal",
        topology="erdos-renyi",
        topology_kwargs={"n": 20, "average_degree": 4.0},
        adversary="random",
        timesteps=40,
        seed=3,
    )
    config = spec.validate().compile()
    healer = config.healer_factory()
    healer.initialize(config.initial_graph)
    adversary = config.adversary_factory()
    adversary.bind(config.initial_graph)

    for timestep in range(1, config.timesteps + 1):
        event = adversary.next_event(healer.graph_store, timestep)
        if event is None:
            break
        if event.is_insertion:
            healer.handle_insertion(event.node, event.neighbors)
        else:
            healer.handle_deletion(event.node)

    store = healer.graph_store
    graph = healer.graph
    assert graph is healer.graph  # cached while the version is unchanged
    assert list(graph.nodes()) == list(store.nodes())
    assert graph.number_of_edges() == store.number_of_edges()
    for u, v, data in graph.edges(data=True):
        assert store.has_edge(u, v)
        assert data["color"] == store.color(u, v)
        assert data["was_black"] is store.was_black(u, v)
        assert data["owners"] == store.owners_of_slot(store.edge_slot(u, v))
    for node in store.nodes():
        assert graph.degree(node) == store.degree(node)


def test_store_speaks_the_adversary_graph_dialect():
    """Every registered adversary can drive the store directly (no nx view)."""
    import networkx as nx

    initial = nx.random_regular_graph(4, 16, seed=2)
    for name in sorted(ADVERSARIES.names()):
        if name in ("chaos-flaky", "scripted", "trace-replay"):
            continue  # these require constructor arguments beyond a seed
        healer = Xheal(kappa=4, seed=1)
        healer.initialize(initial)
        adversary = ADVERSARIES.get(name)(seed=5)
        adversary.bind(initial)
        for timestep in range(1, 13):
            batch = adversary.next_events(healer.graph_store, timestep)
            if not batch:
                break
            for event in batch:
                if event.is_insertion:
                    healer.handle_insertion(event.node, event.neighbors)
                else:
                    healer.handle_deletion(event.node)
        healer.check_invariants()
