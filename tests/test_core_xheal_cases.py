"""Behavioural tests for the three cases of the Xheal algorithm."""

import networkx as nx
import pytest

from repro.core.clouds import CloudKind
from repro.core.colors import BLACK
from repro.core.events import RepairAction
from repro.core.xheal import Xheal, XhealConfig
from repro.util.validation import ValidationError


def make(graph, kappa=4, seed=0):
    healer = Xheal(kappa=kappa, seed=seed)
    healer.initialize(graph)
    return healer


def test_config_validation():
    with pytest.raises(ValidationError):
        XhealConfig(kappa=1)
    assert XhealConfig().kappa == 4


def test_constructor_kappa_shortcut():
    assert Xheal(kappa=6).kappa == 6
    assert Xheal(config=XhealConfig(kappa=8)).kappa == 8


def test_case1_builds_primary_cloud_over_neighbors():
    healer = make(nx.star_graph(7))  # centre 0, leaves 1..7
    report = healer.handle_deletion(0)
    assert report.action is RepairAction.CASE_1_NEW_PRIMARY
    assert len(report.clouds_created) == 1
    clouds = healer.registry.clouds(CloudKind.PRIMARY)
    assert len(clouds) == 1
    assert clouds[0].members == set(range(1, 8))
    assert nx.is_connected(healer.graph)
    healer.check_invariants()


def test_case1_small_neighborhood_gives_clique():
    healer = make(nx.star_graph(3), kappa=4)  # 3 leaves <= kappa+1
    healer.handle_deletion(0)
    # The cloud over 3 nodes is a triangle.
    assert healer.graph.number_of_edges() == 3
    assert nx.is_connected(healer.graph)


def test_case1_degree_one_node_just_dropped():
    graph = nx.path_graph(3)  # 0-1-2; node 0 has degree 1
    healer = make(graph)
    report = healer.handle_deletion(0)
    assert report.clouds_created == []
    assert report.edges_added == []
    assert nx.is_connected(healer.graph)


def test_case1_cloud_edges_colored_not_black():
    healer = make(nx.star_graph(6))
    healer.handle_deletion(0)
    cloud = healer.registry.clouds(CloudKind.PRIMARY)[0]
    for u, v in cloud.edges:
        assert not healer.graph.edges[u, v]["color"].is_black


def test_case1_existing_black_edge_recolored_not_duplicated():
    graph = nx.star_graph(5)
    graph.add_edge(1, 2)  # leaves 1 and 2 already adjacent
    healer = make(graph)
    report = healer.handle_deletion(0)
    assert (1, 2) in report.edges_recolored or not healer.graph.edges[1, 2]["color"].is_black
    # Still a simple graph with a single (1,2) edge.
    assert healer.graph.number_of_edges() == len(set(healer.graph.edges()))


def test_case21_secondary_cloud_connects_affected_primaries():
    # Two deletions whose neighbourhoods overlap: the second deletion hits a
    # node that belongs to the first primary cloud.
    graph = nx.star_graph(8)
    healer = make(graph)
    healer.handle_deletion(0)  # case 1: primary cloud over 1..8
    member = sorted(healer.registry.clouds(CloudKind.PRIMARY)[0].members)[0]
    report = healer.handle_deletion(member)
    assert report.action in (RepairAction.CASE_2_1_SECONDARY, RepairAction.CASE_2_1_MERGE)
    assert nx.is_connected(healer.graph)
    healer.check_invariants()


def test_case21_black_neighbors_become_singleton_clouds():
    # Build a graph where the deleted node has both a primary-cloud edge and a
    # black edge: star + a pendant attached to the future cloud member.
    graph = nx.star_graph(6)
    graph.add_edge(1, 100)  # black neighbour 100 hangs off node 1
    healer = make(graph)
    healer.handle_deletion(0)  # primary cloud over 1..6
    report = healer.handle_deletion(1)  # node 1 has cloud edges + black edge to 100
    assert nx.is_connected(healer.graph)
    assert 100 in healer.graph
    # 100 must have been pulled into the repair (singleton cloud -> secondary or merge).
    assert healer.graph.degree(100) >= 1
    healer.check_invariants()
    assert report.action in (
        RepairAction.CASE_2_1_SECONDARY,
        RepairAction.CASE_2_1_MERGE,
    )


@pytest.mark.parametrize("seed", range(5))
def test_case22_bridge_deletion_repairs_secondary(seed):
    # Leaf 1 of the star also sits in a triangle with 20 and 21, so after the
    # centre goes (Case 1) node 1 has cloud edges *and* black edges.  Deleting
    # it is Case 2.1 and builds a secondary cloud; deleting a member of that
    # secondary cloud (a bridge node) must take the Case 2.2 repair.
    graph = nx.star_graph(10)
    graph.add_edges_from([(1, 20), (1, 21), (20, 21)])
    healer = make(graph, seed=seed)
    assert healer.handle_deletion(0).action is RepairAction.CASE_1_NEW_PRIMARY
    assert healer.handle_deletion(1).action is RepairAction.CASE_2_1_SECONDARY
    (secondary,) = healer.registry.clouds(CloudKind.SECONDARY)
    report = healer.handle_deletion(sorted(secondary.members)[0])
    assert report.action is RepairAction.CASE_2_2_FIX_SECONDARY
    assert nx.is_connected(healer.graph)
    healer.check_invariants()


def test_connectivity_maintained_under_repeated_hub_deletion():
    graph = nx.barabasi_albert_graph(40, 3, seed=2)
    healer = make(graph, seed=5)
    for _ in range(15):
        hub = max(healer.graph.nodes(), key=lambda node: healer.graph.degree(node))
        healer.handle_deletion(hub)
        assert nx.is_connected(healer.graph)
        healer.check_invariants()


def test_insertion_takes_no_healing_action():
    healer = make(nx.cycle_graph(6))
    report = healer.handle_insertion(50, [0, 3])
    assert report.action is RepairAction.INSERTION
    assert report.edges_added == []  # adversarial edges are not healer additions
    assert healer.graph.edges[50, 0]["color"] is BLACK


def test_isolated_node_deletion_is_noop():
    graph = nx.cycle_graph(5)
    graph.add_node(99)
    healer = make(graph)
    report = healer.handle_deletion(99)
    assert report.clouds_created == []
    assert report.total_edge_changes == 0


def test_cloud_summary_counts():
    healer = make(nx.star_graph(8))
    assert healer.cloud_summary() == {
        "primary_clouds": 0,
        "secondary_clouds": 0,
        "bridge_nodes": 0,
    }
    healer.handle_deletion(0)
    summary = healer.cloud_summary()
    assert summary["primary_clouds"] == 1
    assert summary["secondary_clouds"] == 0


def test_reports_include_cost_estimates():
    healer = make(nx.star_graph(10))
    report = healer.handle_deletion(0)
    assert report.messages > 0
    assert report.rounds >= 1
