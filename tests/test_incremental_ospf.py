"""OspfIncremental: surgical graph/advertisement maintenance."""

import pytest

from repro.api import ChangeSet, Network
from repro.config.routing import OspfInterfaceSettings
from repro.controlplane.incremental import OspfDirty, OspfIncremental
from repro.controlplane.ospf import build_ospf_state, ospf_routes_for_source
from repro.controlplane.simulation import simulate
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import (
    Change,
    DisableOspfInterface,
    EnableInterface,
    EnableOspfInterface,
    LinkDown,
    LinkUp,
    SetOspfCost,
    ShutdownInterface,
)
from repro.core.stages.igp import NON_BGP
from repro.workloads.scenarios import fat_tree_ospf, ring_ospf


def fresh_state():
    scenario = ring_ospf(5)
    state = simulate(scenario.snapshot)
    return scenario, state, OspfIncremental(state)


class TestOspfDirty:
    def test_merge(self):
        a = OspfDirty(sources={("r0", 0)}, prefixes={0: {None}})
        b = OspfDirty(sources={("r1", 0)}, prefixes={1: {None}})
        a.merge(b)
        assert a.sources == {("r0", 0), ("r1", 0)}
        assert set(a.prefixes) == {0, 1}

    def test_is_empty(self):
        assert OspfDirty().is_empty()
        assert not OspfDirty(sources={("r0", 0)}).is_empty()


class TestRefreshPair:
    def test_link_down_removes_edges(self):
        scenario, state, incremental = fresh_state()
        LinkDown("r0", "r1").apply(state.snapshot)
        dirty = incremental.refresh_pair("r0", "r1")
        graph = state.ospf_state.graphs[0]
        assert graph.cost("r0", "r1") == float("inf")
        assert graph.cost("r1", "r0") == float("inf")
        affected = {router for router, _ in dirty.sources}
        assert affected  # every ring source used that edge somewhere

    def test_noop_refresh_reports_nothing(self):
        _scenario, _state, incremental = fresh_state()
        dirty = incremental.refresh_pair("r0", "r1")
        assert dirty.is_empty()

    def test_cost_change_updates_edge(self):
        scenario, state, incremental = fresh_state()
        link = state.snapshot.topology.find_link("r0", "r1")
        local_if = link.endpoint_on("r0")[1]
        SetOspfCost("r0", local_if, 42).apply(state.snapshot)
        dirty = incremental.refresh_pair("r0", "r1")
        graph = state.ospf_state.graphs[0]
        assert graph.cost("r0", "r1") == 42
        assert graph.cost("r1", "r0") == 10  # asymmetric: peer unchanged
        assert not dirty.is_empty()

    def test_ospf_disable_removes_direction(self):
        scenario, state, incremental = fresh_state()
        link = state.snapshot.topology.find_link("r0", "r1")
        local_if = link.endpoint_on("r0")[1]
        DisableOspfInterface("r0", local_if).apply(state.snapshot)
        incremental.refresh_pair("r0", "r1")
        graph = state.ospf_state.graphs[0]
        # Adjacency needs both sides: both directions collapse.
        assert graph.cost("r0", "r1") == float("inf")
        assert graph.cost("r1", "r0") == float("inf")


class TestRefreshAdverts:
    def test_link_down_drops_p2p_subnet(self):
        scenario, state, incremental = fresh_state()
        link = state.snapshot.topology.find_link("r0", "r1")
        local_if = link.endpoint_on("r0")[1]
        subnet = state.snapshot.topology.router("r0").interface(local_if).subnet
        LinkDown("r0", "r1").apply(state.snapshot)
        dirty = incremental.refresh_router_adverts("r0")
        assert subnet in dirty.prefixes[0]
        assert subnet not in state.ospf_state.advertised[0]["r0"]

    def test_unchanged_router_reports_nothing(self):
        _scenario, _state, incremental = fresh_state()
        dirty = incremental.refresh_router_adverts("r2")
        assert dirty.is_empty()

    def test_cost_change_updates_advert_cost(self):
        scenario, state, incremental = fresh_state()
        SetOspfCost("r0", "host0", 9).apply(state.snapshot)
        dirty = incremental.refresh_router_adverts("r0")
        host = scenario.fabric.host_subnets["r0"][0]
        assert host in dirty.prefixes[0]
        assert state.ospf_state.advertised[0]["r0"][host] == 9

    def test_membership_dropped_when_ospf_gone(self):
        scenario, state, incremental = fresh_state()
        config = state.snapshot.configs["r0"]
        for settings in config.ospf.interfaces.values():
            settings.enabled = False
        incremental.refresh_router_adverts("r0")
        assert "r0" not in state.ospf_state.membership


def assert_matches_fresh_build(ospf, snapshot) -> None:
    """Structure equals a from-scratch build, with one SPF instance
    per (member, area) and none besides."""
    from tests.test_what_if import _ospf_structure

    assert _ospf_structure(ospf) == _ospf_structure(build_ospf_state(snapshot))
    assert set(ospf.spf) == {
        (router, area)
        for router, areas in ospf.membership.items()
        for area in areas
    }


class TestAreaLeave:
    """A router leaving an area leaves no SPF instance, graph node or
    empty area graph behind."""

    def test_area_round_trip_matches_a_fresh_build(self):
        scenario = ring_ospf(6)
        analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
        _router, interface = scenario.topology.find_link("r0", "r1").endpoint_on(
            "r0"
        )
        for area in (1, 0):
            analyzer.analyze(Change.of(DisableOspfInterface("r0", interface)))
            analyzer.analyze(
                Change.of(EnableOspfInterface("r0", interface, area=area))
            )
        ospf = analyzer.state.ospf_state
        assert ospf.areas() == [0]
        assert_matches_fresh_build(ospf, analyzer.snapshot)

    @pytest.mark.parametrize("pair_first", [False, True])
    def test_leaving_does_not_depend_on_call_order(self, pair_first):
        snapshot = ring_ospf(5).snapshot
        link = snapshot.topology.find_link("r0", "r1")
        for router, interface in (link.side_a, link.side_b):
            snapshot.config(router).ospf.interfaces[interface].area = 1
        state = simulate(snapshot)
        incremental = OspfIncremental(state)
        assert state.ospf_state.areas() == [0, 1]
        for router, interface in (link.side_a, link.side_b):
            snapshot.config(router).ospf.interfaces[interface].enabled = False
            calls = [
                lambda: incremental.refresh_router_adverts(router),
                lambda: incremental.refresh_pair("r0", "r1"),
            ]
            for call in calls[::-1] if pair_first else calls:
                call()
            assert_matches_fresh_build(state.ospf_state, snapshot)
        assert state.ospf_state.areas() == [0]


class TestScopedDirty:
    def test_moved_nodes_union(self):
        a = OspfDirty()
        a.add_moved(("r0", 0), {"r1"})
        b = OspfDirty()
        b.add_moved(("r0", 0), {"r2"})
        a.merge(b)
        assert a.moved == {("r0", 0): {"r1", "r2"}}

    def test_full_refresh_wins_either_order(self):
        scoped = OspfDirty()
        scoped.add_moved(("r0", 0), {"r1"})
        full = OspfDirty()
        full.add_full(("r0", 0))
        for left, right in ((scoped, full), (full, scoped)):
            merged = OspfDirty()
            merged.merge(left)
            merged.merge(right)
            assert merged.sources == {("r0", 0)}
            assert ("r0", 0) not in merged.moved

    def test_link_down_records_moved_nodes(self):
        _scenario, state, incremental = fresh_state()
        LinkDown("r0", "r1").apply(state.snapshot)
        dirty = incremental.refresh_pair("r0", "r1")
        assert dirty.sources and set(dirty.moved) == dirty.sources
        # r0 now reaches r1 the long way round: r1 moved in r0's tree.
        assert "r1" in dirty.moved[("r0", 0)]

    def test_parallel_link_attachment_change_refreshes_in_full(self):
        snapshot = parallel_ring()
        state = simulate(snapshot)
        LinkDown("r0", "r1", "eth9", "eth9").apply(snapshot)
        dirty = OspfIncremental(state).refresh_pair("r0", "r1")
        assert {("r0", 0), ("r1", 0)} <= dirty.sources
        assert ("r0", 0) not in dirty.moved
        assert ("r1", 0) not in dirty.moved


def parallel_ring():
    """``ring_ospf(4)`` plus a second r0–r1 link at the same OSPF cost:
    taking either one down keeps the cost and changes the attachments."""
    snapshot = ring_ospf(4).snapshot
    topology = snapshot.topology
    topology.add_interface("r0", "eth9", "10.99.0.1", 30)
    topology.add_interface("r1", "eth9", "10.99.0.2", 30)
    topology.add_link("r0", "eth9", "r1", "eth9")
    for router in ("r0", "r1"):
        snapshot.config(router).ospf.interfaces["eth9"] = OspfInterfaceSettings(
            area=0, cost=10
        )
    return snapshot


def assert_igp_matches_full_recompute(analyzer):
    """Scoped OSPF routes and the per-prefix IGP adapter equal a full
    re-derivation from the current SPF state and RIBs."""
    state = analyzer.state
    for source in analyzer.snapshot.topology.router_names():
        assert state.ospf_routes.get(source, {}) == ospf_routes_for_source(
            state.ospf_state, source
        ), source
    for router, rib in state.ribs.items():
        rebuilt = {}
        for prefix in rib.prefixes():
            best = rib.best_excluding(prefix, NON_BGP)
            if best is not None:
                rebuilt[prefix] = best
        assert state.igp.routes(router) == rebuilt, router


def igp_edit_sequence(snapshot, link):
    """Fail/restore edits over one link that reach every SPF update
    path: removal, re-addition (``edge_decreased``), interface
    shutdown, a cost raise, and a lower back into the ECMP tie."""
    (r1, if1), (r2, _if2) = link.side_a, link.side_b
    cost = snapshot.config(r1).ospf.interfaces[if1].cost
    return [
        LinkDown(r1, r2),
        LinkUp(r1, r2),
        ShutdownInterface(r1, if1),
        EnableInterface(r1, if1),
        SetOspfCost(r1, if1, cost * 3),
        SetOspfCost(r1, if1, cost),
    ]


def igp_view(analyzer):
    routers = analyzer.snapshot.topology.router_names()
    return {router: analyzer.state.igp.routes(router) for router in routers}


def drive(analyzer, edits, forked):
    """Analyze ``edits`` one at a time (committed, or inside one fork),
    checking the IGP state after each; a fork must restore the
    adapter exactly."""
    if not forked:
        for edit in edits:
            analyzer.analyze(Change.of(edit))
            assert_igp_matches_full_recompute(analyzer)
        return
    before = igp_view(analyzer)
    with analyzer.fork():
        for edit in edits:
            analyzer.analyze(Change.of(edit))
            assert_igp_matches_full_recompute(analyzer)
    assert igp_view(analyzer) == before


class TestScopedIgpEquivalence:
    @pytest.mark.parametrize("forked", [False, True], ids=["commit", "fork"])
    def test_every_fat_tree_link(self, forked):
        analyzer = DifferentialNetworkAnalyzer(fat_tree_ospf(4).snapshot)
        for link in list(analyzer.snapshot.topology.links()):
            drive(analyzer, igp_edit_sequence(analyzer.snapshot, link), forked)

    @pytest.mark.parametrize("forked", [False, True], ids=["commit", "fork"])
    def test_parallel_link(self, forked):
        analyzer = DifferentialNetworkAnalyzer(parallel_ring())
        edits = [
            LinkDown("r0", "r1", "eth9", "eth9"),
            LinkUp("r0", "r1", "eth9", "eth9"),
            LinkDown("r0", "r1", "eth1", "eth0"),
        ]
        drive(analyzer, edits, forked)

    def test_router_joining_ospf(self):
        # r0 starts with OSPF off everywhere, so it has no SPF tree for
        # the edge updates to dirty; joining must still derive its routes.
        snapshot = ring_ospf(4).snapshot
        settings = snapshot.config("r0").ospf.interfaces
        for interface in settings.values():
            interface.enabled = False
        analyzer = DifferentialNetworkAnalyzer(snapshot)
        edits = [
            EnableOspfInterface("r0", name, cost=s.cost, passive=s.passive)
            for name, s in sorted(settings.items())
        ]
        analyzer.analyze(Change.of(*edits))
        assert_igp_matches_full_recompute(analyzer)
        assert analyzer.state.ospf_routes["r0"] == (
            simulate(analyzer.snapshot).ospf_routes["r0"]
        )

    def test_link_failure_rederives_a_fraction_of_routes(self):
        network = Network.generate("fat_tree", size=4, trace=True)
        state = network.analyzer.state
        full = sum(
            len(ospf_routes_for_source(state.ospf_state, source))
            for source in network.analyzer.snapshot.topology.router_names()
        )
        network.preview(ChangeSet().link_down("edge0_0", "agg0_0"))
        igp = network.tracer.find("pipeline.igp")
        assert 0 < igp.labels["routes_rederived"] <= full / 4
        assert igp.labels["igp_routes_written"] > 0
