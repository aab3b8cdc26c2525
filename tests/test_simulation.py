"""End-to-end full simulation: RIBs, FIBs, IGP adapter."""

from repro.controlplane.simulation import IgpAdapter, simulate
from repro.controlplane.rib import NextHop, Route
from repro.net.addr import IPv4Address, Prefix
from repro.workloads.scenarios import (
    fat_tree_ospf,
    internet2_bgp,
    line_static,
    ring_ospf,
)


class TestStaticChain:
    def test_fibs_forward_along_chain(self):
        scenario = line_static(4)
        state = simulate(scenario.snapshot)
        target = scenario.fabric.host_subnets["r3"][0]
        for index, router in enumerate(("r0", "r1", "r2")):
            entry = state.fibs[router].lookup(target.first + 1)
            assert entry is not None
            assert entry.forwards_to() == {f"r{index + 1}"}

    def test_owner_delivers(self):
        scenario = line_static(4)
        state = simulate(scenario.snapshot)
        target = scenario.fabric.host_subnets["r3"][0]
        entry = state.fibs["r3"].lookup(target.first + 1)
        assert any(nh.neighbor is None for nh in entry.next_hops)


class TestOspfFabrics:
    def test_ring_uses_shortest_direction(self):
        scenario = ring_ospf(6)
        state = simulate(scenario.snapshot)
        target = scenario.fabric.host_subnets["r1"][0]
        entry = state.fibs["r0"].lookup(target.first + 1)
        assert entry.forwards_to() == {"r1"}

    def test_fat_tree_ecmp_in_fib(self):
        scenario = fat_tree_ospf(4)
        state = simulate(scenario.snapshot)
        target = scenario.fabric.host_subnets["edge1_0"][0]
        entry = state.fibs["edge0_0"].lookup(target.first + 1)
        assert len(entry.forwards_to()) == 2  # both aggs

    def test_loopbacks_reachable(self):
        scenario = ring_ospf(4)
        state = simulate(scenario.snapshot)
        r2_loopback = scenario.topology.router("r2").interface("lo0").address
        entry = state.fibs["r0"].lookup(r2_loopback.value)
        assert entry is not None and entry.forwards_to()


class TestBgpIntegration:
    def test_bgp_routes_in_fib_with_resolved_hops(self):
        scenario = internet2_bgp()
        state = simulate(scenario.snapshot)
        prefix = scenario.fabric.host_subnets["cust_chic0"][0]
        entry = state.fibs["SEAT"].lookup(prefix.first + 1)
        assert entry is not None and entry.protocol == "bgp"
        # Hops must be physical (interface + neighbor), not loopbacks.
        for hop in entry.next_hops:
            assert hop.interface and hop.neighbor

    def test_customer_default_path(self):
        scenario = internet2_bgp()
        state = simulate(scenario.snapshot)
        other = scenario.fabric.host_subnets["cust_wash0"][0]
        entry = state.fibs["cust_seat0"].lookup(other.first + 1)
        assert entry is not None
        assert entry.forwards_to() == {"SEAT"}


class TestIgpAdapter:
    def test_cost_and_resolution(self):
        adapter = IgpAdapter()
        prefix = Prefix("10.0.0.0/24")
        route = Route(
            prefix=prefix,
            protocol="ospf",
            admin_distance=110,
            metric=30,
            next_hops=frozenset({NextHop(interface="eth0", neighbor="b")}),
        )
        adapter.set_router_routes("a", {prefix: route})
        address = IPv4Address(prefix.first + 5)
        assert adapter.cost_to("a", address) == 30.0
        assert adapter.covering_route("a", address) is route

    def test_uncovered_address_infinite(self):
        adapter = IgpAdapter()
        adapter.set_router_routes("a", {})
        assert adapter.cost_to("a", IPv4Address("10.0.0.1")) == float("inf")

    def test_drop_route_infinite(self):
        adapter = IgpAdapter()
        prefix = Prefix("10.0.0.0/24")
        route = Route(
            prefix=prefix,
            protocol="static",
            admin_distance=1,
            metric=0,
            next_hops=frozenset({NextHop(drop=True)}),
        )
        adapter.set_router_routes("a", {prefix: route})
        assert adapter.cost_to("a", IPv4Address(prefix.first)) == float("inf")


    def test_set_route_matches_a_rebuild(self):
        # Per-prefix writes (install, replace, remove) leave the same
        # LPM answers as building the router's view from scratch.
        hop = frozenset({NextHop(interface="eth0", neighbor="b")})
        wide = Route(
            prefix=Prefix("10.0.0.0/16"), protocol="ospf",
            admin_distance=110, metric=20, next_hops=hop,
        )
        narrow = Route(
            prefix=Prefix("10.0.1.0/24"), protocol="ospf",
            admin_distance=110, metric=30, next_hops=hop,
        )
        adapter = IgpAdapter()
        adapter.set_router_routes("a", {wide.prefix: wide})
        adapter.set_route("a", narrow.prefix, narrow)
        address = IPv4Address(narrow.prefix.first + 1)
        assert adapter.covering_route("a", address) is narrow
        adapter.set_route("a", narrow.prefix, None)
        assert adapter.covering_route("a", address) is wide
        assert adapter.routes("a") == {wide.prefix: wide}
        adapter.set_route("b", wide.prefix, wide)  # router not yet built
        assert adapter.route("b", wide.prefix) is wide
        adapter.set_route("c", wide.prefix, None)
        assert adapter.routes("c") == {}


class TestStateShape:
    def test_counts(self):
        scenario = internet2_bgp()
        state = simulate(scenario.snapshot, precompute_reachability=True)
        assert len(state.ribs) == scenario.topology.num_routers()
        assert len(state.fibs) == scenario.topology.num_routers()
        assert state.dataplane.atom_table.num_atoms() == len(
            state.reachability.cached_atoms()
        )
        stats = state.dataplane.stats()
        assert stats["fib_entries"] > 0 and stats["atoms"] > 1
