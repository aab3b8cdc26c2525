"""BGP: sessions, decision process, policies, propagation."""

import pytest

from repro.config.routemap import (
    AttributeBundle,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.config.routing import BgpConfig, BgpNeighborConfig
from repro.controlplane.bgp import (
    BgpCandidate,
    BgpConvergenceError,
    best_path,
    collect_origins,
    discover_sessions,
    solve_prefix,
)
from repro.controlplane.connected import AddressIndex
from repro.controlplane.simulation import simulate
from repro.core.change import LinkDown
from repro.core.snapshot import Snapshot
from repro.net.addr import IPv4Address, Prefix
from repro.topology.generators import line
from repro.workloads.scenarios import internet2_bgp


def ebgp_chain(n: int, asn_base: int = 65000) -> Snapshot:
    """n routers in a line, each its own AS, eBGP between neighbours;
    r0 originates 172.20.0.0/24."""
    fabric = line(n)
    snapshot = Snapshot(topology=fabric.topology)
    for index in range(n):
        router = f"r{index}"
        config = snapshot.config(router)
        router_id = snapshot.topology.router(router).interface("lo0").address
        config.bgp = BgpConfig(asn=asn_base + index, router_id=router_id)
        for direction, interface in (("left", "eth0"), ("right", "eth1")):
            peer = snapshot.topology.interface_peer(router, interface) if (
                interface in snapshot.topology.router(router).interfaces
            ) else None
            if peer is None:
                continue
            peer_index = int(peer.router[1:])
            config.bgp.add_neighbor(
                BgpNeighborConfig(
                    peer_ip=peer.address, remote_asn=asn_base + peer_index
                )
            )
    snapshot.config("r0").bgp.originated.append(Prefix("172.20.0.0/24"))
    return snapshot


class TestSessionDiscovery:
    def test_chain_sessions(self):
        snapshot = ebgp_chain(3)
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        # Two links, each with two directions.
        assert len(sessions) == 4
        assert all(s.ebgp and s.direct for s in sessions)

    def test_asn_mismatch_blocks_session(self):
        snapshot = ebgp_chain(2)
        # r0 believes r1 is AS 99.
        peer_ip = next(iter(snapshot.config("r0").bgp.neighbors))
        snapshot.config("r0").bgp.neighbors[peer_ip].remote_asn = 99
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        assert sessions == []

    def test_one_sided_config_blocks_session(self):
        snapshot = ebgp_chain(2)
        snapshot.config("r1").bgp.neighbors.clear()
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        assert sessions == []

    def test_downed_link_blocks_direct_session(self):
        snapshot = ebgp_chain(2)
        LinkDown("r0", "r1").apply(snapshot)
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        assert sessions == []


class _ZeroIgp:
    def cost_to(self, _router, _address):
        return 0.0


class TestPropagation:
    def solve(self, snapshot, prefix=Prefix("172.20.0.0/24")):
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        origins = collect_origins(snapshot)[prefix]
        return solve_prefix(snapshot, prefix, origins, sessions, _ZeroIgp())

    def test_chain_propagation_and_as_path(self):
        snapshot = ebgp_chain(4)
        solution = self.solve(snapshot)
        assert set(solution.best) == {"r0", "r1", "r2", "r3"}
        assert solution.best["r3"].bundle.as_path == (65002, 65001, 65000)

    def test_next_hop_is_sender_interface(self):
        snapshot = ebgp_chain(3)
        solution = self.solve(snapshot)
        r0_eth1 = snapshot.topology.router("r0").interface("eth1")
        assert solution.best["r1"].next_hop == r0_eth1.address

    def test_export_policy_blocks(self):
        snapshot = ebgp_chain(3)
        config = snapshot.config("r1")
        config.route_maps["NONE"] = RouteMap("NONE", [])  # implicit deny all
        peer2 = snapshot.topology.router("r1").interface("eth1")
        r2_ip = snapshot.topology.interface_peer("r1", "eth1").address
        config.bgp.neighbors[r2_ip].export_policy = "NONE"
        solution = self.solve(snapshot)
        assert "r2" not in solution.best

    def test_import_policy_sets_local_pref(self):
        snapshot = ebgp_chain(2)
        config = snapshot.config("r1")
        config.prefix_lists["ALL"] = PrefixList(
            "ALL", [PrefixListEntry(prefix=Prefix("0.0.0.0/0"), le=32)]
        )
        config.route_maps["LP"] = RouteMap(
            "LP",
            [RouteMapClause(seq=10, match_prefix_list="ALL", set_local_pref=321)],
        )
        r0_ip = snapshot.topology.interface_peer("r1", "eth0").address
        config.bgp.neighbors[r0_ip].import_policy = "LP"
        solution = self.solve(snapshot)
        assert solution.best["r1"].bundle.local_pref == 321

    def test_as_path_loop_rejected(self):
        # Ring of 3 ASes: announcements must not loop forever, and no
        # router may accept a path containing its own ASN.
        from repro.topology.generators import ring

        fabric = ring(3)
        snapshot = Snapshot(topology=fabric.topology)
        for index in range(3):
            router = f"r{index}"
            config = snapshot.config(router)
            config.bgp = BgpConfig(
                asn=65000 + index,
                router_id=snapshot.topology.router(router).interface("lo0").address,
            )
        for index in range(3):
            router = f"r{index}"
            for neighbor, link in snapshot.topology.neighbors(router):
                local_if = link.endpoint_on(router)[1]
                peer = snapshot.topology.interface_peer(router, local_if)
                snapshot.config(router).bgp.add_neighbor(
                    BgpNeighborConfig(
                        peer_ip=peer.address,
                        remote_asn=65000 + int(neighbor[1:]),
                    )
                )
        snapshot.config("r0").bgp.originated.append(Prefix("172.20.0.0/24"))
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        origins = collect_origins(snapshot)[Prefix("172.20.0.0/24")]
        solution = solve_prefix(
            snapshot, Prefix("172.20.0.0/24"), origins, sessions, _ZeroIgp()
        )
        for router, candidate in solution.best.items():
            config = snapshot.configs[router]
            assert config.bgp.asn not in candidate.bundle.as_path

    def test_convergence_guard(self):
        snapshot = ebgp_chain(3)
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        origins = collect_origins(snapshot)[Prefix("172.20.0.0/24")]
        with pytest.raises(BgpConvergenceError):
            solve_prefix(
                snapshot,
                Prefix("172.20.0.0/24"),
                origins,
                sessions,
                _ZeroIgp(),
                max_rounds=0,
            )


class TestDecision:
    def candidate(self, **overrides) -> BgpCandidate:
        fields = dict(
            bundle=AttributeBundle(prefix=Prefix("10.0.0.0/24")),
            next_hop=IPv4Address("10.0.0.1"),
            from_peer="peer",
            ebgp=True,
            peer_router_id=1,
        )
        fields.update(overrides)
        return BgpCandidate(**fields)

    def test_local_pref_dominates_path_length(self):
        short = self.candidate(
            bundle=AttributeBundle(prefix=Prefix("10.0.0.0/24"), as_path=(1,), local_pref=100)
        )
        long_preferred = self.candidate(
            bundle=AttributeBundle(
                prefix=Prefix("10.0.0.0/24"), as_path=(1, 2, 3), local_pref=200
            ),
            from_peer="other",
        )
        best = best_path("me", {"a": short, "b": long_preferred}, _ZeroIgp())
        assert best is long_preferred

    def test_path_length_dominates_med(self):
        short_high_med = self.candidate(
            bundle=AttributeBundle(prefix=Prefix("10.0.0.0/24"), as_path=(1,), med=99)
        )
        long_low_med = self.candidate(
            bundle=AttributeBundle(prefix=Prefix("10.0.0.0/24"), as_path=(1, 2), med=0),
            from_peer="other",
        )
        best = best_path("me", {"a": short_high_med, "b": long_low_med}, _ZeroIgp())
        assert best is short_high_med

    def test_ebgp_preferred_over_ibgp(self):
        ibgp = self.candidate(ebgp=False)
        ebgp = self.candidate(from_peer="other", ebgp=True)
        best = best_path("me", {"a": ibgp, "b": ebgp}, _ZeroIgp())
        assert best is ebgp

    def test_local_origination_wins(self):
        local = self.candidate(from_peer=None, next_hop=None, ebgp=False)
        learned = self.candidate()
        best = best_path("me", {"a": local, "b": learned}, _ZeroIgp())
        assert best is local

    def test_unreachable_next_hop_excluded(self):
        class DeadIgp:
            def cost_to(self, _router, _address):
                return float("inf")

        candidate = self.candidate()
        assert best_path("me", {"a": candidate}, DeadIgp()) is None

    def test_igp_cost_tiebreak(self):
        class CostIgp:
            def cost_to(self, _router, address):
                return 5.0 if address == IPv4Address("10.0.0.1") else 1.0

        near = self.candidate(next_hop=IPv4Address("10.0.0.2"), from_peer="near")
        far = self.candidate(next_hop=IPv4Address("10.0.0.1"), from_peer="far")
        best = best_path("me", {"a": far, "b": near}, CostIgp())
        assert best is near


class TestInternet2Integration:
    def test_dual_homed_prefers_high_local_pref(self):
        scenario = internet2_bgp()
        state = simulate(scenario.snapshot)
        prefix = scenario.fabric.host_subnets["cust_dual"][0]
        solution = state.bgp_solutions[prefix]
        # SEAT imports at local-pref 200: every WAN router should pick
        # the SEAT-learned path.
        assert solution.best["SEAT"].bundle.local_pref == 200
        for pop in ("CHIC", "NEWY", "WASH"):
            assert solution.best[pop].bundle.local_pref == 200

    def test_ibgp_next_hop_self(self):
        scenario = internet2_bgp()
        state = simulate(scenario.snapshot)
        prefix = scenario.fabric.host_subnets["cust_seat0"][0]
        solution = state.bgp_solutions[prefix]
        seat_loopback = scenario.topology.router("SEAT").interface("lo0").address
        assert solution.best["CHIC"].next_hop == seat_loopback

    def test_customer_learns_other_customers(self):
        scenario = internet2_bgp()
        state = simulate(scenario.snapshot)
        prefix = scenario.fabric.host_subnets["cust_newy0"][0]
        rib = state.ribs["cust_seat0"]
        assert rib.best(prefix) is not None
        assert rib.best(prefix).protocol == "bgp"
