"""BGP: sessions, decision process, policies, propagation."""

import os
import subprocess
import sys

import pytest

import repro
from repro.bench.workloads import wan_k8_batch
from repro.config.routemap import (
    AttributeBundle,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.config.routing import BgpConfig, BgpNeighborConfig
from repro.controlplane.bgp import (
    INFINITY,
    LOCAL_KEY,
    BgpCandidate,
    BgpConvergenceError,
    BgpPrefixSolution,
    BgpSolver,
    best_path,
    collect_origins,
    discover_sessions,
    export_route,
    import_route,
)
from repro.controlplane.connected import AddressIndex
from repro.controlplane.simulation import simulate
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import LinkDown
from repro.core.snapshot import Snapshot
from repro.net.addr import IPv4Address, Prefix
from repro.topology.generators import line, ring
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


def ebgp_ring(n: int = 3) -> Snapshot:
    """A ring of n ASes, eBGP between neighbours; r0 originates
    172.20.0.0/24."""
    fabric = ring(n)
    snapshot = Snapshot(topology=fabric.topology)
    for index in range(n):
        router = f"r{index}"
        config = snapshot.config(router)
        config.bgp = BgpConfig(
            asn=65000 + index,
            router_id=snapshot.topology.router(router).interface("lo0").address,
        )
    for index in range(n):
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
    return snapshot


def solve_fresh(snapshot, prefix=Prefix("172.20.0.0/24"), max_rounds=None):
    sessions = discover_sessions(snapshot, AddressIndex(snapshot))
    origins = collect_origins(snapshot)[prefix]
    return BgpSolver(snapshot, sessions, _ZeroIgp()).solve(
        prefix, origins, max_rounds=max_rounds
    )


class TestPropagation:
    def solve(self, snapshot, prefix=Prefix("172.20.0.0/24")):
        return solve_fresh(snapshot, prefix)

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
        snapshot = ebgp_ring(3)
        solution = self.solve(snapshot)
        for router, candidate in solution.best.items():
            config = snapshot.configs[router]
            assert config.bgp.asn not in candidate.bundle.as_path

    def test_convergence_guard(self):
        with pytest.raises(BgpConvergenceError):
            solve_fresh(ebgp_chain(3), max_rounds=0)


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


def reference_solve(snapshot, prefix, origins, sessions, igp, max_rounds=None):
    """The round-robin solver the worklist replaced, kept as an oracle.

    Every live session exports in every round, from a cold start, and
    the liveness filter runs per prefix.  Routers are visited in sorted
    order, as :class:`BgpSolver` does.
    """
    live_sessions = [
        s
        for s in sessions
        if s.direct
        or (
            igp.cost_to(s.local, s.peer_ip) < INFINITY
            and igp.cost_to(s.peer, s.local_ip) < INFINITY
        )
    ]
    routers = {s.local for s in live_sessions} | {s.peer for s in live_sessions}
    routers.update(origins)
    if max_rounds is None:
        max_rounds = 2 * max(len(routers), 1) + 10

    candidates = {r: {} for r in sorted(routers)}
    for router, bundle in origins.items():
        candidates[router][LOCAL_KEY] = BgpCandidate(
            bundle=bundle, next_hop=None, from_peer=None, ebgp=False,
            peer_router_id=0,
        )
    best = {router: best_path(router, candidates[router], igp) for router in candidates}

    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise BgpConvergenceError(f"no fixpoint for {prefix}")
        changed_routers = set()
        for session in live_sessions:
            message = export_route(snapshot, session, best.get(session.local))
            candidate = import_route(snapshot, session, message)
            receiver = candidates[session.peer]
            previous = receiver.get(session.local)
            if candidate is None:
                if previous is not None:
                    del receiver[session.local]
                    changed_routers.add(session.peer)
            elif previous != candidate:
                receiver[session.local] = candidate
                changed_routers.add(session.peer)
        if not changed_routers:
            break
        for router in changed_routers:
            best[router] = best_path(router, candidates[router], igp)

    return BgpPrefixSolution(
        prefix=prefix,
        best={router: b for router, b in best.items() if b is not None},
        adj_in={
            (receiver, sender): candidate
            for receiver, per_receiver in candidates.items()
            for sender, candidate in per_receiver.items()
            if sender != LOCAL_KEY
        },
        rounds=rounds,
    )


def assert_same_solution(got, want):
    assert list(got.best) == list(want.best)
    assert list(got.adj_in) == list(want.adj_in)
    assert got.best == want.best
    assert got.adj_in == want.adj_in
    assert got.rounds == want.rounds


def assert_matches_reference(snapshot, sessions, igp):
    """Every originated prefix: worklist == round-robin, dict order
    included.  Returns the solver for work-count checks."""
    origins = collect_origins(snapshot)
    assert origins
    solver = BgpSolver(snapshot, sessions, igp)
    for prefix in sorted(origins):
        assert_same_solution(
            solver.solve(prefix, origins[prefix]),
            reference_solve(snapshot, prefix, origins[prefix], sessions, igp),
        )
    return solver


class TestWorklistEquivalence:
    """The worklist solver reproduces the round-robin fixpoint exactly:
    ``best`` and ``adj_in`` as ordered item lists, and ``rounds``."""

    @pytest.mark.parametrize(
        "size",
        [
            dict(),
            dict(customers_per_pop=2, host_subnets_per_pop=3),
            dict(customers_per_pop=3, prefixes_per_customer=3),
        ],
        ids=["default", "c2h3", "c3p3"],
    )
    def test_internet2_every_prefix(self, size):
        snapshot = internet2_bgp(**size).snapshot
        state = simulate(snapshot)
        solver = assert_matches_reference(snapshot, state.bgp_sessions, state.igp)
        # The worklist does at least 3x less export work than
        # re-exporting every live session in every round.
        round_robin = sum(
            solution.rounds * len(solver.sessions)
            for solution in state.bgp_solutions.values()
        )
        assert 3 * solver.exports_evaluated <= round_robin

    def test_internet2_after_k8_commits_and_reverts(self):
        scenario = internet2_bgp()
        analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
        for seed in (78, 5, 19):
            changes, recovery = wan_k8_batch(scenario, seed=seed)
            for batch in (changes, recovery):
                analyzer.analyze_batch(batch)
                state = analyzer.state
                assert_matches_reference(
                    analyzer.snapshot, state.bgp_sessions, state.igp
                )
                # The pipeline's own solutions are the reference's too.
                origins = collect_origins(analyzer.snapshot)
                for prefix in sorted(origins):
                    assert_same_solution(
                        state.bgp_solutions[prefix],
                        reference_solve(
                            analyzer.snapshot, prefix, origins[prefix],
                            state.bgp_sessions, state.igp,
                        ),
                    )

    @pytest.mark.parametrize(
        "build", [lambda: ebgp_chain(4), lambda: ebgp_ring(3), lambda: ebgp_ring(5)],
        ids=["chain4", "ring3", "ring5"],
    )
    def test_small_ebgp_cases(self, build):
        snapshot = build()
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        assert_matches_reference(snapshot, sessions, _ZeroIgp())

    def test_convergence_guard_matches(self):
        snapshot = ebgp_chain(3)
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        prefix = Prefix("172.20.0.0/24")
        origins = collect_origins(snapshot)[prefix]
        for rounds in range(4):
            try:
                want = reference_solve(
                    snapshot, prefix, origins, sessions, _ZeroIgp(), rounds
                )
            except BgpConvergenceError:
                with pytest.raises(BgpConvergenceError):
                    BgpSolver(snapshot, sessions, _ZeroIgp()).solve(
                        prefix, origins, max_rounds=rounds
                    )
                continue
            got = BgpSolver(snapshot, sessions, _ZeroIgp()).solve(
                prefix, origins, max_rounds=rounds
            )
            assert_same_solution(got, want)


def parallel_pair() -> Snapshot:
    """``ebgp_chain(2)`` plus a second r0–r1 link with its own pair of
    neighbor entries: two r0→r1 sessions feed one adj-RIB slot."""
    snapshot = ebgp_chain(2)
    topology = snapshot.topology
    topology.add_interface("r0", "eth9", "10.99.0.1", 30)
    topology.add_interface("r1", "eth9", "10.99.0.2", 30)
    topology.add_link("r0", "eth9", "r1", "eth9")
    snapshot.config("r0").bgp.add_neighbor(
        BgpNeighborConfig(peer_ip=IPv4Address("10.99.0.2"), remote_asn=65001)
    )
    snapshot.config("r1").bgp.add_neighbor(
        BgpNeighborConfig(peer_ip=IPv4Address("10.99.0.1"), remote_asn=65000)
    )
    return snapshot


class TestContestedSlots:
    prefix = Prefix("172.20.0.0/24")

    def solvers(self, snapshot):
        sessions = discover_sessions(snapshot, AddressIndex(snapshot))
        assert [s.key for s in sessions].count(("r0", "r1")) == 2
        origins = collect_origins(snapshot)[self.prefix]
        return (
            lambda: BgpSolver(snapshot, sessions, _ZeroIgp()).solve(
                self.prefix, origins
            ),
            lambda: reference_solve(
                snapshot, self.prefix, origins, sessions, _ZeroIgp()
            ),
        )

    def test_identical_policies_converge(self):
        worklist, reference = self.solvers(parallel_pair())
        got, want = worklist(), reference()
        assert got.rounds == want.rounds == 2
        assert_same_solution(got, want)

    def test_divergent_export_maps_never_converge(self):
        # One of r0's two neighbor entries sets a MED on export, so the
        # two sessions overwrite r1's slot with different candidates in
        # every round.  A worklist that skipped r0 after round 1 would
        # settle instead of raising.
        snapshot = parallel_pair()
        config = snapshot.config("r0")
        config.prefix_lists["ALL"] = PrefixList(
            "ALL", [PrefixListEntry(prefix=Prefix("0.0.0.0/0"), le=32)]
        )
        config.route_maps["MED"] = RouteMap(
            "MED", [RouteMapClause(seq=10, match_prefix_list="ALL", set_med=50)]
        )
        config.bgp.neighbors[IPv4Address("10.99.0.2")].export_policy = "MED"
        worklist, reference = self.solvers(snapshot)
        with pytest.raises(BgpConvergenceError):
            reference()
        with pytest.raises(BgpConvergenceError):
            worklist()


_SOLUTION_DIGEST = """
import hashlib
from repro.controlplane.simulation import simulate
from repro.workloads.scenarios import internet2_bgp
state = simulate(internet2_bgp(2, 3).snapshot)
text = repr(list(state.bgp_solutions.items()))
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_solution_order_is_independent_of_hash_seed():
    """``best`` and ``adj_in`` come out in one dict order under every
    ``PYTHONHASHSEED`` (it leaks into anything that pickles state)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _SOLUTION_DIGEST],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(result.stdout)
    assert digests[0] == digests[1]
