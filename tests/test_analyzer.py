"""The differential analyzer: unit behaviours and the equivalence oracle.

The oracle tests are the heart of the suite: for every change kind on
every scenario family, the incremental analyzer must produce exactly
the delta the full snapshot-diff baseline produces.
"""

import pytest

from repro.config.routing import StaticRouteConfig
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import (
    AddStaticRoute,
    AnnouncePrefix,
    Change,
    ChangeError,
    LinkDown,
    LinkUp,
    RemoveStaticRoute,
    SetOspfCost,
    WithdrawPrefix,
)
from repro.core.oracle import EquivalenceOracle
from repro.net.addr import Prefix
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import (
    fat_tree_ospf,
    internet2_bgp,
    line_static,
    random_ospf,
    ring_ospf,
)


class TestAnalyzerUnits:
    def test_noop_change_produces_empty_report(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        report = analyzer.analyze(Change.of(label="noop"))
        assert report.is_empty()

    def test_static_add_scopes_to_one_prefix(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        peer = analyzer.snapshot.topology.interface_peer("r0", "eth1")
        prefix = Prefix("10.250.0.0/24")
        report = analyzer.analyze(
            Change.of(
                AddStaticRoute(
                    "r0", StaticRouteConfig(prefix, next_hop=peer.address)
                )
            )
        )
        assert report.num_fib_changes() == 1
        assert list(report.fib_changes["r0"]) == [prefix]
        # Only the atoms carved out of the scratch space were touched.
        assert report.counters["atoms_analyzed"] <= 3

    def test_add_then_remove_round_trips_state(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        atoms_before = analyzer.state.dataplane.atom_table.num_atoms()
        peer = analyzer.snapshot.topology.interface_peer("r0", "eth1")
        static = StaticRouteConfig(Prefix("10.250.0.0/24"), next_hop=peer.address)
        analyzer.analyze(Change.of(AddStaticRoute("r0", static)))
        report = analyzer.analyze(Change.of(RemoveStaticRoute("r0", static)))
        assert analyzer.state.dataplane.atom_table.num_atoms() == atoms_before
        assert report.num_fib_changes() == 1

    def test_link_down_skips_unaffected_spf_sources(self):
        scenario = ring_ospf(8)
        analyzer = DifferentialNetworkAnalyzer(scenario.snapshot)
        # Make the r0--r1 link so expensive no shortest path uses it,
        # then fail it: no source's SPF tree is affected (only the /31
        # advertisement changes), so no SPF recomputation happens.
        analyzer.analyze(
            Change.of(
                SetOspfCost("r0", "eth1", 500), SetOspfCost("r1", "eth0", 500)
            )
        )
        report = analyzer.analyze(
            Change.of(LinkDown("r0", "r1"), label="unused link down")
        )
        assert report.counters["spf_sources_recomputed"] == 0
        # The /31 still disappears from the network, so the report is
        # not empty.
        assert not report.is_empty()

    def test_failed_edit_raises(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        with pytest.raises(ChangeError):
            analyzer.analyze(Change.of(LinkDown("r0", "r5")))  # not adjacent

    def test_counters_present(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        report = analyzer.analyze(Change.of(SetOspfCost("r0", "eth1", 33)))
        for key in (
            "spf_sources_recomputed",
            "bgp_prefixes_resolved",
            "atoms_analyzed",
            "atoms_total",
        ):
            assert key in report.counters
        assert report.counters["spf_sources_recomputed"] > 0

    def test_bgp_announce_withdraw(self, internet2_scenario):
        analyzer = DifferentialNetworkAnalyzer(internet2_scenario.snapshot.clone())
        prefix = Prefix("10.254.77.0/24")
        report = analyzer.analyze(Change.of(AnnouncePrefix("cust_seat0", prefix)))
        # Routers across the WAN pick up a BGP route; since no subnet
        # backs the announcement, the impact is forwarding + blackhole
        # churn, not new delivery pairs.
        assert report.num_fib_changes() > 0
        assert any(s.blackholes_removed for s in report.reach_segments)
        report = analyzer.analyze(Change.of(WithdrawPrefix("cust_seat0", prefix)))
        assert any(s.blackholes_added for s in report.reach_segments)
        assert prefix not in analyzer.state.bgp_solutions


def _drive(oracle: EquivalenceOracle, generator: ChangeGenerator, kinds, steps):
    for _ in range(steps):
        kind = generator.rng.choice(kinds)
        if kind == "link":
            down, up = generator.random_link_failure()
            oracle.step(down)
            oracle.step(up)
        elif kind == "iface":
            shutdown, enable = generator.random_interface_flap()
            oracle.step(shutdown)
            oracle.step(enable)
        elif kind == "session":
            teardown, restore = generator.random_session_flap()
            oracle.step(teardown)
            oracle.step(restore)
        elif kind == "static":
            add, remove = generator.random_static_route()
            oracle.step(add)
            oracle.step(remove)
        elif kind == "cost":
            oracle.step(generator.random_ospf_cost())
        elif kind == "acl":
            block, unblock = generator.random_acl_block()
            oracle.step(block)
            oracle.step(unblock)
        elif kind == "prefix":
            announce, withdraw = generator.random_prefix_flap()
            oracle.step(announce)
            oracle.step(withdraw)
        elif kind == "pref":
            oracle.step(generator.dual_homed_pref_flip(100, 200))
            oracle.step(generator.dual_homed_pref_flip(200, 100))
    assert oracle.stats.pass_rate == 1.0


class TestEquivalenceOracle:
    """Incremental == snapshot-diff, per scenario family."""

    def test_static_chain(self):
        scenario = line_static(5)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(oracle, ChangeGenerator(scenario, seed=21), ["link", "static"], 5)

    def test_ospf_ring(self):
        scenario = ring_ospf(8)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(
            oracle,
            ChangeGenerator(scenario, seed=22),
            ["link", "static", "cost"],
            6,
        )

    def test_random_ospf_with_acls(self):
        scenario = random_ospf(12, 10, seed=23)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(
            oracle,
            ChangeGenerator(scenario, seed=23),
            ["link", "static", "cost", "acl"],
            6,
        )

    def test_fat_tree(self):
        scenario = fat_tree_ospf(4)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(
            oracle,
            ChangeGenerator(scenario, seed=24),
            ["link", "static", "cost", "acl"],
            5,
        )

    def test_internet2_bgp_full_mix(self):
        scenario = internet2_bgp()
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(
            oracle,
            ChangeGenerator(scenario, seed=25),
            ["link", "static", "cost", "acl", "prefix", "pref"],
            6,
        )

    def test_interface_shutdown_mix(self):
        scenario = ring_ospf(6)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(
            oracle,
            ChangeGenerator(scenario, seed=28),
            ["iface", "static"],
            5,
        )

    def test_redistribute_connected_tracks_interface_state(self):
        # Customers originate via redistribute-connected: shutting a
        # host interface must withdraw the prefix network-wide, and
        # both analysis paths must agree on the fallout.
        scenario = internet2_bgp(redistribute_connected=True)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        from repro.core.change import (
            Change,
            EnableInterface,
            ShutdownInterface,
        )

        oracle.step(Change.of(ShutdownInterface("cust_chic0", "host0")))
        oracle.step(Change.of(EnableInterface("cust_chic0", "host0")))
        assert oracle.stats.pass_rate == 1.0
        # And the withdrawn prefix really left the BGP state meanwhile.
        prefix = scenario.fabric.host_subnets["cust_chic0"][0]
        assert prefix in oracle.analyzer.state.bgp_solutions

    def test_bgp_session_churn(self):
        scenario = internet2_bgp()
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        _drive(
            oracle,
            ChangeGenerator(scenario, seed=29),
            ["session", "iface", "prefix"],
            4,
        )

    def test_multi_edit_batches(self):
        scenario = ring_ospf(6)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        generator = ChangeGenerator(scenario, seed=26)
        for size in (2, 4, 8):
            add, remove = generator.static_batch(size)
            oracle.step(add)
            oracle.step(remove)
        assert oracle.stats.pass_rate == 1.0

    def test_oracle_counts_every_step(self):
        scenario = ring_ospf(8)
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        generator = ChangeGenerator(scenario, seed=27)
        add, remove = generator.random_static_route()
        oracle.step(add)
        oracle.step(remove)
        assert oracle.stats.checked == oracle.stats.agreed == 2
        assert oracle.stats.labels == [add.label, remove.label]
