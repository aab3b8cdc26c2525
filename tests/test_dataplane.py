"""DataPlane actions, ACL verdicts, and per-atom reachability."""

import pytest

from repro.config.acl import Acl, AclAction, AclRule
from repro.config.routing import StaticRouteConfig
from repro.controlplane.simulation import simulate
from repro.core.change import AddStaticRoute, BindAcl, Change
from repro.dataplane.forwarding import TargetKind
from repro.dataplane.reachability import compute_atom_reachability
from repro.net.addr import Prefix
from repro.workloads.scenarios import line_static, ring_ospf


@pytest.fixture()
def line_state():
    scenario = line_static(3)
    return scenario, simulate(scenario.snapshot)


class TestActions:
    def test_forward_action(self, line_state):
        scenario, state = line_state
        target = scenario.fabric.host_subnets["r2"][0]
        atom = state.dataplane.atom_table.atom_containing(target.first + 1)
        action = state.dataplane.action("r0", atom)
        assert action.forward_neighbors() == {"r1"}
        assert not action.delivers()

    def test_deliver_action(self, line_state):
        scenario, state = line_state
        target = scenario.fabric.host_subnets["r2"][0]
        atom = state.dataplane.atom_table.atom_containing(target.first + 1)
        action = state.dataplane.action("r2", atom)
        assert action.delivers()

    def test_blackhole_on_unrouted_space(self, line_state):
        _scenario, state = line_state
        atom = state.dataplane.atom_table.atom_containing(
            Prefix("203.0.113.0/24").first
        )
        action = state.dataplane.action("r0", atom)
        assert action.is_blackhole()

    def test_null_route_drops(self):
        scenario = line_static(3)
        scenario.snapshot.config("r0").add_static_route(
            StaticRouteConfig(Prefix("198.51.100.0/24"), drop=True)
        )
        state = simulate(scenario.snapshot)
        atom = state.dataplane.atom_table.atom_containing(
            Prefix("198.51.100.0/24").first
        )
        action = state.dataplane.action("r0", atom)
        assert action.drops_everything()
        assert not action.is_blackhole()

    def test_egress_acl_denies(self):
        scenario = line_static(3)
        victim = scenario.fabric.host_subnets["r2"][0]
        config = scenario.snapshot.config("r0")
        config.acls["BLK"] = Acl(
            "BLK",
            [
                AclRule(AclAction.DENY, dst=victim),
                AclRule(AclAction.PERMIT, dst=Prefix("0.0.0.0/0")),
            ],
        )
        config.ensure_interface("eth1").acl_out = "BLK"
        state = simulate(scenario.snapshot)
        atom = state.dataplane.atom_table.atom_containing(victim.first + 1)
        action = state.dataplane.action("r0", atom)
        assert action.forward_neighbors() == frozenset()
        kinds = {t.kind for t in action.targets}
        assert kinds == {TargetKind.DROP}

    def test_ingress_acl_on_peer_denies(self):
        scenario = line_static(3)
        victim = scenario.fabric.host_subnets["r2"][0]
        config = scenario.snapshot.config("r1")
        config.acls["BLK"] = Acl(
            "BLK",
            [
                AclRule(AclAction.DENY, dst=victim),
                AclRule(AclAction.PERMIT, dst=Prefix("0.0.0.0/0")),
            ],
        )
        config.ensure_interface("eth0").acl_in = "BLK"  # faces r0
        state = simulate(scenario.snapshot)
        atom = state.dataplane.atom_table.atom_containing(victim.first + 1)
        # r0's forward into r1 dies at r1's ingress filter.
        assert state.dataplane.action("r0", atom).forward_neighbors() == frozenset()
        # r1 itself still forwards on to r2.
        assert state.dataplane.action("r1", atom).forward_neighbors() == {"r2"}

    def test_mixed_acl_flags_action(self):
        scenario = line_static(3)
        victim = scenario.fabric.host_subnets["r2"][0]
        config = scenario.snapshot.config("r0")
        config.acls["SRC"] = Acl(
            "SRC",
            [
                AclRule(
                    AclAction.DENY, dst=victim, src=Prefix("192.168.0.0/16")
                ),
                AclRule(AclAction.PERMIT, dst=Prefix("0.0.0.0/0")),
            ],
        )
        config.ensure_interface("eth1").acl_out = "SRC"
        state = simulate(scenario.snapshot)
        atom = state.dataplane.atom_table.atom_containing(victim.first + 1)
        action = state.dataplane.action("r0", atom)
        assert action.mixed
        assert action.forward_neighbors() == {"r1"}  # conservatively kept


class TestReachability:
    def test_all_sources_reach_owner(self, line_state):
        scenario, state = line_state
        target = scenario.fabric.host_subnets["r2"][0]
        atom = state.dataplane.atom_table.atom_containing(target.first + 1)
        reach = compute_atom_reachability(state.dataplane, atom)
        assert reach.owners == {"r2"}
        assert reach.sources["r2"] == {"r0", "r1", "r2"}

    def test_pair_set(self, line_state):
        scenario, state = line_state
        target = scenario.fabric.host_subnets["r0"][0]
        atom = state.dataplane.atom_table.atom_containing(target.first + 1)
        reach = compute_atom_reachability(state.dataplane, atom)
        assert ("r2", "r0") in reach.pair_set()
        assert reach.reaches("r1", "r0")

    def test_unrouted_space_all_blackholes(self, line_state):
        _scenario, state = line_state
        atom = state.dataplane.atom_table.atom_containing(
            Prefix("203.0.113.0/24").first
        )
        reach = compute_atom_reachability(state.dataplane, atom)
        assert reach.owners == frozenset()
        assert reach.blackhole_routers == {"r0", "r1", "r2"}

    def test_static_loop_detected(self):
        # r0 and r1 point a scratch prefix at each other.
        scenario = line_static(2)
        snapshot = scenario.snapshot
        loop_prefix = Prefix("198.51.100.0/24")
        r1_ip = snapshot.topology.interface_peer("r0", "eth1").address
        r0_ip = snapshot.topology.interface_peer("r1", "eth0").address
        Change.of(
            AddStaticRoute("r0", StaticRouteConfig(loop_prefix, next_hop=r1_ip)),
            AddStaticRoute("r1", StaticRouteConfig(loop_prefix, next_hop=r0_ip)),
        ).apply(snapshot)
        state = simulate(snapshot)
        atom = state.dataplane.atom_table.atom_containing(loop_prefix.first)
        reach = compute_atom_reachability(state.dataplane, atom)
        assert reach.loop_routers == {"r0", "r1"}

    def test_ring_default_no_loops(self):
        scenario = ring_ospf(5)
        state = simulate(scenario.snapshot, precompute_reachability=True)
        for atom in state.dataplane.atom_table.atoms():
            assert state.reachability.for_atom(atom).loop_routers == frozenset()

    def test_reaches_point_query(self, line_state):
        scenario, state = line_state
        target = scenario.fabric.host_subnets["r2"][0]
        assert state.reachability.reaches("r0", "r2", target.first + 1)


class TestIncrementalMaintenance:
    def test_fib_update_dirty_atoms(self, line_state):
        _scenario, state = line_state
        from repro.dataplane.fib import FibEntry
        from repro.controlplane.rib import NextHop

        prefix = Prefix("198.51.100.0/24")
        entry = FibEntry(
            prefix, frozenset({NextHop(interface="eth1", neighbor="r1")})
        )
        delta = state.dataplane.update_fib_entry("r0", prefix, entry)
        lo, hi = prefix.interval()
        assert any(a.lo == lo and a.hi == hi for a in delta.created)
        atom = state.dataplane.atom_table.atom_containing(lo)
        assert state.dataplane.action("r0", atom).forward_neighbors() == {"r1"}
        assert delta.changed[("r0", atom)][1] == state.dataplane.action("r0", atom)

    def test_split_inherits_parent_actions(self, line_state):
        scenario, state = line_state
        # Warm the cache for the big unrouted atom.
        probe = Prefix("198.51.100.0/24")
        parent = state.dataplane.atom_table.atom_containing(probe.first)
        before = state.dataplane.action("r1", parent)
        from repro.dataplane.fib import FibEntry
        from repro.controlplane.rib import NextHop

        entry = FibEntry(
            probe, frozenset({NextHop(interface="eth1", neighbor="r1")})
        )
        state.dataplane.update_fib_entry("r0", probe, entry)
        # r1's behaviour in the split-off sibling atoms is unchanged
        # and must come from the inherited cache without recompute.
        sibling = state.dataplane.atom_table.atom_containing(probe.last + 1)
        assert state.dataplane.action("r1", sibling) == before

    def test_remove_entry_merges_and_restores(self, line_state):
        _scenario, state = line_state
        from repro.dataplane.fib import FibEntry
        from repro.controlplane.rib import NextHop

        prefix = Prefix("198.51.100.0/24")
        atoms_before = state.dataplane.atom_table.num_atoms()
        entry = FibEntry(
            prefix, frozenset({NextHop(interface="eth1", neighbor="r1")})
        )
        state.dataplane.update_fib_entry("r0", prefix, entry)
        assert state.dataplane.atom_table.num_atoms() == atoms_before + 2
        state.dataplane.update_fib_entry("r0", prefix, None)
        assert state.dataplane.atom_table.num_atoms() == atoms_before

    def test_remove_missing_entry_noop(self, line_state):
        _scenario, state = line_state
        delta = state.dataplane.update_fib_entry(
            "r0", Prefix("198.51.100.0/24"), None
        )
        assert not delta.changed and not delta.created
