"""Fork/rollback equivalence for the analyzer's what-if API.

For every change kind the suite asserts the two halves of the
contract:

1. **Report equality** — ``what_if(change)`` produces exactly the
   report a committed ``analyze(change)`` on a fresh analyzer would.
2. **Rollback exactness** — after the fork exits, the snapshot
   serializes identically to the base and the converged state is
   behaviourally indistinguishable from a from-scratch simulation of
   the base (oracle: :func:`~repro.core.snapshot_diff.diff_states`);
   and a *committed* analysis run afterwards still agrees with the
   :class:`~repro.core.snapshot_diff.SnapshotDiff` baseline, proving
   the restored incremental structures are live, not just
   display-equal.
"""

from __future__ import annotations

import pytest

from repro.config.text import serialize_configs
from repro.controlplane.simulation import simulate
from repro.core import codec
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import (
    Change,
    ChangeError,
    DisableOspfInterface,
    EnableOspfInterface,
    LinkDown,
)
from repro.core.forking import ForkError
from repro.core.snapshot import serialize_topology
from repro.core.snapshot_diff import SnapshotDiff, diff_states
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf, internet2_bgp, ring_ospf


def _assert_rolled_back(analyzer, base_snapshot, base_state):
    assert serialize_configs(analyzer.snapshot.configs) == serialize_configs(
        base_snapshot.configs
    )
    assert serialize_topology(analyzer.snapshot.topology) == serialize_topology(
        base_snapshot.topology
    )
    drift = diff_states(base_state, analyzer.state)
    assert drift.is_empty(), f"state drifted after rollback:\n{drift.summary()}"


def _assert_what_if_equivalent(scenario, change):
    base_snapshot = scenario.snapshot.clone()
    base_state = simulate(base_snapshot, precompute_reachability=True)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())

    committed = DifferentialNetworkAnalyzer(base_snapshot.clone()).analyze(
        change
    )
    speculative = analyzer.what_if(change)
    assert (
        speculative.behavior_signature() == committed.behavior_signature()
    ), f"what_if diverged from committed analyze for {change.label!r}"

    _assert_rolled_back(analyzer, base_snapshot, base_state)

    # The restored incremental state must keep producing correct
    # committed analyses (catches restores that only look right).
    verify = analyzer.analyze(change)
    reference = SnapshotDiff(base_snapshot.clone()).analyze(change)
    assert verify.behavior_signature() == reference.behavior_signature()


class TestWhatIfChangeKinds:
    def test_link_failure(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=11)
        down, _up = gen.random_link_failure()
        _assert_what_if_equivalent(fat_tree_k4_scenario, down)

    def test_interface_flap(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=12)
        shutdown, _enable = gen.random_interface_flap()
        _assert_what_if_equivalent(fat_tree_k4_scenario, shutdown)

    def test_static_route(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=13)
        add, _remove = gen.random_static_route()
        _assert_what_if_equivalent(fat_tree_k4_scenario, add)

    def test_ospf_cost(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=14)
        _assert_what_if_equivalent(
            fat_tree_k4_scenario, gen.random_ospf_cost()
        )

    def test_acl_block(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=15)
        block, _unblock = gen.random_acl_block()
        _assert_what_if_equivalent(fat_tree_k4_scenario, block)

    def test_bgp_session_teardown(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=16)
        teardown, _restore = gen.random_session_flap()
        _assert_what_if_equivalent(internet2_scenario, teardown)

    def test_bgp_prefix_announce(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=17)
        announce, _withdraw = gen.random_prefix_flap()
        _assert_what_if_equivalent(internet2_scenario, announce)

    def test_bgp_local_pref_flip(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=18)
        _assert_what_if_equivalent(
            internet2_scenario, gen.dual_homed_pref_flip(100, 200)
        )

    def test_wan_link_failure(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=19)
        down, _up = gen.random_link_failure()
        _assert_what_if_equivalent(internet2_scenario, down)


class TestForkSemantics:
    def test_sequential_what_ifs_stay_on_base(self, ring8_scenario):
        base = ring8_scenario.snapshot.clone()
        base_state = simulate(base, precompute_reachability=True)
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        gen = ChangeGenerator(ring8_scenario, seed=21)
        for _ in range(5):
            down, _up = gen.random_link_failure()
            analyzer.what_if(down)
        _assert_rolled_back(analyzer, base, base_state)

    def test_fork_context_spans_multiple_analyses(self, ring8_scenario):
        base = ring8_scenario.snapshot.clone()
        base_state = simulate(base, precompute_reachability=True)
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        gen = ChangeGenerator(ring8_scenario, seed=22)
        down, up = gen.random_link_failure()
        add, _remove = gen.random_static_route()
        with analyzer.fork() as forked:
            assert forked is analyzer
            first = forked.analyze(down)
            assert not first.is_empty()
            # Cumulative: the next analysis sees the failed link.
            forked.analyze(add)
            forked.analyze(up)
        _assert_rolled_back(analyzer, base, base_state)

    def test_what_if_rolls_back_on_apply_error(self, ring8_scenario):
        base = ring8_scenario.snapshot.clone()
        base_state = simulate(base, precompute_reachability=True)
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        bad = Change.of(
            LinkDown("r0", "r1"),
            LinkDown("r0", "no_such_router"),
            label="partially applicable",
        )
        with pytest.raises(Exception):
            analyzer.what_if(bad)
        _assert_rolled_back(analyzer, base, base_state)

    @pytest.mark.parametrize("cost", [0, -5])
    def test_ospf_enable_below_cost_floor_rejected(
        self, fat_tree_k4_scenario, cost
    ):
        # Same floor as SetOspfCost: a cost below 1 would run SPF on a
        # non-positive weight.
        analyzer = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        )
        base = codec.snapshot_digest(analyzer.snapshot)
        change = Change.of(
            DisableOspfInterface("agg0_0", "eth0"),
            EnableOspfInterface("agg0_0", "eth0", area=0, cost=cost),
        )
        with pytest.raises(ChangeError, match="OSPF cost must be >= 1"):
            analyzer.what_if(change)
        assert codec.snapshot_digest(analyzer.snapshot) == base

    def test_nested_forks_rejected(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        with analyzer.fork():
            with pytest.raises(ForkError):
                with analyzer.fork():
                    pass  # pragma: no cover

    def test_what_if_matches_snapshot_diff_oracle(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        gen = ChangeGenerator(ring8_scenario, seed=23)
        down, _up = gen.random_link_failure()
        speculative = analyzer.what_if(down)
        oracle = SnapshotDiff(ring8_scenario.snapshot.clone()).analyze(down)
        assert (
            speculative.behavior_signature() == oracle.behavior_signature()
        )

    def test_multi_analyze_fork_leaves_no_stale_reachability(self):
        """Atoms created mid-fork must not survive rollback in the cache.

        An ACL on an unaligned /26 splits a host-subnet atom; a second
        analysis inside the same fork then dirties the whole subnet, so
        its "before" capture is keyed by the split (fork-created)
        atoms.  Rollback must not reinstate those: they would shadow
        the true base entries and a later committed analysis would
        report phantom reachability changes.
        """
        from repro.config.acl import AclAction, AclRule
        from repro.core.change import AddAclRule, BindAcl
        from repro.net.addr import Prefix

        scenario = ring_ospf(8)
        base = scenario.snapshot.clone()
        analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
        subnet = scenario.fabric.host_subnets["r2"][0]
        sub26 = Prefix(subnet.first + 64, 26)
        acl_block = Change.of(
            AddAclRule(
                "r1",
                "T",
                AclRule(action=AclAction.PERMIT, dst=Prefix("0.0.0.0/0")),
            ),
            AddAclRule(
                "r1", "T", AclRule(action=AclAction.DENY, dst=sub26), position=0
            ),
            BindAcl("r1", "eth1", "T", "out"),
            label="block /26 behind r1",
        )
        down = Change.of(LinkDown("r4", "r5"), label="fail r4--r5")
        with analyzer.fork():
            analyzer.analyze(acl_block)
            analyzer.analyze(down)
        live = set(analyzer.state.dataplane.atom_table.atoms())
        stale = analyzer.state.reachability.cached_atoms() - live
        assert not stale, f"stale atoms survived rollback: {sorted(stale)}"
        committed = analyzer.analyze(down)
        reference = SnapshotDiff(base.clone()).analyze(down)
        assert (
            committed.behavior_signature() == reference.behavior_signature()
        )

    def test_interleaved_what_if_and_commit(self, fat_tree_k4_scenario):
        """what_if between commits sees the committed state, not base."""
        analyzer = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        )
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=24)
        down, up = gen.random_link_failure()
        committed_down = analyzer.analyze(down)
        assert not committed_down.is_empty()
        # Speculating the recovery from the failed state reports the
        # inverse delta; state stays failed afterwards.
        speculative_up = analyzer.what_if(up)
        assert not speculative_up.is_empty()
        committed_up = analyzer.analyze(up)
        assert (
            speculative_up.behavior_signature()
            == committed_up.behavior_signature()
        )
