"""Batched multi-edit analysis: equivalence, registry, and IR tests.

The load-bearing contract of PR 5: for any sequence of changes,
``analyze_batch`` (apply every edit first, union the dirty sets, run
one recompute pass) must produce a report equal to the sequential
composition of per-change ``analyze`` calls — byte-identical
``to_dict()`` output modulo counters — and must agree with the
:class:`~repro.core.snapshot_diff.SnapshotDiff` ground truth on the
combined change.  The property is exercised across every change kind
in :mod:`repro.workloads.changes`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import pytest

from repro.bench.workloads import wan_k8_batch
from repro.config.acl import AclAction, AclRule
from repro.config.text import serialize_configs
from repro.controlplane.bgp import discover_sessions, session_scan_size
from repro.controlplane.simulation import simulate
from repro.core.analyzer import DifferentialNetworkAnalyzer, batch_label
from repro.core.change import (
    AddAclRule,
    BindAcl,
    Change,
    Edit,
    LinkDown,
    RemoveBgpNeighbor,
    SetLocalPref,
    SetOspfCost,
)
from repro.core.change_text import (
    ChangeParseError,
    parse_change,
    parse_change_batch,
    serialize_change_batch,
)
from repro.core.delta import compose_reports
from repro.core.handlers import (
    HandlerEntry,
    handler_for,
    register_change_handler,
    registered_change_handlers,
)
from repro.core.pipeline import DirtySet
from repro.core.snapshot import serialize_topology
from repro.core.snapshot_diff import SnapshotDiff, diff_states
from repro.net.addr import Prefix
from repro.obs import Tracer
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import internet2_bgp, ring_ospf


def _stripped(report) -> str:
    """Canonical JSON of a report minus work statistics."""
    document = report.to_dict()
    document.pop("counters")
    return json.dumps(document, sort_keys=True)


def _assert_batch_equivalent(scenario, changes: list[Change]) -> None:
    """The full batched-analysis contract for one change sequence."""
    label = "equivalence"
    sequential = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    reports = [sequential.analyze(change) for change in changes]
    composed = compose_reports(reports, label=label)

    batched_analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    batched = batched_analyzer.analyze_batch(changes, label=label)

    # Byte-identical JSON documents, modulo timing/work stats.
    assert _stripped(batched) == _stripped(composed), (
        f"batched != sequential composition for "
        f"{[c.label for c in changes]}"
    )
    # Work accounting: the batch records its size.
    assert batched.counters["edits_batched"] == sum(
        len(change.edits) for change in changes
    )
    # Ground truth: SnapshotDiff of the combined change.
    combined = Change(
        edits=[edit for change in changes for edit in change.edits],
        label=label,
    )
    oracle = SnapshotDiff(scenario.snapshot.clone()).analyze(combined)
    assert batched.behavior_signature() == oracle.behavior_signature()
    # Both analyzers converge to the same post-batch state.
    drift = diff_states(sequential.state, batched_analyzer.state)
    assert drift.is_empty(), f"state drift:\n{drift.summary()}"


class TestBatchSequentialEquivalence:
    """analyze_batch == sequential composition, per change kind."""

    def test_link_failures(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=31)
        first, _up1 = gen.random_link_failure()
        second, _up2 = gen.random_link_failure()
        while second.label == first.label:
            second, _up2 = gen.random_link_failure()
        _assert_batch_equivalent(fat_tree_k4_scenario, [first, second])

    def test_fail_recover_pair_cancels(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=32)
        down, up = gen.random_link_failure()
        sequential = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        )
        composed = compose_reports(
            [sequential.analyze(down), sequential.analyze(up)], label="noop"
        )
        batched = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        ).analyze_batch([down, up], label="noop")
        assert batched.is_empty()
        assert composed.is_empty()
        assert _stripped(batched) == _stripped(composed)

    def test_interface_flaps(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=33)
        shutdown, _enable = gen.random_interface_flap()
        other, _ = gen.random_interface_flap()
        _assert_batch_equivalent(fat_tree_k4_scenario, [shutdown, other])

    def test_static_routes(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=34)
        adds = [gen.random_static_route()[0] for _ in range(3)]
        _assert_batch_equivalent(fat_tree_k4_scenario, adds)

    def test_static_batches(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=35)
        add_batch, remove_batch = gen.static_batch(4)
        _assert_batch_equivalent(
            fat_tree_k4_scenario, [add_batch, remove_batch]
        )

    def test_ospf_costs(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=36)
        _assert_batch_equivalent(
            fat_tree_k4_scenario,
            [gen.random_ospf_cost(), gen.random_ospf_cost()],
        )

    def test_acl_blocks(self, fat_tree_k4_scenario):
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=37)
        block, unblock = gen.random_acl_block()
        other_block, _ = gen.random_acl_block()
        _assert_batch_equivalent(fat_tree_k4_scenario, [block, other_block])

    def test_bgp_session_flap(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=38)
        teardown, restore = gen.random_session_flap()
        _assert_batch_equivalent(internet2_scenario, [teardown, restore])

    def test_bgp_prefix_flaps(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=39)
        announce, _withdraw = gen.random_prefix_flap()
        other, _ = gen.random_prefix_flap()
        _assert_batch_equivalent(internet2_scenario, [announce, other])

    def test_bgp_local_pref_flip_with_outage(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=40)
        flip = gen.dual_homed_pref_flip(100, 200)
        down, _up = gen.random_link_failure()
        _assert_batch_equivalent(internet2_scenario, [flip, down])

    def test_mixed_k8_changeset(self, fat_tree_k4_scenario):
        """The acceptance shape: a k=8 mixed batch, byte-identical."""
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=41)
        down, up = gen.random_link_failure()
        shutdown, _enable = gen.random_interface_flap()
        add1, _ = gen.random_static_route()
        add2, _ = gen.random_static_route()
        cost = gen.random_ospf_cost()
        block, _unblock = gen.random_acl_block()  # 3 edits
        changes = [down, shutdown, add1, add2, cost, block]
        assert sum(len(c.edits) for c in changes) == 8
        _assert_batch_equivalent(fat_tree_k4_scenario, changes)

    def test_wan_k8_commit(self, internet2_scenario):
        """The k=8 WAN batch: every BGP dirty axis plus IGP dirt."""
        changes, _recovery = wan_k8_batch(internet2_scenario)
        _assert_batch_equivalent(internet2_scenario, changes)

    def test_wan_k8_recovery(self, internet2_scenario):
        """Its exact inverse, run against the post-commit network."""
        changes, recovery = wan_k8_batch(internet2_scenario)
        committed = DifferentialNetworkAnalyzer(
            internet2_scenario.snapshot.clone()
        )
        committed.analyze_batch(changes)
        post = replace(internet2_scenario, snapshot=committed.snapshot)
        _assert_batch_equivalent(post, recovery)


class TestWhatIfBatch:
    def test_report_matches_committed_batch(self, ring8_scenario):
        gen = ChangeGenerator(ring8_scenario, seed=51)
        down, _up = gen.random_link_failure()
        add, _remove = gen.random_static_route()
        changes = [down, add]
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        speculative = analyzer.what_if_batch(changes, label="L")
        committed = DifferentialNetworkAnalyzer(
            ring8_scenario.snapshot.clone()
        ).analyze_batch(changes, label="L")
        assert _stripped(speculative) == _stripped(committed)

    def test_rolls_back_exactly(self, ring8_scenario):
        base = ring8_scenario.snapshot.clone()
        base_state = simulate(base, precompute_reachability=True)
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        gen = ChangeGenerator(ring8_scenario, seed=52)
        down, _up = gen.random_link_failure()
        block, _unblock = gen.random_acl_block()
        analyzer.what_if_batch([down, block])
        assert serialize_configs(analyzer.snapshot.configs) == (
            serialize_configs(base.configs)
        )
        assert serialize_topology(analyzer.snapshot.topology) == (
            serialize_topology(base.topology)
        )
        drift = diff_states(base_state, analyzer.state)
        assert drift.is_empty(), f"drift:\n{drift.summary()}"

    def test_rolls_back_on_apply_error(self, ring8_scenario):
        base = ring8_scenario.snapshot.clone()
        base_state = simulate(base, precompute_reachability=True)
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        good = Change.of(LinkDown("r0", "r1"), label="fine")
        bad = Change.of(LinkDown("r0", "no_such_router"), label="broken")
        with pytest.raises(Exception):
            analyzer.what_if_batch([good, bad])
        drift = diff_states(base_state, analyzer.state)
        assert drift.is_empty()

    def test_failed_committed_batch_still_bumps_generation(
        self, ring8_scenario
    ):
        """A committed application that fails mid-batch may have
        mutated state (no fork, no rollback), so caches keyed on
        ``generation`` — e.g. the campaign runner's pickled base —
        must see it move.  Forked failures roll back and must not."""
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        start = analyzer.generation
        bad = Change.of(
            LinkDown("r0", "r1"), LinkDown("r0", "no_such_router")
        )
        with pytest.raises(Exception):
            analyzer.analyze_batch([bad])
        assert analyzer.generation == start + 1
        with pytest.raises(Exception):
            analyzer.what_if_batch([bad])
        assert analyzer.generation == start + 1

    def test_mid_fork_atom_split_through_batch(self):
        """The PR-1 regression shape, run as one what_if_batch.

        An ACL on an unaligned /26 splits a host-subnet atom and a
        link failure then dirties the whole subnet inside the same
        fork.  Rollback must not reinstate cache entries keyed by the
        fork-created atoms, and a committed analysis afterwards must
        still match the baseline.
        """
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
        analyzer.what_if_batch([acl_block, down])
        live = set(analyzer.state.dataplane.atom_table.atoms())
        stale = analyzer.state.reachability.cached_atoms() - live
        assert not stale, f"stale atoms survived rollback: {sorted(stale)}"
        committed = analyzer.analyze(down)
        reference = SnapshotDiff(base.clone()).analyze(down)
        assert (
            committed.behavior_signature() == reference.behavior_signature()
        )


# -- handler registry --------------------------------------------------------


@dataclass(frozen=True)
class _SilenceOspf(Edit):
    """Test-only change kind: stop OSPF on every interface of a router."""

    router: str

    def apply(self, snapshot) -> None:
        config = snapshot.config(self.router)
        assert config.ospf is not None
        for settings in config.ospf.interfaces.values():
            settings.enabled = False

    def describe(self) -> str:
        return f"{self.router}: silence ospf"


class TestHandlerRegistry:
    def test_builtins_registered(self):
        registry = registered_change_handlers()
        assert LinkDown in registry
        assert SetOspfCost in registry
        assert isinstance(registry[LinkDown], HandlerEntry)

    def test_mro_resolution_covers_subclasses(self):
        from repro.core.change import LinkUp

        assert LinkUp not in registered_change_handlers()
        assert handler_for(LinkUp) is handler_for(LinkDown)

    def test_unregistered_type_raises(self):
        @dataclass(frozen=True)
        class Unknown(Edit):
            pass

        with pytest.raises(TypeError, match="register_change_handler"):
            handler_for(Unknown)
        analyzer = DifferentialNetworkAnalyzer(ring_ospf(4).snapshot)
        with pytest.raises(TypeError, match="Unknown"):
            analyzer.analyze(Change.of(Unknown()))

    def test_entry_repr_names_type_and_function(self):
        entry = handler_for(LinkDown)
        text = repr(entry)
        assert "LinkDown" in text and "change-handler" in text

    def test_custom_change_kind_end_to_end(self):
        """A workload-registered change kind analyzes correctly
        without any analyzer edits (oracle: SnapshotDiff)."""

        @register_change_handler(_SilenceOspf)
        def _handle_silence(analyzer, edit, dirty) -> None:
            snapshot = analyzer.snapshot
            ospf = snapshot.config(edit.router).ospf
            interfaces = list(ospf.interfaces) if ospf is not None else []
            edit.apply(snapshot)
            dirty.ospf.merge(
                analyzer._ospf.refresh_router_adverts(edit.router)
            )
            for interface in interfaces:
                peer = snapshot.topology.interface_peer(
                    edit.router, interface
                )
                if peer is not None:
                    dirty.ospf.merge(
                        analyzer._ospf.refresh_pair(edit.router, peer.router)
                    )

        scenario = ring_ospf(8)
        change = Change.of(_SilenceOspf("r3"), label="silence r3")
        analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
        report = analyzer.analyze(change)
        reference = SnapshotDiff(scenario.snapshot.clone()).analyze(change)
        assert not report.is_empty()
        assert report.behavior_signature() == reference.behavior_signature()
        # And it forks like any built-in kind.
        speculative = DifferentialNetworkAnalyzer(
            scenario.snapshot.clone()
        ).what_if(change)
        assert (
            speculative.behavior_signature() == report.behavior_signature()
        )


# -- DirtySet IR -------------------------------------------------------------


class TestDirtySet:
    def test_merge_unions_everything(self):
        first = DirtySet()
        first.spf_sources.add(("r1", 0))
        first.touched_routers.add("r1")
        first.acl_spans.append((0, 10))
        second = DirtySet(all_bgp_dirty=True)
        second.spf_sources.add(("r2", 0))
        second.advert_prefixes.setdefault(0, set()).add(Prefix("10.0.0.0/24"))
        second.bgp_prefixes.add(Prefix("10.9.0.0/24"))
        second.bgp_sessions.add(("r1", "r2"))
        second.bgp_adj_rib.add(("r2", "r1"))
        second.bgp_policy.add("r3")
        merged = first.merge(second)
        assert merged is first
        assert first.spf_sources == {("r1", 0), ("r2", 0)}
        assert first.touched_routers == {"r1"}
        assert first.bgp_prefixes == {Prefix("10.9.0.0/24")}
        assert first.bgp_sessions == {("r1", "r2")}
        assert first.bgp_adj_rib == {("r2", "r1")}
        assert first.bgp_policy == {"r3"}
        assert first.acl_spans == [(0, 10)]
        assert first.all_bgp_dirty
        assert Prefix("10.0.0.0/24") in first.advert_prefixes[0]

    def test_empty_and_repr(self):
        dirty = DirtySet()
        assert dirty.is_empty()
        assert repr(dirty) == "DirtySet(empty)"
        dirty.touched_routers.update({"a", "b"})
        dirty.bgp_sessions.add(("a", "b"))
        assert not dirty.is_empty()
        text = repr(dirty)
        assert "2 routers" in text and "1 session pairs" in text


# -- script bridge -----------------------------------------------------------


class TestScriptBatchBridge:
    def test_single_stanza_matches_parse_change(self):
        text = "link down r0 r1\nospf cost r0 eth1 20\n"
        batch = parse_change_batch(text, label="script")
        single = parse_change(text, label="script")
        assert len(batch) == 1
        assert batch[0].edits == single.edits
        assert batch[0].label == "script"

    def test_separators_split_and_label(self):
        text = (
            "link down r0 r1\n"
            "---\n"
            "# comment\n"
            "ospf cost r0 eth1 20\n"
            "---\n"
            "---\n"
            "static add r2 10.9.0.0/24 drop\n"
        )
        batch = parse_change_batch(text, label="plan")
        assert [len(change.edits) for change in batch] == [1, 1, 1]
        assert [change.label for change in batch] == [
            "plan#1",
            "plan#2",
            "plan#3",
        ]

    def test_empty_script_yields_one_empty_change(self):
        batch = parse_change_batch("# nothing\n---\n", label="empty")
        assert len(batch) == 1
        assert batch[0].edits == []

    def test_parse_change_rejects_separator(self):
        with pytest.raises(ChangeParseError):
            parse_change("link down r0 r1\n---\nlink up r0 r1\n")

    def test_batch_round_trip(self):
        text = "link down r0 r1\n---\nospf cost r0 eth1 20\n"
        batch = parse_change_batch(text, label="rt")
        rendered = serialize_change_batch(batch)
        again = parse_change_batch(rendered, label="rt")
        assert [c.edits for c in again] == [c.edits for c in batch]

    def test_batch_label_helper(self):
        assert batch_label([Change(label="a")]) == "a"
        assert batch_label([Change(label="")]) == "differential"
        assert batch_label([Change(label="a"), Change(label="b")]) == "a + b"
        assert (
            batch_label([Change(label="a"), Change(label="")])
            == "batch(2 changes)"
        )


# -- facade ------------------------------------------------------------------


class TestNetworkBatchFacade:
    def test_apply_accepts_sequences(self, fat_tree_k4_scenario):
        from repro.api import ChangeSet, Network

        gen = ChangeGenerator(fat_tree_k4_scenario, seed=61)
        down, up = gen.random_link_failure()
        network = Network.from_snapshot(fat_tree_k4_scenario.snapshot.clone())
        preview = network.preview([down, up], label="flap")
        assert preview.is_empty()
        report = network.apply(
            [ChangeSet("d").add(*down.edits), ChangeSet("u").add(*up.edits)],
            label="flap",
        )
        assert report.is_empty()
        assert report.counters["edits_batched"] == 2
        assert report.label == "flap"

    def test_apply_single_change_unchanged(self, fat_tree_k4_scenario):
        from repro.api import Network

        gen = ChangeGenerator(fat_tree_k4_scenario, seed=62)
        down, _up = gen.random_link_failure()
        network = Network.from_snapshot(fat_tree_k4_scenario.snapshot.clone())
        preview = network.preview(down)
        reference = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        ).what_if(down)
        assert preview.behavior_signature() == reference.behavior_signature()
        assert preview.label == down.label


class TestBatchProvenance:
    """Provenance rides the PR-5 equivalence contract.

    The full per-kind byte-identity matrix (all 19 edit kinds, batched
    vs sequential-composition attribution) lives in
    ``tests/test_provenance.py``; here we pin the two interactions with
    the batching machinery itself.
    """

    def test_provenance_flag_leaves_report_unchanged(
        self, fat_tree_k4_scenario
    ):
        """provenance=True must not perturb any non-provenance byte."""
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=63)
        down, _up = gen.random_link_failure()
        add, _remove = gen.random_static_route()
        changes = [down, add]
        analyzer = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        )
        plain = analyzer.what_if_batch(changes)
        traced = analyzer.what_if_batch(changes, provenance=True)
        traced_doc = traced.to_dict()
        assert traced_doc.pop("provenance")["kind"] == "provenance"
        plain_doc = plain.to_dict()
        for doc in (plain_doc, traced_doc):
            doc.pop("counters")
        assert json.dumps(plain_doc, sort_keys=True) == json.dumps(
            traced_doc, sort_keys=True
        )

    def test_compose_reports_renumbers_edit_ids(self, fat_tree_k4_scenario):
        """Sequential composition offsets each report's edit table so
        ids stay dense and in application order across the batch."""
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=64)
        down, _up = gen.random_link_failure()
        add, _remove = gen.random_static_route()
        analyzer = DifferentialNetworkAnalyzer(
            fat_tree_k4_scenario.snapshot.clone()
        )
        with analyzer.fork():
            reports = [
                analyzer.analyze(change, provenance=True)
                for change in (down, add)
            ]
        composed = compose_reports(reports, label="pair")
        record = composed.provenance
        assert record is not None
        assert [info.edit_id for info in record.edits] == [0, 1]
        assert {info.kind for info in record.edits} == {
            "LinkDown",
            "AddStaticRoute",
        }
        # Every recorded cause refers to a renumbered, registered id.
        for ids in list(record.rib_causes.values()) + list(
            record.fib_causes.values()
        ):
            assert ids <= record.all_ids()


def _scoped_vs_full_rescan(scenario, changes: list[Change]):
    """Stage-granularity oracle: pair-scoped session rediscovery must
    be byte-identical to a full ``discover_sessions`` rebuild.

    One default analyzer runs the batch; its session list must equal a
    full rescan of the post-batch snapshot, its report must match the
    SnapshotDiff oracle, and its converged state must equal a fresh
    ``simulate()``.  Returns ``(report, full rescan size)`` so callers
    can add work-count assertions on ``bgp_sessions_rescanned``.
    """
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    report = analyzer.analyze_batch(changes, label="stage-oracle")
    # The converged session lists agree element-for-element (canonical
    # sort order is part of the contract).
    assert analyzer.state.bgp_sessions == discover_sessions(
        analyzer.snapshot, analyzer.state.address_index
    ), (
        f"scoped session rediscovery diverges from full rescan for "
        f"{[c.label for c in changes]}"
    )
    combined = Change(
        edits=[edit for change in changes for edit in change.edits],
        label="stage-oracle",
    )
    oracle = SnapshotDiff(scenario.snapshot.clone()).analyze(combined)
    assert report.behavior_signature() == oracle.behavior_signature()
    fresh = simulate(analyzer.snapshot.clone(), precompute_reachability=True)
    drift = diff_states(analyzer.state, fresh)
    assert drift.is_empty(), f"state drift:\n{drift.summary()}"
    return report, session_scan_size(analyzer.snapshot)


class TestBgpStageGranularity:
    """Per-edit-kind oracles for the staged BGP session discovery.

    For every edit kind that deposits on the ``bgp_sessions`` axis,
    the pair-scoped rediscovery path must produce the same session
    list as rebuilding it from scratch, with a report and converged
    state that match the from-scratch oracles — while validating
    strictly fewer directed neighbor entries.
    """

    def test_link_down_scoped_rescan(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=81)
        down, _up = gen.random_link_failure()
        report, full_scan = _scoped_vs_full_rescan(internet2_scenario, [down])
        assert report.counters["bgp_sessions_rescanned"] < full_scan

    def test_link_down_up_scoped_rescan(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=82)
        down, up = gen.random_link_failure()
        _scoped_vs_full_rescan(internet2_scenario, [down, up])

    def test_interface_shutdown_scoped_rescan(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=83)
        shutdown, _enable = gen.random_interface_flap()
        report, full_scan = _scoped_vs_full_rescan(
            internet2_scenario, [shutdown]
        )
        assert report.counters["bgp_sessions_rescanned"] < full_scan

    def test_interface_flap_scoped_rescan(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=84)
        shutdown, enable = gen.random_interface_flap()
        _scoped_vs_full_rescan(internet2_scenario, [shutdown, enable])

    def test_remove_neighbor_scoped_rescan(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=85)
        teardown, _restore = gen.random_session_flap()
        report, full_scan = _scoped_vs_full_rescan(
            internet2_scenario, [teardown]
        )
        assert 0 < report.counters["bgp_sessions_rescanned"] < full_scan

    def test_session_flap_scoped_rescan(self, internet2_scenario):
        """AddBgpNeighbor rides in via the restore half of the flap."""
        gen = ChangeGenerator(internet2_scenario, seed=86)
        teardown, restore = gen.random_session_flap()
        _scoped_vs_full_rescan(internet2_scenario, [teardown, restore])

    def test_local_pref_edit_scoped_rescan(self, internet2_scenario):
        """SetLocalPref deposits on bgp_adj_rib, not bgp_sessions —
        no session is rescanned."""
        gen = ChangeGenerator(internet2_scenario, seed=87)
        flip = gen.dual_homed_pref_flip(100, 200)
        report, _full_scan = _scoped_vs_full_rescan(internet2_scenario, [flip])
        assert report.counters["bgp_sessions_rescanned"] == 0


def _igp_driven(scenario, setup: list[Change], change: Change):
    """Commit ``setup``, then analyze ``change`` traced.

    The report must equal SnapshotDiff's and the converged state a
    fresh ``simulate()``.  Returns the report and the labels of the
    ``pipeline.bgp.adjrib`` span.
    """
    tracer = Tracer()
    analyzer = DifferentialNetworkAnalyzer(
        scenario.snapshot.clone(), tracer=tracer
    )
    for step in setup:
        analyzer.analyze(step)
    expected = SnapshotDiff(analyzer.snapshot.clone()).analyze(change)
    tracer.reset()
    report = analyzer.analyze(change)
    assert report.behavior_signature() == expected.behavior_signature()
    fresh = simulate(analyzer.snapshot.clone(), precompute_reachability=True)
    drift = diff_states(analyzer.state, fresh)
    assert drift.is_empty(), f"state drift:\n{drift.summary()}"
    return report, tracer.find("pipeline.bgp.adjrib").labels


class TestIgpDrivenBgp:
    """IGP writes move BGP only through the (router, next hop) pairs and
    multihop sessions under the written keys: each way they can move,
    against SnapshotDiff, and the pairs fingerprinted per pass."""

    def test_cost_change_flips_best_path_on_igp_tiebreak(
        self, internet2_scenario
    ):
        # Equal local-prefs leave cust_dual's two exits (SEAT, NEWY)
        # to the IGP-cost tie-break; KANS's cost towards SEAT then moves.
        dual = set(internet2_scenario.fabric.host_subnets["cust_dual"])
        report, _labels = _igp_driven(
            internet2_scenario,
            [Change.of(SetLocalPref("SEAT", "IMP_CUST_DUAL_0", 10, 100))],
            Change.of(SetOspfCost("KANS", "eth0", 11)),
        )
        flipped = {
            prefix
            for prefix, (old, new) in report.rib_changes["KANS"].items()
            if old is not None
            and new is not None
            and old.protocol == new.protocol == "bgp"
            and old.bgp_next_hop != new.bgp_next_hop
        }
        assert flipped == dual

    def test_link_down_moves_only_resolved_hops(self, internet2_scenario):
        # LOSA--SEAT at cost 20 ties LOSA--SALT--SEAT, so losing it
        # changes no IGP cost anywhere, only next-hop sets.
        customer_prefixes = {
            prefix
            for router, prefixes in internet2_scenario.fabric.host_subnets.items()
            if internet2_scenario.fabric.roles.get(router) == "customer"
            for prefix in prefixes
        }
        report, labels = _igp_driven(
            internet2_scenario,
            [
                Change.of(
                    SetOspfCost("LOSA", "eth0", 20),
                    SetOspfCost("SEAT", "eth0", 20),
                )
            ],
            Change.of(LinkDown("LOSA", "SEAT", "eth0", "eth0")),
        )
        assert report.counters["bgp_prefixes_resolved"] == 0
        assert labels["resolution_refreshes"] > 0
        assert any(
            prefix in customer_prefixes
            for entries in report.fib_changes.values()
            for prefix in entries
        )

    def test_cutting_a_loopback_off_downs_its_ibgp_sessions(
        self, internet2_scenario
    ):
        # SEAT's only two core links: its loopback leaves the IGP, so
        # every iBGP multihop session to or from it goes down.
        report, labels = _igp_driven(
            internet2_scenario,
            [],
            Change.of(
                LinkDown("LOSA", "SEAT", "eth0", "eth0"),
                LinkDown("SALT", "SEAT", "eth0", "eth1"),
            ),
        )
        assert labels["liveness_dirty"] is True
        assert report.counters["bgp_pairs_fingerprinted"] > 0

    def test_dropping_an_ibgp_session_escalates(self, internet2_scenario):
        # A multihop session that goes has no post-image: its liveness
        # flips, which re-solves every prefix.
        newy_loopback = internet2_scenario.topology.router("NEWY").interface(
            "lo0"
        ).address
        report, labels = _igp_driven(
            internet2_scenario,
            [],
            Change.of(RemoveBgpNeighbor("SEAT", newy_loopback)),
        )
        assert labels["liveness_dirty"] is False
        base = simulate(internet2_scenario.snapshot.clone())
        assert report.counters["bgp_prefixes_resolved"] == len(
            base.bgp_solutions
        )

    def test_pairs_fingerprinted_follow_igp_writes(
        self, internet2_scenario, fat_tree_k4_scenario
    ):
        wan = DifferentialNetworkAnalyzer(internet2_scenario.snapshot.clone())
        gen = ChangeGenerator(internet2_scenario, seed=93)
        flip = gen.dual_homed_pref_flip(100, 200)
        announce, _withdraw = gen.random_prefix_flap()
        down, _up = gen.random_link_failure()
        assert wan.what_if(flip).counters["bgp_pairs_fingerprinted"] == 0
        assert wan.what_if(announce).counters["bgp_pairs_fingerprinted"] == 0
        assert wan.what_if(down).counters["bgp_pairs_fingerprinted"] > 0
        dc = DifferentialNetworkAnalyzer(fat_tree_k4_scenario.snapshot.clone())
        dc_down, _dc_up = ChangeGenerator(
            fat_tree_k4_scenario, seed=93
        ).random_link_failure()
        assert dc.what_if(dc_down).counters["bgp_pairs_fingerprinted"] == 0


class TestBatchPlanner:
    """The planner's static BGP scope estimate: deterministic and
    bounded by the solution space."""

    def test_plan_is_deterministic(self, internet2_scenario):
        analyzer = DifferentialNetworkAnalyzer(
            internet2_scenario.snapshot.clone()
        )
        gen = ChangeGenerator(internet2_scenario, seed=90)
        # IGP edits estimate zero dirty prefixes.
        cost_batch = [gen.random_ospf_cost()]
        first = analyzer.planner.plan(cost_batch)
        second = analyzer.planner.plan(cost_batch)
        assert first == second  # BatchPlan is a frozen dataclass
        assert first.estimated_prefixes == 0
        assert first.total_prefixes > 0
        # BGP-surface batches estimate identically on repeat too.
        teardown, _restore = gen.random_session_flap()
        flip = gen.dual_homed_pref_flip(100, 200)
        bgp_batch = [teardown, flip]
        assert analyzer.planner.plan(bgp_batch) == analyzer.planner.plan(
            bgp_batch
        )

    def test_add_neighbor_estimates_certain_full(self, internet2_scenario):
        gen = ChangeGenerator(internet2_scenario, seed=92)
        teardown, restore = gen.random_session_flap()
        analyzer = DifferentialNetworkAnalyzer(
            internet2_scenario.snapshot.clone()
        )
        analyzer.analyze(teardown)
        plan = analyzer.planner.plan([restore])
        assert plan.total_prefixes > 0
        assert plan.estimated_prefixes == plan.total_prefixes
