"""Causal provenance: edit→delta attribution, event log, explain.

The PR-7 contracts:

- ``analyze_batch(..., provenance=True)`` attributes every RIB/FIB
  change, ACL span, reachability segment, and violation to the edit
  ids that (may have) caused it.
- For batches whose edits have disjoint dirty footprints — including
  every single-change batch — the provenance document is
  **byte-identical** between the batched analysis and the sequential
  composition of per-change analyses (``compose_reports``).  The
  property is exercised across all 19 built-in edit kinds.
- For overlapping footprints attribution stays a sound superset:
  every edit that actually caused a delta is in its cause set.
- The structured event log is append-only, deterministic, and merges
  byte-identically across process boundaries.
"""

from __future__ import annotations

import json

import pytest

from repro.config.routemap import RouteMapClause
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import (
    AddRouteMapClause,
    Change,
    DisableOspfInterface,
    EnableInterface,
    EnableOspfInterface,
    LinkDown,
    LinkUp,
    RemoveRouteMapClause,
    SetOspfCost,
    ShutdownInterface,
)
from repro.core.delta import DeltaReport, compose_reports
from repro.core.serialize import SchemaError
from repro.obs import EventLog
from repro.obs.provenance import EditInfo, ProvenanceRecord
from repro.workloads.changes import ChangeGenerator


def _stripped(report) -> str:
    """Canonical JSON of a report minus work statistics."""
    document = report.to_dict()
    document.pop("counters")
    return json.dumps(document, sort_keys=True)


def _assert_provenance_equivalent(snapshot, changes, setup=None):
    """Batched provenance == sequential composition, byte-identical."""
    batched_analyzer = DifferentialNetworkAnalyzer(snapshot.clone())
    if setup is not None:
        batched_analyzer.analyze(setup)
    batched = batched_analyzer.what_if_batch(changes, provenance=True)

    sequential = DifferentialNetworkAnalyzer(snapshot.clone())
    if setup is not None:
        sequential.analyze(setup)
    with sequential.fork():
        reports = [
            sequential.analyze(change, provenance=True) for change in changes
        ]
    composed = compose_reports(reports, label=batched.label)

    assert batched.provenance is not None
    assert composed.provenance is not None
    assert _stripped(batched) == _stripped(composed), (
        f"provenance drift for {[c.label for c in changes]}"
    )
    # The edit table is the batch, in application order.
    assert [info.kind for info in batched.provenance.edits] == [
        type(edit).__name__ for change in changes for edit in change.edits
    ]
    return batched


# -- all 19 edit kinds through the full provenance pipeline ------------------


def _kind_case(kind: str, fat_tree, internet2):
    """(snapshot, setup change or None, changes) for one edit kind."""
    gen = ChangeGenerator(fat_tree, seed=71)
    bgp_gen = ChangeGenerator(internet2, seed=72)
    if kind == "LinkDown":
        return fat_tree.snapshot, None, [
            Change.of(LinkDown("agg0_0", "core0"), label="down")
        ]
    if kind == "LinkUp":
        down = Change.of(LinkDown("agg0_0", "core0"), label="down")
        return fat_tree.snapshot, down, [
            Change.of(LinkUp("agg0_0", "core0"), label="up")
        ]
    if kind == "ShutdownInterface":
        return fat_tree.snapshot, None, [
            Change.of(ShutdownInterface("edge0_0", "eth0"), label="shut")
        ]
    if kind == "EnableInterface":
        shut = Change.of(ShutdownInterface("edge0_0", "eth0"), label="shut")
        return fat_tree.snapshot, shut, [
            Change.of(EnableInterface("edge0_0", "eth0"), label="enable")
        ]
    if kind == "AddStaticRoute":
        add, _remove = gen.random_static_route(router="edge0_0")
        return fat_tree.snapshot, None, [add]
    if kind == "RemoveStaticRoute":
        add, remove = gen.random_static_route(router="edge0_0")
        return fat_tree.snapshot, add, [remove]
    if kind == "SetOspfCost":
        return fat_tree.snapshot, None, [
            Change.of(SetOspfCost("edge0_0", "eth0", 33), label="cost")
        ]
    if kind == "DisableOspfInterface":
        return fat_tree.snapshot, None, [
            Change.of(DisableOspfInterface("edge0_0", "eth0"), label="no-ospf")
        ]
    if kind == "EnableOspfInterface":
        disable = Change.of(
            DisableOspfInterface("edge0_0", "eth0"), label="no-ospf"
        )
        return fat_tree.snapshot, disable, [
            Change.of(EnableOspfInterface("edge0_0", "eth0"), label="ospf")
        ]
    if kind in ("AddAclRule", "BindAcl"):
        block, _unblock = gen.random_acl_block()
        return fat_tree.snapshot, None, [block]
    if kind == "RemoveAclRule":
        block, unblock = gen.random_acl_block()
        return fat_tree.snapshot, block, [unblock]
    if kind == "AnnouncePrefix":
        announce, _withdraw = bgp_gen.random_prefix_flap()
        return internet2.snapshot, None, [announce]
    if kind == "WithdrawPrefix":
        announce, withdraw = bgp_gen.random_prefix_flap()
        return internet2.snapshot, announce, [withdraw]
    if kind == "RemoveBgpNeighbor":
        teardown, _restore = bgp_gen.random_session_flap()
        return internet2.snapshot, None, [teardown]
    if kind == "AddBgpNeighbor":
        teardown, restore = bgp_gen.random_session_flap()
        return internet2.snapshot, teardown, [restore]
    if kind == "SetLocalPref":
        return internet2.snapshot, None, [bgp_gen.dual_homed_pref_flip()]
    if kind in ("AddRouteMapClause", "RemoveRouteMapClause"):
        router = next(
            name
            for name, config in sorted(internet2.snapshot.configs.items())
            if config.route_maps
        )
        map_name = sorted(internet2.snapshot.configs[router].route_maps)[0]
        clause = RouteMapClause(seq=95, set_local_pref=77)
        add = Change.of(
            AddRouteMapClause(router, map_name, clause), label="clause+"
        )
        if kind == "AddRouteMapClause":
            return internet2.snapshot, None, [add]
        remove = Change.of(
            RemoveRouteMapClause(router, map_name, 95), label="clause-"
        )
        return internet2.snapshot, add, [remove]
    raise AssertionError(f"unhandled kind {kind}")


ALL_EDIT_KINDS = [
    "LinkDown",
    "LinkUp",
    "ShutdownInterface",
    "EnableInterface",
    "AddStaticRoute",
    "RemoveStaticRoute",
    "SetOspfCost",
    "EnableOspfInterface",
    "DisableOspfInterface",
    "AnnouncePrefix",
    "WithdrawPrefix",
    "AddBgpNeighbor",
    "RemoveBgpNeighbor",
    "SetLocalPref",
    "AddRouteMapClause",
    "RemoveRouteMapClause",
    "AddAclRule",
    "RemoveAclRule",
    "BindAcl",
]


class TestAttributionByteIdentity:
    """Batched == sequential-composition provenance, per edit kind."""

    @pytest.mark.parametrize("kind", ALL_EDIT_KINDS)
    def test_kind(self, kind, fat_tree_k4_scenario, internet2_scenario):
        snapshot, setup, changes = _kind_case(
            kind, fat_tree_k4_scenario, internet2_scenario
        )
        report = _assert_provenance_equivalent(snapshot, changes, setup)
        assert any(info.kind == kind for info in report.provenance.edits)

    def test_disjoint_static_routes_across_changes(
        self, fat_tree_k4_scenario
    ):
        """Two statics on different routers: disjoint footprints, so
        cross-change attribution is exact and byte-identical."""
        gen = ChangeGenerator(fat_tree_k4_scenario, seed=73)
        first, _ = gen.random_static_route(router="edge0_0")
        second, _ = gen.random_static_route(router="edge3_1")
        report = _assert_provenance_equivalent(
            fat_tree_k4_scenario.snapshot, [first, second]
        )
        record = report.provenance
        # Each router's new entry is pinned to exactly its own edit.
        assert all(
            len(ids) == 1 for ids in record.fib_causes.values()
        )

    def test_disjoint_prefix_announcements(self, internet2_scenario):
        """Two announcements of different prefixes: per-prefix BGP
        attribution stays exact across the batch."""
        gen = ChangeGenerator(internet2_scenario, seed=74)
        first, _ = gen.random_prefix_flap()
        second, _ = gen.random_prefix_flap()
        _assert_provenance_equivalent(
            internet2_scenario.snapshot, [first, second]
        )

    def test_overlapping_batch_is_sound_superset(self, fat_tree_k4_scenario):
        """Two link failures sharing a router have overlapping SPF
        footprints — attribution coarsens to the dirty-axis grain but
        must stay a sound superset of the per-change ground truth (and
        the non-provenance report stays byte-identical)."""
        changes = [
            Change.of(LinkDown("agg2_0", "edge2_0"), label="d1"),
            Change.of(LinkDown("agg2_0", "core0"), label="d2"),
        ]
        snapshot = fat_tree_k4_scenario.snapshot
        batched = DifferentialNetworkAnalyzer(snapshot.clone()).what_if_batch(
            changes, provenance=True
        )
        sequential = DifferentialNetworkAnalyzer(snapshot.clone())
        with sequential.fork():
            reports = [
                sequential.analyze(change, provenance=True)
                for change in changes
            ]
        composed = compose_reports(reports, label=batched.label)
        # Everything except provenance is byte-identical (PR-5 contract).
        batched_doc = batched.to_dict()
        composed_doc = composed.to_dict()
        for doc in (batched_doc, composed_doc):
            doc.pop("counters"), doc.pop("provenance")
        assert json.dumps(batched_doc, sort_keys=True) == json.dumps(
            composed_doc, sort_keys=True
        )
        # Same edit table; batched cause sets contain the ground truth.
        assert batched.provenance.edits == composed.provenance.edits
        for key, ids in composed.provenance.rib_causes.items():
            assert ids <= batched.provenance.rib_causes[key], key
        for key, ids in composed.provenance.fib_causes.items():
            assert ids <= batched.provenance.fib_causes[key], key

    def test_batched_provenance_is_deterministic(self, ring8_scenario):
        gen = ChangeGenerator(ring8_scenario, seed=75)
        down, _up = gen.random_link_failure()
        add, _remove = gen.random_static_route()
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        first = analyzer.what_if_batch([down, add], provenance=True)
        second = analyzer.what_if_batch([down, add], provenance=True)
        assert _stripped(first) == _stripped(second)

    def test_provenance_document_round_trips(self, ring8_scenario):
        gen = ChangeGenerator(ring8_scenario, seed=76)
        down, _up = gen.random_link_failure()
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        report = analyzer.what_if_batch([down], provenance=True)
        # Through the report...
        again = DeltaReport.from_dict(report.to_dict())
        assert _stripped(again) == _stripped(report)
        # ...and standalone.
        document = report.provenance.to_dict(report.reach_segments)
        restored = ProvenanceRecord.from_dict(document)
        assert restored.to_dict() == document
        with pytest.raises(SchemaError):
            ProvenanceRecord.from_dict({**document, "schema_version": 99})

    def test_without_provenance_no_document_key(self, ring8_scenario):
        gen = ChangeGenerator(ring8_scenario, seed=77)
        down, _up = gen.random_link_failure()
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        report = analyzer.what_if(down)
        assert report.provenance is None
        assert "provenance" not in report.to_dict()


# -- DeltaReport.why / attribute --------------------------------------------


class TestWhyAndAttribute:
    @pytest.fixture(scope="class")
    def failed_ring(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        report = analyzer.what_if_batch(
            [Change.of(LinkDown("r0", "r1"), label="fail r0--r1")],
            provenance=True,
        )
        return report

    def test_why_fib_entry(self, failed_ring):
        router, prefix = next(
            (router, prefix)
            for router, per_router in sorted(
                failed_ring.fib_changes.items()
            )
            for prefix in per_router
        )
        causes = failed_ring.why((router, prefix))
        assert [info.edit_id for info in causes] == [0]
        assert causes[0].kind == "LinkDown"

    def test_why_segment(self, failed_ring):
        segment = failed_ring.reach_segments[0]
        causes = failed_ring.why(segment)
        assert causes and all(isinstance(c, EditInfo) for c in causes)

    def test_why_unchanged_entry_is_empty(self, failed_ring):
        assert failed_ring.why(("r4", "10.255.255.0/24")) == []

    def test_why_requires_provenance(self, ring8_scenario):
        analyzer = DifferentialNetworkAnalyzer(ring8_scenario.snapshot.clone())
        report = analyzer.what_if(Change.of(LinkDown("r0", "r1")))
        with pytest.raises(ValueError, match="provenance"):
            report.why(("r0", "10.0.0.0/31"))

    def test_attribute_lists_deltas_and_segments(self, failed_ring):
        attribution = failed_ring.attribute(0)
        assert attribution["edit"]["kind"] == "LinkDown"
        assert attribution["fib"]
        assert attribution["segments"]
        with pytest.raises(KeyError):
            failed_ring.attribute(7)


# -- the structured event log ------------------------------------------------


class TestEventLog:
    def test_append_assigns_monotonic_seq(self):
        log = EventLog()
        log.span("analyze.batch", label="x")
        log.metric("pipeline.spf", 3)
        log.provenance(edit_id=0, kind="LinkDown")
        assert [record["seq"] for record in log] == [0, 1, 2]
        assert [record["type"] for record in log] == [
            "span", "metric", "provenance",
        ]

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="event type"):
            EventLog().append("bogus", {})

    def test_absorb_renumbers_densely(self):
        first = EventLog()
        first.span("a")
        second = EventLog()
        second.span("b")
        second.metric("m", 1)
        first.absorb(second.to_payload())
        assert [record["seq"] for record in first] == [0, 1, 2]
        assert [record["data"].get("name") for record in first] == [
            "a", "b", "m",
        ]

    def test_jsonl_round_trip_byte_stable(self):
        log = EventLog()
        log.span("analyze.batch", label="x", changes=2)
        log.provenance(edit_id=0, kind="LinkDown", detail="d")
        text = log.to_jsonl()
        again = EventLog.from_jsonl(text)
        assert again.to_jsonl() == text
        document = log.to_dict()
        assert EventLog.from_dict(document).to_dict() == document
        with pytest.raises(SchemaError):
            EventLog.from_dict({**document, "schema_version": 99})

    def test_analyzer_emits_only_with_provenance(self, ring8_scenario):
        log = EventLog()
        analyzer = DifferentialNetworkAnalyzer(
            ring8_scenario.snapshot.clone(), events=log
        )
        change = Change.of(LinkDown("r0", "r1"), label="fail")
        analyzer.what_if(change)
        assert len(log) == 0  # provenance off: silent
        analyzer.what_if(change, provenance=True)
        assert len(log) > 0
        types = {record["type"] for record in log}
        assert types == {"span", "metric", "provenance"}
        # Deterministic payloads only: repeat appends the same slice.
        first = list(log.to_payload())
        log.clear()
        analyzer.what_if(change, provenance=True)
        assert log.to_payload() == first


# -- unit: ProvenanceRecord ---------------------------------------------------


class TestProvenanceRecord:
    def test_register_and_describe(self):
        record = ProvenanceRecord("batch")
        first = record.register_edit("LinkDown", "link down a -- b", "c1")
        second = record.register_edit("SetOspfCost", "cost 5", "")
        assert (first, second) == (0, 1)
        assert record.all_ids() == {0, 1}
        assert record.describe({1, 0}) == [
            "#0 LinkDown: link down a -- b (c1)",
            "#1 SetOspfCost: cost 5",
        ]
        with pytest.raises(KeyError):
            record.edit(2)

    def test_entry_causes_prefers_fib(self):
        record = ProvenanceRecord()
        record.register_edit("A", "a")
        record.register_edit("B", "b")
        record.record_rib("r1", "10.0.0.0/24", {0})
        record.record_fib("r1", "10.0.0.0/24", (100, 200), {1})
        assert record.entry_causes("r1", "10.0.0.0/24") == {1}
        record.drop_fib("r1", "10.0.0.0/24")
        assert record.entry_causes("r1", "10.0.0.0/24") == {0}
        record.drop_rib("r1", "10.0.0.0/24")
        assert record.entry_causes("r1", "10.0.0.0/24") == set()

    def test_causes_over_unions_overlaps(self):
        record = ProvenanceRecord()
        for kind in "ABC":
            record.register_edit(kind, kind.lower())
        record.record_fib("r1", "p1", (0, 100), {0})
        record.record_fib("r2", "p2", (200, 300), {1})
        record.record_acl_span(250, 260, {2})
        assert record.causes_over(50, 60) == {0}
        assert record.causes_over(90, 210) == {0, 1}
        assert record.causes_over(255, 256) == {1, 2}
        assert record.causes_over(500, 600) == set()

    def test_absorb_edits_offsets(self):
        first = ProvenanceRecord()
        first.register_edit("A", "a")
        second = ProvenanceRecord()
        second.register_edit("B", "b")
        offset = first.absorb_edits(second)
        assert offset == 1
        assert [info.kind for info in first.edits] == ["A", "B"]


# -- campaign provenance ------------------------------------------------------


class TestCampaignProvenance:
    def test_outcome_causes_attribute_violations(self, ring8_scenario):
        from repro.api import Network
        from repro.campaign.scenarios import all_single_link_failures

        network = Network.from_snapshot(ring8_scenario.snapshot.clone())
        batch = all_single_link_failures(ring8_scenario)[:3]
        report = network.campaign(
            batch, invariants=["blackhole-freedom"], provenance=True
        )
        assert len(report.events) > 0
        for outcome in report.outcomes:
            assert outcome.causes is not None
            assert len(outcome.causes["edits"]) == 1
            for violation in outcome.causes["violations"]:
                assert violation["edits"] == [0]

    def test_provenance_off_keeps_payloads_lean(self, ring8_scenario):
        from repro.api import Network
        from repro.campaign.scenarios import all_single_link_failures

        network = Network.from_snapshot(ring8_scenario.snapshot.clone())
        batch = all_single_link_failures(ring8_scenario)[:2]
        report = network.campaign(batch)
        assert len(report.events) == 0
        for outcome in report.outcomes:
            assert outcome.causes is None and outcome.events is None
        document = report.to_dict()
        assert "events" not in document
        assert all("causes" not in o for o in document["outcomes"])


# -- repro explain ------------------------------------------------------------


class TestExplainCli:
    @pytest.fixture()
    def demo(self, tmp_path):
        from repro.api import Network

        network = Network.generate("ring", size=6)
        directory = tmp_path / "snap"
        network.save(str(directory))
        script = tmp_path / "change.dna"
        script.write_text("link down r0 r1\n")
        return str(directory), str(script)

    def test_live_summary_and_entry_query(self, demo, capsys):
        from repro.cli import main

        snapshot, script = demo
        assert main(["explain", snapshot, script]) == 0
        out = capsys.readouterr().out
        assert "1 edits" in out and "LinkDown" in out
        assert main(
            ["explain", snapshot, script, "--dst", "172.16.3.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "because of" in out and "#0 LinkDown" in out

    def test_saved_document_round_trip(self, demo, tmp_path, capsys):
        from repro.cli import main

        snapshot, script = demo
        saved = str(tmp_path / "prov.json")
        assert main(
            ["explain", snapshot, script, "--provenance-out", saved]
        ) == 0
        capsys.readouterr()
        assert main(["explain", "--from", saved, "--edit", "0", "--json"]) == 0
        from repro.core.serialize import check_envelope

        answer = check_envelope(json.loads(capsys.readouterr().out))
        assert answer["kind"] == "explain-answer"
        assert answer["edit"]["edit"]["kind"] == "LinkDown"
        assert answer["edit"]["fib"]

    def test_explain_never_commits(self, demo):
        from repro.api import Network
        from repro.cli import main

        snapshot, script = demo
        before = Network.load(snapshot).state.dataplane.stats()
        assert main(["explain", snapshot, script]) == 0
        assert Network.load(snapshot).state.dataplane.stats() == before

    def test_from_report_without_provenance_errors(self, demo, tmp_path):
        from repro.cli import main

        snapshot, script = demo
        report_path = tmp_path / "report.json"
        report_path.write_text(
            json.dumps({"kind": "delta-report", "schema_version": 1})
        )
        with pytest.raises(SystemExit, match="without"):
            main(["explain", "--from", str(report_path)])

    def test_analyze_provenance_artifacts(self, demo, tmp_path, capsys):
        from repro.cli import main

        snapshot, script = demo
        prov = str(tmp_path / "p.json")
        events = str(tmp_path / "e.jsonl")
        metrics = str(tmp_path / "m.json")
        assert main(
            [
                "analyze", snapshot, script, "--json",
                "--provenance-out", prov,
                "--events-out", events,
                "--metrics-out", metrics,
            ]
        ) == 0
        from repro.core.serialize import check_envelope

        report_doc = check_envelope(json.loads(capsys.readouterr().out))
        assert report_doc["kind"] == "delta-report"
        assert report_doc["provenance"]["kind"] == "provenance"
        assert json.loads(open(prov).read())["kind"] == "provenance"
        assert json.loads(open(metrics).read())["kind"] == "metrics"
        with open(events) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_analyze_json_profile_emits_both(self, demo, capsys):
        """--profile --json emits the delta report AND the span tree."""
        from repro.cli import main

        snapshot, script = demo
        assert main(["analyze", snapshot, script, "--json", "--profile"]) == 0
        text = capsys.readouterr().out.strip()
        decoder = json.JSONDecoder()
        documents = []
        while text:
            document, index = decoder.raw_decode(text)
            documents.append(document)
            text = text[index:].lstrip()
        # Both stdout documents ride the uniform --json envelope.
        assert [d["kind"] for d in documents] == ["delta-report", "span-trace"]
        assert documents[1]["result"]["spans"]
