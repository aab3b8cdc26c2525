"""The unified observability layer: spans, metrics, attribution.

Acceptance, per the obs contract:

- span trees export as versioned JSON (``kind: "span-trace"``) that
  round-trips byte-stably and rejects unknown schema versions;
- the default NULL tracer records nothing and reads no clock, while
  every ``report.counters`` key stays populated;
- a traced analysis attributes per-stage durations AND dirty-set sizes
  to the recompute stage spans, nested inside the batch span;
- a report is byte-identical whether or not its analysis was traced
  (wall time lives only in spans);
- campaign metrics merge byte-identically across the serial and
  multiprocessing backends.
"""

import json

import pytest

from repro.api import ChangeSet, Network
from repro.campaign import all_single_link_failures
from repro.core.serialize import SCHEMA_VERSION, SchemaError
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
)
def dumps(document):
    return json.dumps(document, sort_keys=True)


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", phase="demo"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b") as span:
                span.set(items=3)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.labels == {"phase": "demo"}
        assert [child.name for child in root.children] == [
            "inner.a", "inner.b"
        ]
        assert root.find("inner.b").labels == {"items": 3}
        assert root.duration >= root.child_time() >= 0

    def test_two_top_level_spans_are_two_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        # A fresh span after the raise is a new root, not a child.
        with tracer.span("after"):
            pass
        assert [root.name for root in tracer.roots] == ["outer", "after"]

    def test_span_duration_readable_after_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.duration > 0
        assert span.duration == tracer.roots[0].duration

    def test_reset_clears_the_forest(self):
        tracer = Tracer()
        with tracer.span("old"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.find("old") is None

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [record.name for record in tracer.walk()] == ["a", "b", "c"]
        assert tracer.find("c").name == "c"
        assert tracer.find("missing") is None

    def test_render_indents_children(self):
        tracer = Tracer()
        with tracer.span("parent", kind="x"):
            with tracer.span("child"):
                pass
        lines = tracer.render().splitlines()
        assert lines[0].startswith("parent:")
        assert "[kind=x]" in lines[0]
        assert lines[1].startswith("  child:")


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("invisible", label=1) as span:
            span.set(more=2)
        assert tracer.roots == []
        assert not tracer.enabled
        assert span.record is None

    def test_span_is_one_shared_no_op(self):
        with NULL_TRACER.span("a", n=1) as span:
            span.set(more=2)
        assert span is NULL_TRACER.span("b")
        assert span.duration == 0.0

    def test_shared_instance_stays_stateless(self):
        with NULL_TRACER.span("a"):
            with NULL_TRACER.span("b"):
                pass
        assert NULL_TRACER.roots == []
        assert Tracer().enabled and not NULL_TRACER.enabled


class TestSpanTraceDocument:
    def make_tracer(self):
        tracer = Tracer()
        with tracer.span("analyze.batch", changes=2):
            with tracer.span("pipeline.igp", spf_sources=3):
                pass
        return tracer

    def test_round_trips_byte_stably(self):
        document = self.make_tracer().to_dict()
        assert document["kind"] == "span-trace"
        assert document["schema_version"] == SCHEMA_VERSION
        rebuilt = Tracer.from_dict(document)
        assert dumps(rebuilt.to_dict()) == dumps(document)
        assert rebuilt.find("pipeline.igp").labels == {"spf_sources": 3}

    def test_unknown_schema_version_rejected(self):
        document = self.make_tracer().to_dict()
        document["schema_version"] = 99
        with pytest.raises(SchemaError):
            Tracer.from_dict(document)

    def test_wrong_kind_rejected(self):
        document = self.make_tracer().to_dict()
        document["kind"] = "metrics"
        with pytest.raises(SchemaError):
            Tracer.from_dict(document)

    def test_chrome_trace_shape(self):
        chrome = self.make_tracer().to_chrome_trace()
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        assert [event["name"] for event in events] == [
            "analyze.batch", "pipeline.igp"
        ]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["ts"] >= 0
        assert events[1]["args"] == {"spf_sources": 3}
        # Chrome JSON is plain data, serializable as-is.
        json.dumps(chrome)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("calls")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("level")
        assert gauge.value is None
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_buckets(self):
        histogram = Histogram("sizes", bounds=[1, 10, 100])
        for value in (0, 1, 5, 10, 1000):
            histogram.observe(value)
        # <=1, <=10, <=100, overflow
        assert histogram.counts == [2, 2, 0, 1]
        assert histogram.count == 5
        assert histogram.low == 0 and histogram.high == 1000
        assert histogram.mean() == pytest.approx(1016 / 5)

    def test_histogram_merge_adds_buckets(self):
        a = Histogram("sizes", bounds=[1, 10])
        b = Histogram("sizes", bounds=[1, 10])
        a.observe(1)
        b.observe(5)
        b.observe(50)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.low == 1 and a.high == 50

    def test_histogram_merge_rejects_mismatched_bounds(self):
        a = Histogram("sizes", bounds=[1, 10])
        b = Histogram("sizes", bounds=[1, 10, 100])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=[10, 1])


class TestMetricsRegistry:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("analyze.calls").inc(2)
        registry.gauge("pipeline.atoms_total").set(21)
        registry.histogram("dirty.spf_sources").observe(6)
        return registry

    def test_get_or_create_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.is_empty() is False
        assert MetricsRegistry().is_empty() is True

    def test_counters_view_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        assert list(registry.counters().items()) == [("a", 2), ("b", 1)]

    def test_merge_semantics(self):
        left = self.make_registry()
        right = self.make_registry()
        right.gauge("pipeline.atoms_total").set(42)
        left.merge(right)
        assert left.counters()["analyze.calls"] == 4  # counters add
        assert left.gauge("pipeline.atoms_total").value == 42  # last wins
        assert left.histogram("dirty.spf_sources").count == 2  # buckets add

    def test_document_round_trips_byte_stably(self):
        document = self.make_registry().to_dict()
        assert document["kind"] == "metrics"
        assert document["schema_version"] == SCHEMA_VERSION
        rebuilt = MetricsRegistry.from_dict(document)
        assert dumps(rebuilt.to_dict()) == dumps(document)

    def test_unknown_schema_version_rejected(self):
        document = self.make_registry().to_dict()
        document["schema_version"] = 99
        with pytest.raises(SchemaError):
            MetricsRegistry.from_dict(document)

    def test_merge_payload_is_the_cross_process_path(self):
        parent = MetricsRegistry()
        parent.merge_payload(self.make_registry().to_payload())
        parent.merge_payload(self.make_registry().to_payload())
        assert parent.counters()["analyze.calls"] == 4
        assert parent.histogram("dirty.spf_sources").count == 2


class TestAnalyzerIntegration:
    def test_default_tracer_is_null_and_counters_survive(self):
        network = Network.generate("ring", size=6)
        report = network.preview(ChangeSet().link_down("r0", "r1"))
        assert isinstance(network.tracer, NullTracer)
        assert network.tracer.roots == []
        for key in ("spf_sources_recomputed", "fib_entries_updated",
                    "atoms_analyzed", "edits_batched"):
            assert key in report.counters

    def test_traced_analysis_attributes_stages(self):
        network = Network.generate("ring", size=6, trace=True)
        report = network.preview(ChangeSet().link_down("r0", "r1"))
        tracer = network.tracer
        assert tracer.enabled

        batch = tracer.find("analyze.batch")
        assert batch is not None
        stage_names = [child.name for child in batch.children]
        assert stage_names == [
            "analyze.edits", "pipeline.igp", "pipeline.bgp",
            "pipeline.fib", "pipeline.reachability",
        ]
        # Dirty-set sizes ride on the stage spans.
        igp = batch.find("pipeline.igp")
        assert igp.labels["spf_sources"] == 6
        assert igp.labels["touched_routers"] == 2
        # Work counts: routes re-derived and IGP adapter entries written.
        assert igp.labels["routes_rederived"] > 0
        assert igp.labels["igp_routes_written"] > 0
        assert batch.find("pipeline.fib").labels["entries_updated"] == (
            report.num_fib_changes()
        )
        assert "atoms_analyzed" in batch.find("pipeline.reachability").labels
        # fork.rollback rides inside the what-if batch span.
        assert tracer.find("fork.rollback") is not None

        # The stages nest inside the batch span.
        stage_sum = batch.child_time()
        assert stage_sum <= batch.duration

        # On a BGP network the decision stage reports its export work.
        wan = Network.generate("internet2", trace=True)
        wan.preview(ChangeSet().announce("cust_seat0", "198.51.100.0/24"))
        decision = wan.tracer.find("pipeline.bgp.decision")
        assert decision.labels["prefixes_solved"] == 1
        assert decision.labels["exports_evaluated"] > 0

    def test_report_is_identical_traced_and_untraced(self):
        traced = Network.generate("ring", size=6, trace=True)
        untraced = Network.generate("ring", size=6)
        change = ChangeSet().link_down("r0", "r1")
        traced_report = traced.preview(change)
        untraced_report = untraced.preview(change)
        assert dumps(traced_report.to_dict()) == dumps(untraced_report.to_dict())

    def test_metrics_accumulate_across_analyses(self):
        network = Network.generate("ring", size=6)
        network.preview(ChangeSet().link_down("r0", "r1"))
        network.preview(ChangeSet().link_down("r2", "r3"))
        counters = network.metrics.counters()
        assert counters["analyze.calls"] == 2
        assert counters["fork.rollbacks"] == 2  # previews roll back
        assert counters["pipeline.passes"] == 2
        assert network.metrics.histogram("analyze.batch_size").count == 2

    def test_explicit_tracer_instance_is_adopted(self):
        tracer = Tracer()
        network = Network.generate("ring", size=6, trace=tracer)
        assert network.tracer is tracer
        network.preview(ChangeSet().link_down("r0", "r1"))
        assert tracer.find("analyze.batch") is not None

    def test_profile_document_is_versioned(self):
        network = Network.generate("ring", size=6, trace=True)
        network.preview(ChangeSet().link_down("r0", "r1"))
        document = network.profile()
        assert document["kind"] == "span-trace"
        rebuilt = Tracer.from_dict(document)
        assert dumps(rebuilt.to_dict()) == dumps(document)


def _fat_tree_link_down():
    return (
        Network.generate("fat_tree", size=4, trace=True),
        ChangeSet().link_down("agg0_0", "edge0_0"),
    )


def _internet2_local_pref_flip():
    from repro.workloads.changes import ChangeGenerator

    network = Network.generate("internet2", trace=True)
    return network, ChangeGenerator(network.scenario).dual_homed_pref_flip()


class TestStageNumbersEmittedOnce:
    """Each stage's numbers reach every sink from one record, so the
    span, the event log, the metrics and ``report.counters`` agree."""

    @pytest.mark.parametrize(
        "build", [_fat_tree_link_down, _internet2_local_pref_flip],
        ids=["fat_tree_link_down", "internet2_local_pref"],
    )
    def test_sinks_agree(self, build):
        network, change = build()
        report = network.preview(change, provenance=True)
        spans = {
            record.name: record.labels
            for record in network.tracer.walk()
            if record.name.startswith("pipeline.")
        }
        logged = [
            record["data"]
            for record in network.events
            if record["type"] == "span"
            and record["data"]["name"].startswith("pipeline.")
        ]
        assert [data["name"] for data in logged] == [
            "pipeline.igp", "pipeline.bgp", "pipeline.fib",
            "pipeline.reachability",
        ]
        for data in logged:
            labels = {key: value for key, value in data.items() if key != "name"}
            assert labels == spans[data["name"]]

        metrics = {
            record["data"]["name"]: record["data"]["value"]
            for record in network.events
            if record["type"] == "metric"
        }
        counters = network.metrics.counters()
        assert metrics
        for name, value in metrics.items():
            key = name.removeprefix("pipeline.")
            assert value == report.counters[key] == counters[name]
        assert network.metrics.gauge("pipeline.atoms_total").value == (
            report.counters["atoms_total"]
        )


class TestCampaignMetrics:
    def merged_metrics(self, jobs):
        network = Network.generate("ring", size=6)
        return network.campaign(
            all_single_link_failures(network.scenario),
            jobs=jobs,
            label="ring6",
        )

    def test_serial_and_parallel_merge_byte_identically(self):
        serial = self.merged_metrics(jobs=1)
        parallel = self.merged_metrics(jobs=2)
        assert serial.backend == "serial"
        assert parallel.backend == "multiprocessing"
        assert dumps(serial.metrics.to_dict()) == dumps(
            parallel.metrics.to_dict()
        )
        counters = serial.metrics.counters()
        assert counters["campaign.scenarios"] == len(serial)
        assert counters["analyze.calls"] == len(serial)
        assert counters["fork.rollbacks"] == len(serial)
        assert counters["pipeline.spf_sources_recomputed"] > 0

    def test_outcomes_carry_metric_snapshots(self):
        report = self.merged_metrics(jobs=1)
        for outcome in report.outcomes:
            assert outcome.metrics is not None
            assert outcome.metrics["counters"]["analyze.calls"] == 1

    def test_campaign_report_round_trips_metrics(self):
        report = self.merged_metrics(jobs=1)
        document = report.to_dict()
        from repro.campaign.report import CampaignReport

        rebuilt = CampaignReport.from_dict(document)
        assert dumps(rebuilt.to_dict()) == dumps(document)
        assert rebuilt.metrics.counters() == report.metrics.counters()

    def test_campaign_run_is_spanned_when_traced(self):
        network = Network.generate("ring", size=6, trace=True)
        network.campaign(
            all_single_link_failures(network.scenario), jobs=1, label="ring6"
        )
        span = network.tracer.find("campaign.run")
        assert span is not None
        assert span.labels["backend"] == "serial"
        assert span.labels["scenarios"] == 6
