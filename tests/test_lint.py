"""repro.lint: checker fixtures, suppressions, baseline gate, CLI."""

import json
import textwrap
from pathlib import Path


from repro.cli import main as cli_main
from repro.lint import RULES, Finding, LintResult, Project, run_lint
from repro.lint.schema_drift import write_fingerprints

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Lay out a miniature src/repro tree and return its repo root."""
    for rel, source in files.items():
        path = tmp_path / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def run_rule(rule_id: str, root: Path) -> list[Finding]:
    return RULES[rule_id].check(Project(root))


# -- J1: fork safety ---------------------------------------------------------


class TestForkSafety:
    def test_unjournaled_item_write_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/handlers.py": """
                def handle(analyzer, edit, dirty):
                    state = analyzer.state
                    state.ribs[edit.prefix] = []
            """,
        })
        findings = run_rule("J1", root)
        assert len(findings) == 1
        assert "save_rib_prefix" in findings[0].message
        assert findings[0].path == "repro/core/handlers.py"

    def test_journaled_write_clean(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/handlers.py": """
                def handle(analyzer, edit, dirty):
                    state = analyzer.state
                    analyzer._journal.save_rib_prefix(edit.router, edit.prefix)
                    state.ribs[edit.prefix] = []
            """,
        })
        assert run_rule("J1", tmp_path) == []

    def test_save_after_mutation_flagged(self, tmp_path):
        # Before-image captures must PRECEDE the mutation; saving the
        # already-mutated state restores garbage on rollback.
        root = make_project(tmp_path, {
            "repro/core/handlers.py": """
                def handle(analyzer, edit, dirty):
                    state = analyzer.state
                    state.ribs[edit.prefix] = []
                    analyzer._journal.save_rib_prefix(edit.router, edit.prefix)
            """,
        })
        findings = run_rule("J1", root)
        assert len(findings) == 1
        assert "preceded" in findings[0].message

    def test_record_log_may_follow_mutation(self, tmp_path):
        # Append-log journal entries (record_*) replay, they do not
        # restore a before-image — calling after the fact is fine.
        root = make_project(tmp_path, {
            "repro/core/handlers.py": """
                def handle(analyzer, edit, dirty):
                    state = analyzer.state
                    removed = state.dataplane.invalidate_span(edit.span)
                    analyzer._journal.record_acl_span(edit.span, removed)
            """,
        })
        assert run_rule("J1", root) == []

    def test_missing_record_log_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/handlers.py": """
                def handle(analyzer, edit, dirty):
                    state = analyzer.state
                    state.dataplane.invalidate_span(edit.span)
            """,
        })
        findings = run_rule("J1", root)
        assert len(findings) == 1
        assert "record_acl_span" in findings[0].message

    def test_alias_chain_tracked(self, tmp_path):
        # rib = self.state.ribs[r]; rib.install(...) on the pass context
        # is still a mutation of analyzer-owned state.
        root = make_project(tmp_path, {
            "repro/core/stages/__init__.py": """
                class Pass:
                    def install(self, router, route):
                        rib = self.state.ribs[router]
                        rib.install(route)
            """,
        })
        findings = run_rule("J1", root)
        assert len(findings) == 1
        assert "save_rib_prefix" in findings[0].message

    def test_unjournaled_igp_route_write_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/stages/igp.py": """
                def run(ctx, dirty):
                    for router, prefix in sorted(dirty.written):
                        ctx.state.igp.set_route(router, prefix, None)
            """,
        })
        findings = run_rule("J1", root)
        assert len(findings) == 1
        assert "save_igp_route" in findings[0].message

    def test_journaled_igp_route_write_clean(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/stages/igp.py": """
                def run(ctx, dirty):
                    for router, prefix in sorted(dirty.written):
                        ctx.journal.save_igp_route(router, prefix)
                        ctx.state.igp.set_route(router, prefix, None)
            """,
        })
        assert run_rule("J1", root) == []

    def test_unjournaled_stage_writes_flagged(self, tmp_path):
        # Stage modules are in contract through their ``ctx`` pass
        # context: a RIB item write and a FIB write without their
        # before-images are both flagged.
        root = make_project(tmp_path, {
            "repro/core/stages/fib.py": """
                def run(ctx, dirty):
                    state = ctx.state
                    state.ribs[dirty.router] = {}
                    state.dataplane.update_fib_entry("r1", dirty.prefix, None)
            """,
        })
        findings = run_rule("J1", root)
        assert [f.path for f in findings] == ["repro/core/stages/fib.py"] * 2
        assert "save_rib_prefix" in findings[0].message
        assert "save_fib_entry" in findings[1].message

    def test_fib_write_needs_its_action_delta_recorded(self, tmp_path):
        # A FIB write changes (router, atom) actions: its before-image
        # entry precedes it and the action delta it returns follows it.
        unrecorded = """
            def run(ctx, dirty):
                ctx.journal.save_fib_entry("r1", dirty.prefix, None)
                ctx.state.dataplane.update_fib_entry("r1", dirty.prefix, None)
        """
        root = make_project(tmp_path / "a", {"repro/core/stages/fib.py": unrecorded})
        findings = run_rule("J1", root)
        assert len(findings) == 1
        assert "record_actions" in findings[0].message
        recorded = unrecorded.replace(
            'ctx.state.dataplane.update_fib_entry("r1", dirty.prefix, None)',
            'delta = ctx.state.dataplane.update_fib_entry("r1", dirty.prefix, None)\n'
            "                ctx.journal.record_actions(delta)",
        )
        root = make_project(tmp_path / "b", {"repro/core/stages/fib.py": recorded})
        assert run_rule("J1", root) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        # Initial convergence / query code builds raw state before any
        # fork can exist; only the analyzer orbit is in contract.
        root = make_project(tmp_path, {
            "repro/query/build.py": """
                def build(analyzer, edit):
                    analyzer.state.ribs[edit.prefix] = []
            """,
        })
        assert run_rule("J1", root) == []

    def test_init_and_rollback_exempt(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/analyzer.py": """
                class DifferentialNetworkAnalyzer:
                    def __init__(self):
                        self.state.ribs = {}

                    def rollback_rib(self, prefix, image):
                        self.state.ribs[prefix] = image
            """,
        })
        assert run_rule("J1", root) == []

    def test_inline_suppression(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/handlers.py": """
                def handle(analyzer, edit, dirty):
                    state = analyzer.state
                    state.ribs[edit.prefix] = []  # repro-lint: disable=J1
            """,
        })
        assert run_rule("J1", root) == []


# -- D1: determinism ---------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/delta.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        findings = run_rule("D1", root)
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_span_layer_allowlisted(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/obs/trace.py": """
                import time

                def now():
                    return time.perf_counter()
            """,
        })
        assert run_rule("D1", root) == []

    def test_unseeded_random_flagged_seeded_allowed(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/workloads.py": """
                import random

                def bad(edits):
                    random.shuffle(edits)

                def good(edits, seed):
                    rng = random.Random(seed)
                    rng.shuffle(edits)
            """,
        })
        findings = run_rule("D1", root)
        assert len(findings) == 1
        assert "random.shuffle" in findings[0].message

    def test_id_keys_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/api/network.py": """
                def cache_key(invariants):
                    return tuple(id(inv) for inv in invariants)
            """,
        })
        findings = run_rule("D1", root)
        assert len(findings) == 1
        assert "id()" in findings[0].message

    def test_set_iteration_in_serializer_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/delta.py": """
                class Report:
                    def to_dict(self):
                        return [str(p) for p in set(self.prefixes)]
            """,
        })
        findings = run_rule("D1", root)
        assert len(findings) == 1
        assert "unordered set" in findings[0].message

    def test_sorted_set_in_serializer_clean(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/delta.py": """
                class Report:
                    def to_dict(self):
                        return [str(p) for p in sorted(self.prefixes)]
            """,
        })
        assert run_rule("D1", root) == []

    def test_set_iteration_outside_serializer_clean(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/delta.py": """
                def spread(prefixes, extra):
                    for p in prefixes | {extra}:
                        yield p
            """,
        })
        assert run_rule("D1", root) == []

    def test_file_suppression(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/bench_extra.py": """
                # repro-lint: disable-file=D1
                import time

                def a():
                    return time.time()

                def b():
                    return time.monotonic()
            """,
        })
        assert run_rule("D1", root) == []


# -- S1: schema drift --------------------------------------------------------

SERIALIZE_STUB = """
    SCHEMA_VERSION = 1
    KNOWN_KINDS = {"widget"}

    def document(kind, payload):
        return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}

    def check_document(data, kind):
        pass
"""

WIDGET_OK = """
    from dataclasses import dataclass

    from repro.core import serialize

    @dataclass
    class Widget:
        name: str
        size: int

        def to_dict(self):
            return serialize.document("widget", {"name": self.name})

        @classmethod
        def from_dict(cls, data):
            serialize.check_document(data, "widget")
            return cls(data["name"], data["size"])
"""


class TestSchemaDrift:
    def _fixture(self, tmp_path, widget_src=WIDGET_OK):
        root = make_project(tmp_path, {
            "repro/core/serialize.py": SERIALIZE_STUB,
            "repro/widget.py": widget_src,
        })
        write_fingerprints(Project(root))
        return root

    def test_complete_serializer_clean(self, tmp_path):
        root = self._fixture(tmp_path)
        assert run_rule("S1", root) == []

    def test_missing_from_dict_flagged(self, tmp_path):
        root = self._fixture(tmp_path, """
            from repro.core import serialize

            class Widget:
                def to_dict(self):
                    return serialize.document("widget", {})
        """)
        findings = run_rule("S1", root)
        assert any("no from_dict inverse" in f.message for f in findings)

    def test_unregistered_kind_flagged(self, tmp_path):
        root = self._fixture(tmp_path, """
            from repro.core import serialize

            class Widget:
                def to_dict(self):
                    return serialize.document("gizmo", {})

                @classmethod
                def from_dict(cls, data):
                    serialize.check_document(data, "gizmo")
                    return cls()
        """)
        findings = run_rule("S1", root)
        assert any("unregistered kind 'gizmo'" in f.message for f in findings)

    def test_from_dict_not_checking_kind_flagged(self, tmp_path):
        root = self._fixture(tmp_path, """
            from repro.core import serialize

            class Widget:
                def to_dict(self):
                    return serialize.document("widget", {})

                @classmethod
                def from_dict(cls, data):
                    return cls()
        """)
        findings = run_rule("S1", root)
        assert any("does not validate kind" in f.message for f in findings)

    def test_register_kind_call_registers(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/serialize.py": SERIALIZE_STUB,
            "repro/widget.py": """
                from repro.core import serialize

                GIZMO = serialize.register_kind("gizmo")

                class Widget:
                    def to_dict(self):
                        return serialize.document("gizmo", {})

                    @classmethod
                    def from_dict(cls, data):
                        serialize.check_document(data, "gizmo")
                        return cls()
            """,
        })
        write_fingerprints(Project(root))
        assert run_rule("S1", root) == []

    def test_field_drift_flagged(self, tmp_path):
        root = self._fixture(tmp_path)
        # A field lands after the fingerprint was committed.
        widget = root / "src" / "repro" / "widget.py"
        widget.write_text(
            widget.read_text().replace(
                "size: int", "size: int\n    color: str"
            )
        )
        findings = run_rule("S1", root)
        assert len(findings) == 1
        assert "fields changed" in findings[0].message
        assert "update-fingerprints" in findings[0].message

    def test_missing_fingerprint_file_reported_once(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/serialize.py": SERIALIZE_STUB,
            "repro/widget.py": WIDGET_OK,
        })
        findings = run_rule("S1", root)
        assert len(findings) == 1
        assert "no SCHEMA_FINGERPRINTS.json" in findings[0].message


# -- H1: registry coverage ---------------------------------------------------

PIPELINE_STUB = """
    class DirtySet:
        ospf: set
        bgp_prefixes: set

        def merge(self, other):
            self.ospf |= other.ospf
            self.bgp_prefixes |= other.bgp_prefixes

    class RecomputePipeline:
        def run(self, dirty):
            for stage in STAGES:
                stage.run(self, dirty)
"""

# Same shape, plus an ``acl_spans`` axis nothing in the pipeline reads.
UNCONSUMED_PIPELINE_STUB = """
    class DirtySet:
        ospf: set
        bgp_prefixes: set
        acl_spans: list

        def merge(self, other):
            self.ospf |= other.ospf
            self.bgp_prefixes |= other.bgp_prefixes
            self.acl_spans += other.acl_spans

    class RecomputePipeline:
        def run(self, dirty):
            for stage in STAGES:
                stage.run(self, dirty)
"""

# The stage modules that read the stubs' ``ospf`` and ``bgp_prefixes``.
STAGE_STUBS = {
    "repro/core/stages/igp.py": """
        def run(ctx, dirty):
            for router in sorted(dirty.ospf):
                ctx.recompute(router)
    """,
    "repro/core/stages/bgp.py": """
        def run(ctx, dirty):
            for prefix in sorted(dirty.bgp_prefixes):
                ctx.solve(prefix)
    """,
}

CHANGE_STUB = """
    class Edit:
        pass

    class LinkDown(Edit):
        pass

    class LinkUp(LinkDown):
        pass
"""


class TestRegistryCoverage:
    def test_covered_hierarchy_clean(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/change.py": CHANGE_STUB,
            "repro/core/pipeline.py": PIPELINE_STUB,
            **STAGE_STUBS,
            "repro/core/handlers.py": """
                from repro.core.change import LinkDown
                from repro.core.handlers_registry import register_change_handler

                @register_change_handler(LinkDown)
                def handle_link(analyzer, edit, dirty):
                    dirty.ospf.add(edit.router)
            """,
        })
        # LinkUp rides on LinkDown's registration (MRO dispatch).
        assert run_rule("H1", root) == []

    def test_uncovered_edit_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/change.py": (
                CHANGE_STUB + "\n    class AclEdit(Edit):\n        pass\n"
            ),
            "repro/core/pipeline.py": PIPELINE_STUB,
            **STAGE_STUBS,
            "repro/core/handlers.py": """
                from repro.core.change import LinkDown
                from repro.core.handlers_registry import register_change_handler

                @register_change_handler(LinkDown)
                def handle_link(analyzer, edit, dirty):
                    dirty.ospf.add(edit.router)
            """,
        })
        findings = run_rule("H1", root)
        assert len(findings) == 1
        assert "AclEdit" in findings[0].message
        assert "no registered change handler" in findings[0].message

    def test_unknown_axis_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/change.py": CHANGE_STUB,
            "repro/core/pipeline.py": PIPELINE_STUB,
            **STAGE_STUBS,
            "repro/core/handlers.py": """
                from repro.core.change import LinkDown
                from repro.core.handlers_registry import register_change_handler

                @register_change_handler(LinkDown)
                def handle_link(analyzer, edit, dirty):
                    dirty.ospf_routers.add(edit.router)
            """,
        })
        findings = run_rule("H1", root)
        assert len(findings) == 1
        assert "unknown DirtySet axis 'ospf_routers'" in findings[0].message

    def test_unconsumed_axis_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/core/change.py": CHANGE_STUB,
            "repro/core/pipeline.py": UNCONSUMED_PIPELINE_STUB,
            **STAGE_STUBS,
            "repro/core/handlers.py": """
                from repro.core.change import LinkDown
                from repro.core.handlers_registry import register_change_handler

                @register_change_handler(LinkDown)
                def handle_link(analyzer, edit, dirty):
                    dirty.acl_spans.append(edit.span)
            """,
        })
        # DirtySet.merge reads every field trivially; only the
        # recompute stages count as consumers, and they never read
        # acl_spans in this fixture.  Both the handler write and the
        # field declaration itself are flagged.
        findings = run_rule("H1", root)
        assert len(findings) == 2
        assert any("never consumes" in f.message for f in findings)
        assert any(
            "no recompute stage consumes" in f.message for f in findings
        )

    def test_declared_axis_without_consumer_flagged(self, tmp_path):
        # No handler even writes the dead axis: the declaration alone
        # is flagged — new DirtySet axes must be consumed by a stage.
        root = make_project(tmp_path, {
            "repro/core/change.py": CHANGE_STUB,
            "repro/core/pipeline.py": UNCONSUMED_PIPELINE_STUB,
            **STAGE_STUBS,
            "repro/core/handlers.py": """
                from repro.core.change import LinkDown
                from repro.core.handlers_registry import register_change_handler

                @register_change_handler(LinkDown)
                def handle_link(analyzer, edit, dirty):
                    dirty.ospf.add(edit.router)
            """,
        })
        findings = run_rule("H1", root)
        assert len(findings) == 1
        assert "no recompute stage consumes" in findings[0].message
        assert "'acl_spans'" in findings[0].message

    def test_axis_read_only_in_a_stage_module_is_consumed(self, tmp_path):
        # Neither the runner nor another stage reads ``acl_spans``; one
        # stage module does, which is consumption.
        root = make_project(tmp_path, {
            "repro/core/change.py": CHANGE_STUB,
            "repro/core/pipeline.py": UNCONSUMED_PIPELINE_STUB,
            **STAGE_STUBS,
            "repro/core/stages/fib.py": """
                def run(ctx, dirty):
                    ctx.spans.extend(dirty.acl_spans)
            """,
            "repro/core/handlers.py": """
                from repro.core.change import LinkDown
                from repro.core.handlers_registry import register_change_handler

                @register_change_handler(LinkDown)
                def handle_link(analyzer, edit, dirty):
                    dirty.acl_spans.append(edit.span)
            """,
        })
        assert run_rule("H1", root) == []


# -- M1: obs naming ----------------------------------------------------------


class TestObsNaming:
    def test_grammar_violation_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/obs/use.py": """
                def f(tracer):
                    with tracer.span("AnalyzeBatch"):
                        pass
            """,
        })
        findings = run_rule("M1", root)
        assert len(findings) == 1
        assert "name grammar" in findings[0].message

    def test_wall_time_metric_name_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/obs/use.py": """
                def f(metrics):
                    metrics.counter("pipeline.duration").inc(1)
            """,
        })
        findings = run_rule("M1", root)
        assert len(findings) == 1
        assert "wall-time quantity" in findings[0].message

    def test_wall_time_metric_value_flagged(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/obs/use.py": """
                import time

                def f(metrics, span):
                    metrics.counter("pipeline.runs").inc(span.duration)
                    metrics.gauge("pipeline.depth").set(time.perf_counter())
            """,
        })
        findings = run_rule("M1", root)
        assert len(findings) == 2
        assert all("wall time belongs to spans" in f.message for f in findings)

    def test_conforming_names_clean(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/obs/use.py": """
                def f(tracer, metrics, op):
                    with tracer.span("pipeline.igp"):
                        metrics.counter("pipeline.nodes_visited").inc(3)
                    with tracer.span(f"service.{op}"):
                        pass
            """,
        })
        # f-string names are dynamic and skipped by design.
        assert run_rule("M1", root) == []

    def test_malformed_stage_name_flagged(self, tmp_path):
        # The runner opens ``tracer.span(stage.NAME, ...)``; the name
        # itself lives in the stage module's constant.
        root = make_project(tmp_path, {
            "repro/core/stages/igp.py": """
                NAME = "Pipeline-IGP"
                AXES = ("spf_sources",)
            """,
            "repro/core/stages/fib.py": """
                NAME = "pipeline.fib"
            """,
        })
        findings = run_rule("M1", root)
        assert len(findings) == 1
        assert findings[0].path == "repro/core/stages/igp.py"
        assert "name grammar" in findings[0].message

    def test_non_obs_span_method_skipped(self, tmp_path):
        root = make_project(tmp_path, {
            "repro/net/interval.py": """
                def width(interval_set, lo, hi):
                    return interval_set.span(lo, hi)
            """,
        })
        assert run_rule("M1", root) == []


# -- baseline gate -----------------------------------------------------------

DIRTY_MODULE = {
    "repro/util.py": """
        import time

        def stamp():
            return time.time()
    """,
}


class TestBaselineGate:
    def test_new_finding_fails(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        result = run_lint(root)
        assert not result.clean
        assert len(result.new) == 1
        assert result.baselined == [] and result.stale == []

    def test_baselined_finding_passes(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        run_lint(root, update_baseline=True)
        result = run_lint(root)
        assert result.clean
        assert len(result.baselined) == 1 and result.new == []

    def test_baseline_does_not_cover_new_debt(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        run_lint(root, update_baseline=True)
        util = root / "src" / "repro" / "util.py"
        util.write_text(
            util.read_text() + "\n\ndef stamp2():\n    return time.monotonic()\n"
        )
        result = run_lint(root)
        assert not result.clean
        assert len(result.new) == 1 and len(result.baselined) == 1

    def test_stale_entry_fails_shrink_only(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        run_lint(root, update_baseline=True)
        # The fix lands: the finding disappears, so its baseline entry
        # must be deleted — stale entries are errors, never tolerated.
        (root / "src" / "repro" / "util.py").write_text(
            "def stamp():\n    return 0\n"
        )
        result = run_lint(root)
        assert not result.clean
        assert len(result.stale) == 1 and result.new == []
        # --update-baseline regenerates (shrinks) it back to clean.
        result = run_lint(root, update_baseline=True)
        assert result.clean

    def test_fingerprint_survives_line_shift(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        run_lint(root, update_baseline=True)
        util = root / "src" / "repro" / "util.py"
        util.write_text("# a new leading comment\n" + util.read_text())
        result = run_lint(root)
        assert result.clean  # same finding, new line, same fingerprint


# -- lint-report document ----------------------------------------------------


class TestLintReport:
    def test_round_trip(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        result = run_lint(root)
        document = result.to_dict()
        assert document["kind"] == "lint-report"
        restored = LintResult.from_dict(document)
        assert restored.to_dict() == document
        assert restored.clean == result.clean

    def test_document_is_byte_stable(self, tmp_path):
        root = make_project(tmp_path, DIRTY_MODULE)
        first = json.dumps(run_lint(root).to_dict(), sort_keys=True)
        second = json.dumps(run_lint(root).to_dict(), sort_keys=True)
        assert first == second


# -- CLI ---------------------------------------------------------------------


class TestLintCli:
    def test_exit_codes(self, tmp_path, capsys):
        root = make_project(tmp_path, DIRTY_MODULE)
        assert cli_main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "1 new finding(s)" in out
        assert cli_main(["lint", "--root", str(root), "--update-baseline"]) == 0
        assert cli_main(["lint", "--root", str(root)]) == 0

    def test_json_envelope(self, tmp_path, capsys):
        root = make_project(tmp_path, DIRTY_MODULE)
        assert cli_main(["lint", "--root", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "lint-report"
        assert payload["result"]["clean"] is False
        assert len(payload["result"]["findings"]) == 1


# -- the repo lints itself ---------------------------------------------------


def test_repo_is_clean():
    """The committed tree passes its own gate (what CI enforces)."""
    result = run_lint(REPO_ROOT)
    assert result.new == [], "\n".join(str(f) for f in result.new)
    assert result.stale == []
