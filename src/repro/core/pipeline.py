"""Stages 2 and 3 of the change-propagation pipeline: the runner.

Stage 1 (:mod:`repro.core.handlers`) folds every edit's dirty markers
into one :class:`DirtySet`.  :class:`RecomputePipeline` then runs the
recompute and data-plane stages of :mod:`repro.core.stages` — IGP,
BGP, FIB, reachability — over it, and emits each stage's
:class:`~repro.core.stages.StageWork` once.  Because the
:class:`DirtySet` is a first-class value with a ``merge()`` operation,
a batch of N edits (or N whole changes — see ``analyze_batch``)
converges in **one** recompute pass: apply every edit first, union the
dirty sets, then run stages 2–3 exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.controlplane.bgp import SessionPair
from repro.controlplane.incremental import OspfDirty
from repro.core.stages import Pass, Stage, StageWork, bgp, fib, igp, reach
from repro.net.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import DifferentialNetworkAnalyzer
    from repro.core.delta import DeltaReport
    from repro.obs.trace import LabelValue

Span = tuple[int, int]


@dataclass
class DirtySet:
    """The intermediate representation between extraction and recompute.

    One value summarizing everything a batch of edits invalidated:

    - ``ospf`` — SPF sources whose trees changed and advertisement
      prefixes that moved, per area (:class:`OspfDirty`);
    - ``touched_routers`` — routers whose connected/static routes must
      be re-derived;
    - ``bgp_prefixes`` — prefixes whose BGP solution must be re-solved;
    - ``bgp_sessions`` — directed ``(local, peer)`` router pairs whose
      BGP sessions must be re-validated (the session-discovery stage's
      axis; replaces the old boolean ``sessions_stale`` flag);
    - ``bgp_adj_rib`` — ``(receiver, sender)`` adj-RIB pairs an
      attribute-only policy edit can perturb (fine-grained scope for
      ``SetLocalPref``-style edits);
    - ``bgp_policy`` — routers whose BGP policy changed structurally
      (dirties every prefix flowing through them);
    - ``acl_spans`` — destination header-space intervals invalidated by
      ACL edits;
    - ``all_bgp_dirty`` — the coarse escape hatch for churn that
      cannot be scoped to single prefixes (new sessions appearing).

    ``merge`` unions two dirty sets, which is what makes batched
    multi-edit analysis a single recompute pass.

    **Provenance**: when a batch is analyzed with attribution on, each
    edit's handler runs against a fresh dirty set which is then
    stamped via :meth:`attribute` — every entry it produced is tagged
    with the edit's :data:`~repro.obs.provenance.EditId` in
    ``origins`` (keyed ``(axis, element)``) — before being merged into
    the batch set.  ``merge`` unions the contributing ids per axis
    element, so after stage 1 the batch dirty set knows exactly which
    edits dirtied what, and the recompute stages can propagate those
    ids onto the deltas they emit.
    """

    ospf: OspfDirty = field(default_factory=OspfDirty)
    touched_routers: set[str] = field(default_factory=set)
    bgp_prefixes: set[Prefix] = field(default_factory=set)
    bgp_sessions: set[SessionPair] = field(default_factory=set)
    bgp_adj_rib: set[SessionPair] = field(default_factory=set)
    bgp_policy: set[str] = field(default_factory=set)
    acl_spans: list[Span] = field(default_factory=list)
    all_bgp_dirty: bool = False
    # (axis, element) -> contributing edit ids; empty unless the batch
    # is analyzed with provenance on.
    origins: dict[tuple[str, object], set[int]] = field(default_factory=dict)

    @property
    def spf_sources(self) -> set[tuple[str, int]]:
        """(router, area) pairs whose SPF trees changed."""
        return self.ospf.sources

    @property
    def advert_prefixes(self) -> dict[int, set[Prefix]]:
        """area -> prefixes whose OSPF advertisements changed."""
        return self.ospf.prefixes

    def sizes(self) -> dict[str, int]:
        """Per-axis cardinalities, for stage attribution and metrics.

        These are the numbers a recompute-stage span carries as
        labels, so a profile can answer "which stage cost what, and
        why" — the *why* being how much each axis dirtied.
        """
        return {
            "spf_sources": len(self.ospf.sources),
            "advert_prefixes": sum(
                len(prefixes) for prefixes in self.ospf.prefixes.values()
            ),
            "touched_routers": len(self.touched_routers),
            "bgp_prefixes": len(self.bgp_prefixes),
            "bgp_sessions": len(self.bgp_sessions),
            "bgp_adj_rib": len(self.bgp_adj_rib),
            "bgp_policy": len(self.bgp_policy),
            "acl_spans": len(self.acl_spans),
        }

    def merge(self, other: "DirtySet") -> "DirtySet":
        """Fold ``other`` into this dirty set (in place); returns self.

        Origins union per axis element, so provenance survives the
        batch union: an element dirtied by several edits ends up
        attributed to all of them.
        """
        self.ospf.merge(other.ospf)
        self.touched_routers.update(other.touched_routers)
        self.bgp_prefixes.update(other.bgp_prefixes)
        self.bgp_sessions.update(other.bgp_sessions)
        self.bgp_adj_rib.update(other.bgp_adj_rib)
        self.bgp_policy.update(other.bgp_policy)
        self.acl_spans.extend(other.acl_spans)
        self.all_bgp_dirty = self.all_bgp_dirty or other.all_bgp_dirty
        for key, ids in other.origins.items():
            self.origins.setdefault(key, set()).update(ids)
        return self

    # -- provenance ---------------------------------------------------------

    def attribute(self, edit_id: int) -> "DirtySet":
        """Tag every current entry as contributed by ``edit_id``.

        Called by the analyzer right after one edit's handler ran
        against a fresh dirty set: everything in here was produced by
        that edit.  Returns self.
        """

        def mark(axis: str, element: object) -> None:
            self.origins.setdefault((axis, element), set()).add(edit_id)

        for source in self.ospf.sources:
            mark("spf_source", source)
        for area, prefixes in self.ospf.prefixes.items():
            for prefix in prefixes:
                mark("advert_prefix", (area, prefix))
        for router in self.touched_routers:
            mark("touched_router", router)
        for prefix in self.bgp_prefixes:
            mark("bgp_prefix", prefix)
        for pair in self.bgp_sessions:
            mark("bgp_session", pair)
        for pair in self.bgp_adj_rib:
            mark("bgp_adj_rib", pair)
        for router in self.bgp_policy:
            mark("bgp_policy", router)
        for span in self.acl_spans:
            mark("acl_span", span)
        if self.all_bgp_dirty:
            mark("all_bgp_dirty", None)
        return self

    def origin(self, axis: str, element: object = None) -> set[int]:
        """The edit ids that dirtied one axis element (empty if none)."""
        return self.origins.get((axis, element), set())

    def igp_origin_union(self) -> set[int]:
        """Every edit id that touched an IGP-feeding axis."""
        ids: set[int] = set()
        for (axis, _element), contributors in self.origins.items():
            if axis in ("spf_source", "advert_prefix", "touched_router"):
                ids |= contributors
        return ids

    def is_empty(self) -> bool:
        return (
            self.ospf.is_empty()
            and not self.touched_routers
            and not self.bgp_prefixes
            and not self.bgp_sessions
            and not self.bgp_adj_rib
            and not self.bgp_policy
            and not self.acl_spans
            and not self.all_bgp_dirty
        )

    def __repr__(self) -> str:
        parts: list[str] = []
        if self.ospf.sources:
            parts.append(f"{len(self.ospf.sources)} spf sources")
        advert_count = sum(len(p) for p in self.ospf.prefixes.values())
        if advert_count:
            parts.append(f"{advert_count} advert prefixes")
        if self.touched_routers:
            parts.append(f"{len(self.touched_routers)} routers")
        if self.bgp_prefixes:
            parts.append(f"{len(self.bgp_prefixes)} bgp prefixes")
        if self.bgp_sessions:
            parts.append(f"{len(self.bgp_sessions)} session pairs")
        if self.bgp_adj_rib:
            parts.append(f"{len(self.bgp_adj_rib)} adj-rib pairs")
        if self.bgp_policy:
            parts.append(f"{len(self.bgp_policy)} policy routers")
        if self.acl_spans:
            parts.append(f"{len(self.acl_spans)} acl spans")
        if self.all_bgp_dirty:
            parts.append("all-bgp-dirty")
        return f"DirtySet({', '.join(parts) if parts else 'empty'})"


# In pass order.
STAGES: tuple[Stage, ...] = (igp, bgp, fib, reach)


class RecomputePipeline:
    """Scoped recomputation + differential data plane over one analyzer.

    Built per pass and stateless: it reads the analyzer's converged
    state, consumes one :class:`DirtySet`, and writes the deltas into
    the given report.  The analyzer owns orchestration
    (edit dispatch, journaling hooks, the root spans).
    """

    def __init__(self, analyzer: "DifferentialNetworkAnalyzer") -> None:
        self.analyzer = analyzer

    def run(self, dirty: DirtySet, report: DeltaReport) -> None:
        """Stages 2–3: consume ``dirty``, write deltas into ``report``.

        Each stage runs under a tracer span opened with the dirty-set
        sizes that explain its cost; wall time lives only in those
        spans.  Once every stage has run, each :class:`StageWork` goes
        to its span, ``report.counters``, the ``pipeline.*`` metrics
        and — on provenance passes — the event log.
        """
        analyzer = self.analyzer
        ctx = Pass(analyzer, dirty, report)
        sizes = dirty.sizes()
        opening: dict[str, LabelValue] = {**sizes, "all_bgp_dirty": dirty.all_bgp_dirty}
        done: list[tuple[str, dict[str, LabelValue], StageWork]] = []
        for stage in STAGES:
            labels = {axis: opening[axis] for axis in stage.AXES}
            with analyzer.tracer.span(stage.NAME, **labels) as span:
                work = stage.run(ctx, dirty)
                span.set(**work.labels)
            done.append((stage.NAME, {**labels, **work.labels}, work))

        metrics = analyzer.metrics
        metrics.counter("pipeline.passes").inc()
        for axis, size in sizes.items():
            metrics.histogram(f"dirty.{axis}").observe(size)
        for _name, _labels, work in done:
            report.counters.update(work.counters)
            report.counters.update(work.gauges)
            for key, count in work.counters.items():
                metrics.counter(f"pipeline.{key}").inc(count)
            for key, level in work.gauges.items():
                metrics.gauge(f"pipeline.{key}").set(level)

        events = analyzer.events
        if events is not None and report.provenance is not None:
            # Event-log payloads are deterministic by contract: span
            # labels are dirty-set sizes and work counts, never
            # wall-clock (that stays in the span trace).
            for name, labels, _work in done:
                events.span(name, **labels)
            for _name, _labels, work in done:
                for key, count in work.counters.items():
                    events.metric(f"pipeline.{key}", count)
