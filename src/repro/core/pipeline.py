"""Stages 2 and 3 of the change-propagation pipeline.

The differential analyzer is an explicit three-stage pipeline:

1. **Extraction** (:mod:`repro.core.handlers`) — each primitive edit
   is dispatched through the handler registry, which applies it to the
   snapshot, surgically updates the control-plane structures it
   touches, and folds dirty markers into a :class:`DirtySet`.
2. **Recompute** (this module) — :class:`RecomputePipeline` consumes
   one (possibly merged) :class:`DirtySet` and refreshes exactly the
   dirtied control-plane state: OSPF routes for affected sources and
   changed advertisement prefixes, connected/static derivation for
   touched routers, BGP solutions for dirty prefixes.
3. **Differential data plane** (this module) — FIB entries are rebuilt
   only for (router, prefix) pairs whose best route or resolution
   changed, and reachability is recomputed only for dirty atoms,
   diffed against the cached pre-change behaviour.

Because the :class:`DirtySet` is a first-class value with a
``merge()`` operation, a batch of N edits (or N whole changes — see
``analyze_batch``) converges in **one** recompute pass: apply every
edit first, union the dirty sets, then run stages 2–3 exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, cast

from repro.controlplane.bgp import (
    BgpSolver,
    SessionPair,
    collect_origins,
    discover_sessions_for,
)
from repro.controlplane.connected import connected_routes, static_routes
from repro.controlplane.incremental import OspfDirty
from repro.controlplane.ospf import (
    backbone_advertisements,
    backbone_totals,
    ospf_routes_for_source,
)
from repro.controlplane.rib import Route
from repro.controlplane.simulation import build_fib_entry
from repro.core.delta import DeltaReport, diff_reach_coverage
from repro.net.addr import IPv4Address, Prefix
from repro.net.interval import IntervalSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from typing import Callable

    from repro.config.routemap import AttributeBundle
    from repro.core.analyzer import DifferentialNetworkAnalyzer
    from repro.obs.provenance import ProvenanceRecord

INFINITY = float("inf")
NON_BGP = frozenset({"bgp"})

Span = tuple[int, int]
RibKey = tuple[str, Prefix]
BestChanged = dict[RibKey, tuple[Route | None, Route | None]]
BgpPair = tuple[str, IPv4Address]
Fingerprint = tuple[object, object]


def _summary_drift(
    old_map: dict[str, dict[Prefix, float]],
    new_map: dict[str, dict[Prefix, float]],
) -> set[Prefix]:
    """Prefixes whose per-router summary costs differ between maps.

    Used to diff the backbone advertisement/total maps across a
    recompute pass: only these prefixes can change inter-area routes
    at sources whose own SPF trees did not move.
    """
    changed: set[Prefix] = set()
    for router in set(old_map) | set(new_map):
        old_routes = old_map.get(router, {})
        new_routes = new_map.get(router, {})
        for prefix in set(old_routes) | set(new_routes):
            if old_routes.get(prefix) != new_routes.get(prefix):
                changed.add(prefix)
    return changed


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


@dataclass
class BgpEpoch:
    """Pre-edit BGP observations the recompute stage diffs against.

    Captured *before* any edit applies (IGP costs and session liveness
    feed the BGP decision process, so their pre-images must be frozen
    first), and consumed exactly once by :meth:`RecomputePipeline.run`.
    """

    active: bool
    pair_index: dict[BgpPair, set[Prefix]] = field(default_factory=dict)
    pre_fingerprint: dict[BgpPair, Fingerprint] = field(default_factory=dict)
    pre_liveness: dict[BgpPair, bool] = field(default_factory=dict)


class _Attribution:
    """Pass-scoped cause derivation (provenance mode only).

    Precomputes per-router/per-prefix views of the dirty set's
    origins, accumulates which edits changed IGP state at each router
    (BGP decisions and next-hop resolutions downstream of those
    routers inherit the causes), and answers each stage's "which edit
    ids caused this delta?" queries.  Every lookup falls back to the
    full edit-id set — cause sets are a sound may-have-caused
    over-approximation, never silently empty.
    """

    def __init__(self, dirty: DirtySet, record: "ProvenanceRecord") -> None:
        self.dirty = dirty
        self.record = record
        self.spf_ids: dict[str, set[int]] = {}
        self.advert_ids: dict[Prefix, set[int]] = {}
        for (axis, element), ids in dirty.origins.items():
            if axis == "spf_source":
                router = cast("tuple[str, int]", element)[0]
                self.spf_ids.setdefault(router, set()).update(ids)
            elif axis == "advert_prefix":
                prefix = cast("tuple[int, Prefix]", element)[1]
                self.advert_ids.setdefault(prefix, set()).update(ids)
        self.igp_union = dirty.igp_origin_union()
        # router -> edits that changed its IGP routes this pass.
        self.igp_router_causes: dict[str, set[int]] = {}
        # (router, prefix) FIB refreshes forced by next-hop resolution
        # changes (the best route itself held).
        self.resolution_causes: dict[RibKey, set[int]] = {}
        # The record is complete by construction time (stage 1 ran),
        # so the coarsest sound cause set can be frozen once.
        self._fallback = record.all_ids()

    # Cause getters return *borrowed* sets — possibly the attribution
    # maps' own values — to keep the per-delta provenance cost down.
    # Callers union the contents elsewhere and must never mutate them.

    def fallback(self) -> set[int]:
        return self._fallback

    def ospf_cause(self, source: str, prefix: Prefix) -> set[int]:
        """Causes of an OSPF route change at ``source`` for ``prefix``:
        the edits that dirtied the source's SPF tree or the prefix's
        advertisement (multi-area fallback refreshes sources no edit
        dirtied directly — those fall back to the IGP contributors)."""
        spf = self.spf_ids.get(source)
        advert = self.advert_ids.get(prefix)
        if spf and advert:
            return spf | advert
        ids = spf or advert
        if ids:
            return ids
        return self.igp_union or self._fallback

    def local_cause(self, router: str) -> set[int]:
        ids = self.dirty.origins.get(("touched_router", router))
        return ids or self._fallback

    def session_cause(self, local: str, peer: str) -> set[int]:
        """Causes of a BGP session appearing/disappearing: the edits
        that dirtied the directed pair (either orientation), else the
        edits that touched either endpoint router."""
        origins = self.dirty.origins
        forward = origins.get(("bgp_session", (local, peer)))
        reverse = origins.get(("bgp_session", (peer, local)))
        if forward and reverse:
            return forward | reverse
        ids = forward or reverse
        if ids:
            return ids
        touched_local = origins.get(("touched_router", local))
        touched_peer = origins.get(("touched_router", peer))
        if touched_local and touched_peer:
            return touched_local | touched_peer
        ids = touched_local or touched_peer
        return ids or self._fallback

    def note_igp(self, router: str, ids: set[int]) -> None:
        existing = self.igp_router_causes.get(router)
        if existing is None:
            # Copy: the stored set grows across notes, while ``ids``
            # may be a borrowed attribution-map value.
            self.igp_router_causes[router] = set(ids)
        else:
            existing.update(ids)

    def igp_cause_at(self, router: str) -> set[int]:
        """The edits that changed IGP state at ``router`` this pass."""
        ids = self.igp_router_causes.get(router)
        if ids:
            return ids
        return self.igp_union or self._fallback

    def fib_cause(self, router: str, prefix: Prefix) -> set[int]:
        """Causes of a FIB rebuild: the entry's RIB causes when the
        best route moved, else the IGP edits that re-resolved it."""
        ids = self.record.rib_causes.get((router, str(prefix)))
        if ids:
            return ids
        resolved = self.resolution_causes.get((router, prefix))
        if resolved:
            return resolved
        return self.igp_cause_at(router)


class RecomputePipeline:
    """Scoped recomputation + differential data plane over one analyzer.

    Stateless between runs: every invocation reads the analyzer's
    converged state, consumes one :class:`DirtySet`, and writes the
    deltas into the given report.  The analyzer owns orchestration
    (edit dispatch, journaling hooks, the root spans).
    """

    def __init__(self, analyzer: "DifferentialNetworkAnalyzer") -> None:
        self.analyzer = analyzer

    def __repr__(self) -> str:
        return f"RecomputePipeline(over {self.analyzer!r})"

    # ------------------------------------------------------------------
    # Epoch capture (before any edit applies)
    # ------------------------------------------------------------------

    def begin(self) -> BgpEpoch:
        """Freeze the pre-edit BGP observations for one recompute pass."""
        if not self._bgp_active():
            return BgpEpoch(active=False)
        pair_index = self._bgp_pair_index()
        return BgpEpoch(
            active=True,
            pair_index=pair_index,
            pre_fingerprint={
                pair: self._pair_fingerprint(pair) for pair in pair_index
            },
            pre_liveness=self._session_liveness(),
        )

    # ------------------------------------------------------------------
    # The recompute + dataplane pass
    # ------------------------------------------------------------------

    def run(self, dirty: DirtySet, epoch: BgpEpoch, report: DeltaReport) -> None:
        """Stages 2–3: consume ``dirty``, write deltas into ``report``.

        Fills the recompute counters.  Every stage runs under a tracer
        span labelled with the dirty-set sizes that explain its cost
        (per-stage DirtySet attribution); wall time lives only in
        those spans.
        """
        analyzer = self.analyzer
        state = analyzer.state
        tracer = analyzer.tracer
        sizes = dirty.sizes()
        attr = (
            _Attribution(dirty, report.provenance)
            if report.provenance is not None
            else None
        )

        with tracer.span(
            "pipeline.igp",
            spf_sources=sizes["spf_sources"],
            advert_prefixes=sizes["advert_prefixes"],
            touched_routers=sizes["touched_routers"],
        ) as igp_span:
            best_changed: BestChanged = {}
            igp_written, rederived = self._recompute_ospf(
                dirty, best_changed, report, attr
            )
            igp_written |= self._recompute_local(
                dirty, best_changed, report, attr
            )
            self._update_igp_adapter(igp_written)
            # Work counts ride on the span only: result documents and
            # the metrics/event sinks stay unchanged.
            igp_span.set(
                routes_rederived=rederived,
                igp_routes_written=len(igp_written),
            )

        with tracer.span(
            "pipeline.bgp",
            bgp_prefixes=sizes["bgp_prefixes"],
            bgp_sessions=sizes["bgp_sessions"],
            bgp_adj_rib=sizes["bgp_adj_rib"],
            bgp_policy=sizes["bgp_policy"],
            all_bgp_dirty=dirty.all_bgp_dirty,
        ) as bgp_span:
            solved = 0
            rescanned = 0
            if epoch.active:
                solved, rescanned = self._recompute_bgp(
                    dirty, epoch, best_changed, report, attr
                )
            bgp_span.set(prefixes_solved=solved, sessions_rescanned=rescanned)

        with tracer.span("pipeline.fib") as fib_span:
            dirty_spans = self._update_fibs(best_changed, report, attr)
            dirty_spans.extend(dirty.acl_spans)
            fib_span.set(entries_updated=report.num_fib_changes())

        with tracer.span(
            "pipeline.reachability", acl_spans=sizes["acl_spans"]
        ) as reach_span:
            dirty_atoms = self._recompute_reachability(dirty_spans, report)
            reach_span.set(atoms_analyzed=dirty_atoms)

        if attr is not None and report.provenance is not None:
            # Invalidated header-space spans carry their origins onto
            # the provenance record — reachability segments overlapping
            # them inherit these causes.
            for lo, hi in dirty.acl_spans:
                report.provenance.record_acl_span(
                    lo, hi, dirty.origin("acl_span", (lo, hi)) or attr.fallback()
                )

        counters = {
            "spf_sources_recomputed": len(
                {router for router, _area in dirty.ospf.sources}
            ),
            "bgp_prefixes_resolved": solved,
            "bgp_sessions_rescanned": rescanned,
            "fib_entries_updated": report.num_fib_changes(),
            "atoms_analyzed": dirty_atoms,
            "atoms_total": state.dataplane.atom_table.num_atoms(),
        }
        report.counters.update(counters)

        metrics = analyzer.metrics
        metrics.counter("pipeline.passes").inc()
        for key in (
            "spf_sources_recomputed",
            "bgp_prefixes_resolved",
            "bgp_sessions_rescanned",
            "fib_entries_updated",
            "atoms_analyzed",
        ):
            metrics.counter(f"pipeline.{key}").inc(counters[key])
        metrics.gauge("pipeline.atoms_total").set(counters["atoms_total"])
        for axis, size in sizes.items():
            metrics.histogram(f"dirty.{axis}").observe(size)

        events = analyzer.events
        if events is not None and report.provenance is not None:
            # Event-log payloads are deterministic by contract: stage
            # labels are dirty-set sizes and the metric values are work
            # counts — never wall-clock (that stays in the span trace).
            events.span(
                "pipeline.igp",
                spf_sources=sizes["spf_sources"],
                advert_prefixes=sizes["advert_prefixes"],
                touched_routers=sizes["touched_routers"],
            )
            events.span(
                "pipeline.bgp",
                bgp_prefixes=sizes["bgp_prefixes"],
                bgp_sessions=sizes["bgp_sessions"],
                bgp_adj_rib=sizes["bgp_adj_rib"],
                bgp_policy=sizes["bgp_policy"],
                prefixes_solved=solved,
                sessions_rescanned=rescanned,
            )
            events.span(
                "pipeline.fib", entries_updated=report.num_fib_changes()
            )
            events.span(
                "pipeline.reachability",
                acl_spans=sizes["acl_spans"],
                atoms_analyzed=dirty_atoms,
            )
            for key in (
                "spf_sources_recomputed",
                "bgp_prefixes_resolved",
                "bgp_sessions_rescanned",
                "fib_entries_updated",
                "atoms_analyzed",
            ):
                events.metric(f"pipeline.{key}", counters[key])

    # ------------------------------------------------------------------
    # OSPF / local route recomputation
    # ------------------------------------------------------------------

    def _install_route_update(
        self,
        router: str,
        protocol: str,
        prefix: Prefix,
        new_route: Route | None,
        best_changed: BestChanged,
        report: DeltaReport,
        causes: set[int] | None = None,
    ) -> bool:
        """Install/withdraw one protocol route; track best-route flips.

        Returns True if the router's best route for the prefix changed.
        ``causes`` (provenance mode) attributes the flip to edit ids.
        """
        analyzer = self.analyzer
        if analyzer._journal is not None:
            analyzer._journal.save_rib_prefix(router, prefix)
        rib = analyzer.state.ribs[router]
        old_best = rib.best(prefix)
        if new_route is None:
            rib.withdraw(prefix, protocol)
        else:
            rib.install(new_route)
        new_best = rib.best(prefix)
        if old_best == new_best:
            return False
        key = (router, prefix)
        existing = best_changed.get(key)
        original = existing[0] if existing is not None else old_best
        if original == new_best:
            best_changed.pop(key, None)
        else:
            best_changed[key] = (original, new_best)
        report.record_rib(router, prefix, old_best, new_best, causes=causes)
        return True

    def _recompute_ospf(
        self,
        dirty: DirtySet,
        best_changed: BestChanged,
        report: DeltaReport,
        attr: _Attribution | None = None,
    ) -> tuple[set[RibKey], int]:
        """Refresh OSPF routes for dirty sources/prefixes.

        Plans, per source, the prefixes whose routes can have moved
        there (None: all of them), then refreshes each planned source
        once.  Returns the (router, prefix) keys whose OSPF route was
        rewritten — the IGP adapter entries to update — and how many
        (source, prefix) routes were re-derived.
        """
        analyzer = self.analyzer
        state = analyzer.state
        if dirty.ospf.is_empty():
            return set(), 0
        ospf = state.ospf_state
        adverts = None
        totals = None
        plan: dict[str, set[Prefix] | None] = {}
        if len(ospf.areas()) > 1:
            # Multi-area (no benchmark workload is): SPF-dirty sources
            # refresh in full.  Inter-area summaries may have shifted
            # anywhere; recompute them once and diff against the cached
            # pre-images so other sources refresh only the prefixes
            # whose summary drifted or whose intra-area advertisement
            # was dirtied in one of their areas.
            adverts = backbone_advertisements(ospf)
            totals = backbone_totals(ospf, adverts)
            old_adverts = state.backbone_adverts
            old_totals = state.backbone_totals_map
            if analyzer._journal is not None:
                analyzer._journal.save_backbone()
            state.backbone_adverts = adverts
            state.backbone_totals_map = totals
            if old_adverts is None or old_totals is None:
                # No pre-image (state predates the backbone cache):
                # refresh every OSPF source.
                plan = {source: None for source in ospf.membership}
            else:
                plan = {router: None for router, _area in dirty.ospf.sources}
                summary_changed = _summary_drift(
                    old_adverts, adverts
                ) | _summary_drift(old_totals, totals)
                for source, areas in ospf.membership.items():
                    if source in plan:
                        continue
                    drifted = set(summary_changed)
                    for area in areas:
                        drifted |= dirty.ospf.prefixes.get(area, set())
                    if drifted:
                        plan[source] = drifted
        else:
            # A route at S for prefix P depends only on the distance
            # and first hops of P's owners.  First hops are the union of
            # the SPF parents' first hops, so they can only have moved
            # at a moved node or below it in the (final) DAG.
            for source, area in dirty.ospf.sources:
                moved = dirty.ospf.moved.get((source, area))
                if moved is None or source not in ospf.membership:
                    plan[source] = None
                    continue
                owners = ospf.advertised.get(area, {})
                scope = plan.setdefault(source, set())
                if scope is not None:
                    for node in ospf.spf_for(source, area).descendants(moved):
                        scope.update(owners.get(node, ()))
            for area, prefixes in dirty.ospf.prefixes.items():
                if not prefixes:
                    continue
                for source in ospf.area_routers(area):
                    scope = plan.setdefault(source, set())
                    if scope is not None:
                        scope |= prefixes

        written: set[RibKey] = set()
        rederived = 0
        for source in sorted(plan):
            only = plan[source]
            if only is not None and not only:
                continue
            rederived += self._refresh_ospf_source(
                source, only, adverts, totals, written, best_changed, report,
                attr,
            )
        return written, rederived

    def _refresh_ospf_source(
        self,
        source: str,
        only: set[Prefix] | None,
        adverts: dict[str, dict[Prefix, float]] | None,
        totals: dict[str, dict[Prefix, float]] | None,
        written: set[RibKey],
        best_changed: BestChanged,
        report: DeltaReport,
        attr: _Attribution | None,
    ) -> int:
        """Re-derive ``source``'s OSPF routes for ``only`` (None: all).

        Installs every route that moved and adds its key to
        ``written``; returns the number of prefixes re-derived.
        """
        analyzer = self.analyzer
        state = analyzer.state
        new_routes = ospf_routes_for_source(
            state.ospf_state, source, adverts, totals, only_prefixes=only
        )
        if analyzer._journal is not None:
            analyzer._journal.save_ospf_routes(source)
        cached = state.ospf_routes.setdefault(source, {})
        prefixes = set(cached) | set(new_routes) if only is None else only
        for prefix in sorted(prefixes):
            old = cached.get(prefix)
            new = new_routes.get(prefix)
            if old == new:
                continue
            causes = None
            if attr is not None:
                causes = attr.ospf_cause(source, prefix)
                attr.note_igp(source, causes)
            self._install_route_update(
                source, "ospf", prefix, new, best_changed, report, causes
            )
            written.add((source, prefix))
            if new is None:
                cached.pop(prefix, None)
            else:
                cached[prefix] = new
        return len(prefixes)

    def _recompute_local(
        self,
        dirty: DirtySet,
        best_changed: BestChanged,
        report: DeltaReport,
        attr: _Attribution | None = None,
    ) -> set[RibKey]:
        """Re-derive connected/static routes for touched routers.

        Returns the (router, prefix) keys whose route was rewritten.
        """
        analyzer = self.analyzer
        state = analyzer.state
        written: set[RibKey] = set()
        for router in dirty.touched_routers:
            causes = attr.local_cause(router) if attr is not None else None
            new_connected = connected_routes(analyzer.snapshot, router)
            new_static = static_routes(
                analyzer.snapshot, router, new_connected, state.address_index
            )
            for protocol, new_map, cache in (
                ("connected", new_connected, state.connected),
                ("static", new_static, state.statics),
            ):
                if analyzer._journal is not None:
                    analyzer._journal.save_route_cache(protocol, router)
                old_map = cache.get(router, {})
                for prefix in set(old_map) | set(new_map):
                    old = old_map.get(prefix)
                    new = new_map.get(prefix)
                    if old == new:
                        continue
                    written.add((router, prefix))
                    if attr is not None and causes is not None:
                        attr.note_igp(router, causes)
                    self._install_route_update(
                        router, protocol, prefix, new, best_changed, report,
                        causes,
                    )
                cache[router] = new_map
        return written

    def _update_igp_adapter(self, keys: set[RibKey]) -> None:
        """Point each written key's adapter entry at its non-BGP best.

        Keys are visited sorted, so journal and adapter order do not
        depend on the hash seed.
        """
        analyzer = self.analyzer
        state = analyzer.state
        for router, prefix in sorted(keys):
            if analyzer._journal is not None:
                analyzer._journal.save_igp_route(router, prefix)
            best = state.ribs[router].best_excluding(prefix, NON_BGP)
            state.igp.set_route(router, prefix, best)

    # ------------------------------------------------------------------
    # BGP recomputation
    # ------------------------------------------------------------------

    def _bgp_active(self) -> bool:
        analyzer = self.analyzer
        if analyzer.state.bgp_solutions:
            return True
        return any(
            config.bgp is not None
            for config in analyzer.snapshot.configs.values()
        )

    def _bgp_pair_index(self) -> dict[BgpPair, set[Prefix]]:
        """(router, next-hop) -> prefixes whose solution involves it."""
        index: dict[BgpPair, set[Prefix]] = {}
        for prefix, solution in self.analyzer.state.bgp_solutions.items():
            for (receiver, _sender), candidate in solution.adj_in.items():
                if candidate.next_hop is not None:
                    index.setdefault(
                        (receiver, candidate.next_hop), set()
                    ).add(prefix)
            for router, candidate in solution.best.items():
                if candidate.next_hop is not None:
                    index.setdefault((router, candidate.next_hop), set()).add(
                        prefix
                    )
        return index

    def _pair_fingerprint(self, pair: BgpPair) -> Fingerprint:
        router, address = pair
        state = self.analyzer.state
        cost = state.igp.cost_to(router, address)
        resolved = state.igp.resolve(router, address, state.address_index)
        return (cost, resolved)

    def _session_liveness(self) -> dict[BgpPair, bool]:
        state = self.analyzer.state
        liveness: dict[BgpPair, bool] = {}
        for session in state.bgp_sessions:
            if session.direct:
                continue
            liveness[(session.local, session.peer_ip)] = (
                state.igp.cost_to(session.local, session.peer_ip) < INFINITY
            )
        return liveness

    def _recompute_bgp(
        self,
        dirty: DirtySet,
        epoch: BgpEpoch,
        best_changed: BestChanged,
        report: DeltaReport,
        attr: _Attribution | None = None,
    ) -> tuple[int, int]:
        """The BGP stage, as an explicit sub-pipeline.

        Mirrors the :mod:`repro.controlplane.bgp` package layout:
        session discovery, policy scoping, adj-RIB invalidation,
        best-path decision — each sub-stage consumes its own DirtySet
        axis under its own ``pipeline.bgp.*`` span (children of
        ``pipeline.bgp``, so the top-level stage list is unchanged).
        Returns ``(prefixes solved, session slots rescanned)``.
        """
        analyzer = self.analyzer
        state = analyzer.state
        tracer = analyzer.tracer
        bgp_dirty: set[Prefix] = set(dirty.bgp_prefixes)
        all_bgp_dirty = dirty.all_bgp_dirty

        # Per-prefix cause bookkeeping (provenance mode): every branch
        # that dirties a prefix notes *why*; ``all_cause`` backs the
        # prefixes only reached through an all-dirty expansion.
        bgp_cause: dict[Prefix, set[int]] = {}
        all_cause: set[int] = set()

        def note(prefix: Prefix, ids: set[int]) -> None:
            bgp_cause.setdefault(prefix, set()).update(ids)

        if attr is not None:
            for prefix in dirty.bgp_prefixes:
                note(prefix, set(dirty.origin("bgp_prefix", prefix)))
            if dirty.all_bgp_dirty:
                all_cause |= dirty.origin("all_bgp_dirty")

        with tracer.span(
            "pipeline.bgp.sessions", pairs=len(dirty.bgp_sessions)
        ) as sessions_span:
            rescanned, session_all_dirty = self._bgp_sessions_stage(
                dirty, bgp_dirty, note, all_cause, attr
            )
            all_bgp_dirty = all_bgp_dirty or session_all_dirty
            sessions_span.set(rescanned=rescanned)

        origins = collect_origins(analyzer.snapshot)

        with tracer.span(
            "pipeline.bgp.policy",
            policy_routers=len(dirty.bgp_policy),
            adj_rib_pairs=len(dirty.bgp_adj_rib),
        ):
            self._bgp_policy_stage(dirty, origins, bgp_dirty, note, attr)

        with tracer.span("pipeline.bgp.adjrib") as adjrib_span:
            resolution_refresh, liveness_dirty = self._bgp_adjrib_stage(
                dirty, epoch, origins, bgp_dirty, note, all_cause, attr
            )
            all_bgp_dirty = all_bgp_dirty or liveness_dirty
            adjrib_span.set(
                resolution_refreshes=len(resolution_refresh),
                liveness_dirty=liveness_dirty,
            )

        with tracer.span("pipeline.bgp.decision") as decision_span:
            if all_bgp_dirty:
                bgp_dirty = set(state.bgp_solutions) | set(origins)

            def cause_for(prefix: Prefix) -> set[int] | None:
                if attr is None:
                    return None
                ids = set(bgp_cause.get(prefix, ()))
                if not ids:
                    ids = set(all_cause)
                return ids or attr.fallback()

            # Built after the sessions stage and the IGP stage, so the
            # session graph and the IGP view are final for the pass.
            solver = BgpSolver(
                analyzer.snapshot, state.bgp_sessions, state.igp
            )
            routers = analyzer.snapshot.topology.router_names()
            for prefix in sorted(bgp_dirty):
                old_solution = state.bgp_solutions.get(prefix)
                if analyzer._journal is not None:
                    analyzer._journal.save_bgp_solution(prefix)
                if prefix in origins:
                    new_solution = solver.solve(prefix, origins[prefix])
                    state.bgp_solutions[prefix] = new_solution
                else:
                    new_solution = None
                    state.bgp_solutions.pop(prefix, None)
                prefix_causes = cause_for(prefix)
                for router in routers:
                    old_route = (
                        old_solution.route_for(router)
                        if old_solution
                        else None
                    )
                    new_route = (
                        new_solution.route_for(router)
                        if new_solution
                        else None
                    )
                    if old_route == new_route:
                        continue
                    self._install_route_update(
                        router,
                        "bgp",
                        prefix,
                        new_route,
                        best_changed,
                        report,
                        prefix_causes,
                    )

            # Resolution-only refreshes enter the FIB stage via
            # best_changed with an unchanged best route (the FIB entry
            # still differs).
            for router, prefix in resolution_refresh:
                key = (router, prefix)
                if key not in best_changed:
                    best = state.ribs[router].best(prefix)
                    best_changed[key] = (best, best)
            decision_span.set(
                prefixes_solved=len(bgp_dirty),
                exports_evaluated=solver.exports_evaluated,
            )
        return len(bgp_dirty), rescanned

    def _bgp_sessions_stage(
        self,
        dirty: DirtySet,
        bgp_dirty: set[Prefix],
        note: "Callable[[Prefix, set[int]], None]",
        all_cause: set[int],
        attr: _Attribution | None,
    ) -> tuple[int, bool]:
        """Stage 1 — session discovery over the ``bgp_sessions`` axis.

        Re-validates only the dirtied directed ``(local, peer)`` pairs
        (``kept + rediscovered``, both canonically ordered, is
        byte-identical to a full rescan).  Removed sessions scope down
        to the prefixes flowing over them; added sessions escalate to
        all-dirty (a new session can attract any prefix).  Returns
        ``(session slots rescanned, all-dirty escalation)``.
        """
        analyzer = self.analyzer
        state = analyzer.state
        pairs = set(dirty.bgp_sessions)
        if not pairs:
            return 0, False
        kept = [s for s in state.bgp_sessions if s.key not in pairs]
        rediscovered = discover_sessions_for(
            analyzer.snapshot, state.address_index, pairs
        )
        new_sessions = sorted(kept + rediscovered, key=lambda s: s.sort_key)
        old_keys = {
            (s.local, s.peer, s.local_ip, s.peer_ip)
            for s in state.bgp_sessions
        }
        new_keys = {
            (s.local, s.peer, s.local_ip, s.peer_ip) for s in new_sessions
        }
        removed = old_keys - new_keys
        added = new_keys - old_keys
        all_bgp = False
        if added:
            all_bgp = True
            if attr is not None:
                for local, peer, _local_ip, _peer_ip in added:
                    all_cause |= attr.session_cause(local, peer)
        if removed:
            removed_pairs = {(local, peer) for local, peer, _, _ in removed}
            pair_cause: dict[SessionPair, set[int]] = {}
            if attr is not None:
                for local, peer, _local_ip, _peer_ip in removed:
                    pair_cause[(local, peer)] = attr.session_cause(
                        local, peer
                    )
            for prefix, solution in state.bgp_solutions.items():
                for receiver, sender in solution.adj_in:
                    if (sender, receiver) in removed_pairs:
                        bgp_dirty.add(prefix)
                        if attr is None:
                            break
                        note(prefix, pair_cause[(sender, receiver)])
        if analyzer._journal is not None:
            analyzer._journal.save_sessions()
        state.bgp_sessions = new_sessions
        return len(pairs), all_bgp

    def _bgp_policy_stage(
        self,
        dirty: DirtySet,
        origins: "dict[Prefix, dict[str, AttributeBundle]]",
        bgp_dirty: set[Prefix],
        note: "Callable[[Prefix, set[int]], None]",
        attr: _Attribution | None,
    ) -> None:
        """Stage 2 — policy scoping over ``bgp_policy``/``bgp_adj_rib``.

        Structural policy edits (``bgp_policy``) dirty every prefix
        flowing through — or originated by — the edited routers.
        Attribute-only edits (``bgp_adj_rib``) dirty exactly the
        prefixes with adj-RIB entries on the dirtied (receiver,
        sender) pairs: a local-pref tweak cannot flip a permit/deny,
        so prefixes without an entry on those sessions cannot move.
        """
        state = self.analyzer.state
        if dirty.bgp_policy:
            for prefix, solution in state.bgp_solutions.items():
                for receiver, sender in solution.adj_in:
                    hit = {
                        router
                        for router in (receiver, sender)
                        if router in dirty.bgp_policy
                    }
                    if hit:
                        bgp_dirty.add(prefix)
                        if attr is None:
                            break
                        for router in hit:
                            note(
                                prefix,
                                set(dirty.origin("bgp_policy", router)),
                            )
            # Policy can gate originations too (export maps on first hop).
            for prefix, owners_list in origins.items():
                hit = set(owners_list) & dirty.bgp_policy
                if hit:
                    bgp_dirty.add(prefix)
                    if attr is not None:
                        for router in hit:
                            note(
                                prefix,
                                set(dirty.origin("bgp_policy", router)),
                            )
        if dirty.bgp_adj_rib:
            for prefix, solution in state.bgp_solutions.items():
                touched = dirty.bgp_adj_rib & set(solution.adj_in)
                if touched:
                    bgp_dirty.add(prefix)
                    if attr is not None:
                        for pair in sorted(touched):
                            note(
                                prefix,
                                set(dirty.origin("bgp_adj_rib", pair)),
                            )

    def _bgp_adjrib_stage(
        self,
        dirty: DirtySet,
        epoch: BgpEpoch,
        origins: "dict[Prefix, dict[str, AttributeBundle]]",
        bgp_dirty: set[Prefix],
        note: "Callable[[Prefix, set[int]], None]",
        all_cause: set[int],
        attr: _Attribution | None,
    ) -> tuple[set[RibKey], bool]:
        """Stage 3 — adj-RIB invalidation from IGP and origination drift.

        IGP cost changes flip decisions; resolution changes require
        FIB rebuilds even when decisions hold; liveness flips on
        multihop sessions escalate to all-dirty.  Origination drift
        beyond explicit announce/withdraw edits (redistribute-connected
        picking up connected-route changes) dirties the drifted
        prefixes.  Returns ``(resolution-only refreshes, liveness
        escalation)``.
        """
        analyzer = self.analyzer
        state = analyzer.state
        resolution_refresh: set[RibKey] = set()
        liveness_dirty = False
        for pair, prefixes in epoch.pair_index.items():
            post = self._pair_fingerprint(pair)
            pre = epoch.pre_fingerprint[pair]
            if pre == post:
                continue
            pair_igp_cause = (
                attr.igp_cause_at(pair[0]) if attr is not None else None
            )
            if pre[0] != post[0]:
                bgp_dirty.update(prefixes)
                if attr is not None and pair_igp_cause is not None:
                    for prefix in prefixes:
                        note(prefix, pair_igp_cause)
            if pre[1] != post[1]:
                # Even when the decision holds, the resolved next
                # hops changed — those FIB entries must be rebuilt.
                router = pair[0]
                for prefix in prefixes:
                    solution = state.bgp_solutions.get(prefix)
                    if solution is None:
                        continue
                    best = solution.best.get(router)
                    if best is not None and best.next_hop == pair[1]:
                        resolution_refresh.add((router, prefix))
                        if attr is not None and pair_igp_cause is not None:
                            attr.resolution_causes.setdefault(
                                (router, prefix), set()
                            ).update(pair_igp_cause)
        post_liveness = self._session_liveness()
        if epoch.pre_liveness != post_liveness:
            liveness_dirty = True
            if attr is not None:
                for pair in set(epoch.pre_liveness) | set(post_liveness):
                    if epoch.pre_liveness.get(pair) != post_liveness.get(pair):
                        all_cause |= attr.igp_cause_at(pair[0])

        # Origination drift beyond explicit announce/withdraw edits:
        # redistribute-connected picks up connected-route changes.
        for prefix in set(origins) | set(analyzer._origins):
            if origins.get(prefix) != analyzer._origins.get(prefix):
                bgp_dirty.add(prefix)
                if attr is not None:
                    # Explicit announce/withdraw edits stamp the
                    # prefix axis directly; connected-route drift is
                    # pinned through the owning routers instead.
                    drift: set[int] = set(
                        dirty.origin("bgp_prefix", prefix)
                    )
                    owners = set(origins.get(prefix, ())) | set(
                        analyzer._origins.get(prefix, ())
                    )
                    for owner in owners:
                        drift |= dirty.origin("touched_router", owner)
                    note(prefix, drift or attr.fallback())
        if analyzer._journal is not None:
            analyzer._journal.save_origins()
        analyzer._origins = origins
        return resolution_refresh, liveness_dirty

    # ------------------------------------------------------------------
    # FIB + reachability
    # ------------------------------------------------------------------

    def _update_fibs(
        self,
        best_changed: BestChanged,
        report: DeltaReport,
        attr: _Attribution | None = None,
    ) -> list[Span]:
        analyzer = self.analyzer
        state = analyzer.state
        spans: list[Span] = []
        for (router, prefix), (_old_best, _new_best) in best_changed.items():
            best = state.ribs[router].best(prefix)
            new_entry = None
            if best is not None:
                new_entry = build_fib_entry(
                    state.igp, state.address_index, router, best
                )
            fib = state.fibs.get(router)
            old_entry = fib.entry_for(prefix) if fib is not None else None
            if old_entry == new_entry:
                continue
            causes = (
                attr.fib_cause(router, prefix) if attr is not None else None
            )
            report.record_fib(
                router, prefix, old_entry, new_entry, causes=causes
            )
            if analyzer._journal is not None:
                analyzer._journal.save_fib_entry(router, prefix, old_entry)
            state.dataplane.update_fib_entry(router, prefix, new_entry)
            spans.append(prefix.interval())
        return spans

    def _recompute_reachability(
        self, spans: list[Span], report: DeltaReport
    ) -> int:
        analyzer = self.analyzer
        if not spans:
            report.reach_segments = []
            return 0
        state = analyzer.state
        reach = state.reachability
        # Close the dirty region over both sides: new atoms (merges can
        # extend past the change spans) and cached pre-change entries
        # (a purged parent atom can extend past the split sub-atom that
        # overlaps the change).  Without the closure the cache would
        # develop coverage holes and later diffs would silently miss
        # behaviour changes.
        region = IntervalSet(spans)
        while True:
            dirty_atoms = [
                atom
                for lo, hi in region.pairs
                for atom in state.dataplane.atom_table.atoms_overlapping(lo, hi)
            ]
            before = reach.entries_overlapping(region.pairs)
            widened = region
            for atom in dirty_atoms:
                widened = widened.union(IntervalSet.span(atom.lo, atom.hi))
            for lo, hi, _ in before:
                widened = widened.union(IntervalSet.span(lo, hi))
            if widened == region:
                break
            region = widened
        if analyzer._journal is not None:
            analyzer._journal.record_reachability(region.pairs, before)
        reach.purge_overlapping(region.pairs)
        unique_atoms = set(dirty_atoms)
        after = [
            (atom.lo, atom.hi, reach.for_atom(atom)) for atom in unique_atoms
        ]
        report.reach_segments = diff_reach_coverage(before, after)
        return len(unique_atoms)
