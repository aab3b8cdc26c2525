"""The IGP stage: OSPF routes for dirty SPF sources and advertisement
prefixes, connected/static routes for touched routers, and the IGP
adapter entries of every route rewritten."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.connected import connected_routes, static_routes
from repro.controlplane.ospf import (
    backbone_advertisements,
    backbone_totals,
    ospf_routes_for_source,
)
from repro.core.stages import Pass, RibKey, StageWork, bgp
from repro.net.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import DirtySet

NAME = "pipeline.igp"
AXES: tuple[str, ...] = ("spf_sources", "advert_prefixes", "touched_routers")
NON_BGP = frozenset({"bgp"})


def run(ctx: Pass, dirty: DirtySet) -> StageWork:
    """Refresh the dirtied IGP routes, then point each written key's
    adapter entry at its non-BGP best route."""
    state = ctx.state
    written, rederived = _recompute_ospf(ctx, dirty)
    written |= _recompute_local(ctx, dirty)
    bgp.pre_image(ctx, written)
    # Sorted, so journal and adapter order do not depend on the hash
    # seed.
    for router, prefix in sorted(written):
        if ctx.journal is not None:
            ctx.journal.save_igp_route(router, prefix)
        best = state.ribs[router].best_excluding(prefix, NON_BGP)
        state.igp.set_route(router, prefix, best)
    sources = {router for router, _area in dirty.ospf.sources}
    return StageWork(
        labels={"routes_rederived": rederived, "igp_routes_written": len(written)},
        counters={"spf_sources_recomputed": len(sources)},
    )


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


def _recompute_ospf(ctx: Pass, dirty: DirtySet) -> tuple[set[RibKey], int]:
    """Refresh OSPF routes for dirty sources/prefixes.

    Plans, per source, the prefixes whose routes can have moved
    there (None: all of them), then re-derives each planned source's
    routes for those prefixes once.  Returns the (router, prefix) keys whose OSPF route was
    rewritten — the IGP adapter entries to update — and how many
    (source, prefix) routes were re-derived.
    """
    state = ctx.state
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
        if ctx.journal is not None:
            ctx.journal.save_backbone()
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

    # Refresh each planned source once, installing every route that
    # moved.
    attr = ctx.attr
    written: set[RibKey] = set()
    rederived = 0
    for source in sorted(plan):
        only = plan[source]
        if only is not None and not only:
            continue
        new_routes = ospf_routes_for_source(
            ospf, source, adverts, totals, only_prefixes=only
        )
        if ctx.journal is not None:
            ctx.journal.save_ospf_routes(source)
        cached = state.ospf_routes.setdefault(source, {})
        prefixes = set(cached) | set(new_routes) if only is None else only
        rederived += len(prefixes)
        for prefix in sorted(prefixes):
            old = cached.get(prefix)
            new = new_routes.get(prefix)
            if old == new:
                continue
            causes = None
            if attr is not None:
                causes = attr.ospf_cause(source, prefix)
                attr.note_igp(source, causes)
            ctx.install(source, "ospf", prefix, new, causes)
            written.add((source, prefix))
            if new is None:
                cached.pop(prefix, None)
            else:
                cached[prefix] = new
    return written, rederived


def _recompute_local(ctx: Pass, dirty: DirtySet) -> set[RibKey]:
    """Re-derive connected/static routes for touched routers.

    Returns the (router, prefix) keys whose route was rewritten.
    """
    state = ctx.state
    snapshot = ctx.analyzer.snapshot
    attr = ctx.attr
    written: set[RibKey] = set()
    for router in dirty.touched_routers:
        causes = attr.local_cause(router) if attr is not None else None
        new_connected = connected_routes(snapshot, router)
        new_static = static_routes(
            snapshot, router, new_connected, state.address_index
        )
        for protocol, new_map, cache in (
            ("connected", new_connected, state.connected),
            ("static", new_static, state.statics),
        ):
            if ctx.journal is not None:
                ctx.journal.save_route_cache(protocol, router)
            old_map = cache.get(router, {})
            for prefix in set(old_map) | set(new_map):
                old = old_map.get(prefix)
                new = new_map.get(prefix)
                if old == new:
                    continue
                written.add((router, prefix))
                if attr is not None and causes is not None:
                    attr.note_igp(router, causes)
                ctx.install(router, protocol, prefix, new, causes)
            cache[router] = new_map
    return written

