"""OSPF: per-area SPF with ECMP and backbone-based inter-area routing.

The model follows the standard two-level OSPF hierarchy:

- Within one area, adjacencies form across enabled links whose two
  interfaces both run OSPF (non-passive) in that area; each area is
  reduced to an :class:`~repro.controlplane.spf.SpfGraph` and every
  router keeps a :class:`~repro.controlplane.ispf.DynamicSpf` per area
  it belongs to (the incremental layer updates these in place).
- Every OSPF interface (including passive ones) advertises its subnet
  into its area at the interface cost.
- Area border routers (members of area 0 plus another area) summarise
  their non-backbone areas into the backbone and the backbone into
  their non-backbone areas.  Intra-area routes are preferred over
  inter-area routes for the same prefix, per the OSPF route
  preference rule.

Simplifications vs. a full ABR implementation (documented in
DESIGN.md): no virtual links, no area ranges/suppression, no NSSA/stub
areas, and inter-area ECMP ties are broken across ABRs by total cost
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.config.routing import ADMIN_DISTANCE_OSPF
from repro.controlplane.ispf import DynamicSpf
from repro.controlplane.rib import NextHop, Route
from repro.controlplane.spf import INFINITY, SpfGraph
from repro.net.addr import Prefix

BACKBONE = 0


class OspfConfigError(ValueError):
    """Raised for invalid OSPF configuration (e.g. cost < 1)."""


@dataclass
class OspfState:
    """Everything OSPF derives from a snapshot.

    - ``graphs``: per-area adjacency graphs.
    - ``advertised``: area -> router -> {prefix: advertised cost}.
    - ``membership``: router -> set of areas it has interfaces in.
    - ``spf``: (router, area) -> incremental SPF instance.
    """

    graphs: dict[int, SpfGraph] = field(default_factory=dict)
    advertised: dict[int, dict[str, dict[Prefix, int]]] = field(default_factory=dict)
    membership: dict[str, set[int]] = field(default_factory=dict)
    spf: dict[tuple[str, int], DynamicSpf] = field(default_factory=dict)

    def areas(self) -> list[int]:
        """All areas, backbone first."""
        return sorted(self.graphs)

    def area_routers(self, area: int) -> list[str]:
        """Routers with interfaces in ``area``."""
        return [r for r, areas in self.membership.items() if area in areas]

    def abrs(self, area: int) -> list[str]:
        """Area border routers between ``area`` and the backbone."""
        if area == BACKBONE:
            return []
        return [
            r
            for r, areas in self.membership.items()
            if area in areas and BACKBONE in areas
        ]

    def spf_for(self, router: str, area: int) -> DynamicSpf:
        """The (lazily created) incremental SPF of one source."""
        key = (router, area)
        instance = self.spf.get(key)
        if instance is None:
            instance = DynamicSpf(self.graphs[area], router)
            self.spf[key] = instance
        return instance

    def clone(self) -> "OspfState":
        """An independent structural copy (the fork checkpoint).

        Graphs are copied once per area and every cloned SPF instance
        is rewired onto its area's copy, preserving the aliasing the
        incremental layer relies on.  Route/NextHop/Prefix values are
        shared — they are immutable.
        """
        graphs = {area: graph.copy() for area, graph in self.graphs.items()}
        return OspfState(
            graphs=graphs,
            advertised={
                area: {router: dict(costs) for router, costs in owners.items()}
                for area, owners in self.advertised.items()
            },
            membership={router: set(a) for router, a in self.membership.items()},
            spf={
                (router, area): spf.clone(graphs[area])
                for (router, area), spf in self.spf.items()
            },
        )


def _interface_participates(snapshot, router: str, interface_name: str) -> bool:
    """True if the interface is administratively and physically up."""
    from repro.controlplane.connected import interface_is_up

    return interface_is_up(snapshot, router, interface_name)


def build_ospf_state(snapshot) -> OspfState:
    """Derive graphs, advertisements, and memberships from a snapshot.

    SPF instances are created lazily by :meth:`OspfState.spf_for`.
    """
    state = OspfState()
    topology = snapshot.topology

    # Pass 1: memberships, advertised prefixes, area node sets.
    for router_name, config in snapshot.configs.items():
        if config.ospf is None:
            continue
        device = topology.router(router_name)
        for interface_name, settings in config.ospf.interfaces.items():
            if not settings.enabled:
                continue
            if settings.cost < 1:
                raise OspfConfigError(
                    f"{router_name}[{interface_name}]: OSPF cost must be >= 1"
                )
            if interface_name not in device.interfaces:
                continue  # config references a non-existent interface
            if not _interface_participates(snapshot, router_name, interface_name):
                continue
            area = settings.area
            state.membership.setdefault(router_name, set()).add(area)
            graph = state.graphs.setdefault(area, SpfGraph())
            graph.add_node(router_name)
            subnet = device.interfaces[interface_name].subnet
            if subnet is not None:
                per_router = state.advertised.setdefault(area, {}).setdefault(
                    router_name, {}
                )
                existing = per_router.get(subnet)
                if existing is None or settings.cost < existing:
                    per_router[subnet] = settings.cost

    # Pass 2: adjacencies (both interfaces active, same area, neither
    # passive); parallel links collapse onto the cheapest cost with
    # ECMP attachments.
    best: dict[tuple[int, str, str], tuple[int, set[NextHop]]] = {}
    for link in topology.links():
        sides = (link.side_a, link.side_b)
        for (local, local_if), (peer, peer_if) in (sides, sides[::-1]):
            settings = _active_ospf_settings(snapshot, local, local_if)
            peer_settings = _active_ospf_settings(snapshot, peer, peer_if)
            if settings is None or peer_settings is None:
                continue
            if settings.passive or peer_settings.passive:
                continue
            if settings.area != peer_settings.area:
                continue
            peer_address = topology.router(peer).interface(peer_if).address
            hop = NextHop(interface=local_if, ip=peer_address, neighbor=peer)
            key = (settings.area, local, peer)
            cost = settings.cost
            entry = best.get(key)
            if entry is None or cost < entry[0]:
                best[key] = (cost, {hop})
            elif cost == entry[0]:
                entry[1].add(hop)
    for (area, local, peer), (cost, hops) in best.items():
        state.graphs[area].set_edge(local, peer, cost, frozenset(hops))
    return state


def _active_ospf_settings(snapshot, router: str, interface_name: str):
    """The interface's OSPF settings if it actively participates."""
    config = snapshot.configs.get(router)
    if config is None or config.ospf is None:
        return None
    settings = config.ospf.interfaces.get(interface_name)
    if settings is None or not settings.enabled:
        return None
    if not _interface_participates(snapshot, router, interface_name):
        return None
    return settings


@dataclass(frozen=True)
class _Candidate:
    """One intra/inter candidate for a prefix at a source router."""

    metric: float
    intra: bool
    next_hops: frozenset[NextHop]


def backbone_advertisements(state: OspfState) -> dict[str, dict[Prefix, float]]:
    """Per-ABR summaries of non-backbone areas into area 0.

    ``result[abr][prefix]`` is the ABR's best intra-area cost to the
    prefix inside its non-backbone areas.
    """
    adverts: dict[str, dict[Prefix, float]] = {}
    for area in state.areas():
        if area == BACKBONE:
            continue
        owners = state.advertised.get(area, {})
        for abr in state.abrs(area):
            spf = state.spf_for(abr, area)
            for owner, prefixes in owners.items():
                if owner == abr:
                    distance = 0.0
                else:
                    distance = spf.distance(owner)
                if distance == INFINITY:
                    continue
                for prefix, cost in prefixes.items():
                    total = distance + cost
                    per_abr = adverts.setdefault(abr, {})
                    if total < per_abr.get(prefix, INFINITY):
                        per_abr[prefix] = total
    return adverts


def backbone_totals(
    state: OspfState, adverts: dict[str, dict[Prefix, float]]
) -> dict[str, dict[Prefix, float]]:
    """Best cost from each backbone router to every prefix, via the
    backbone: intra-area-0 prefixes plus other ABRs' summaries."""
    totals: dict[str, dict[Prefix, float]] = {}
    if BACKBONE not in state.graphs:
        return totals
    area0_owners = state.advertised.get(BACKBONE, {})
    for router in state.area_routers(BACKBONE):
        spf = state.spf_for(router, BACKBONE)
        per_router: dict[Prefix, float] = {}
        for owner, prefixes in area0_owners.items():
            distance = 0.0 if owner == router else spf.distance(owner)
            if distance == INFINITY:
                continue
            for prefix, cost in prefixes.items():
                total = distance + cost
                if total < per_router.get(prefix, INFINITY):
                    per_router[prefix] = total
        for abr, summaries in adverts.items():
            distance = 0.0 if abr == router else spf.distance(abr)
            if distance == INFINITY:
                continue
            for prefix, cost in summaries.items():
                total = distance + cost
                if total < per_router.get(prefix, INFINITY):
                    per_router[prefix] = total
        totals[router] = per_router
    return totals


def ospf_routes_for_source(
    state: OspfState,
    source: str,
    adverts: dict[str, dict[Prefix, float]] | None = None,
    totals: dict[str, dict[Prefix, float]] | None = None,
    only_prefixes: set[Prefix] | None = None,
) -> dict[Prefix, Route]:
    """All OSPF routes installed at ``source``.

    ``adverts``/``totals`` (from :func:`backbone_advertisements` and
    :func:`backbone_totals`) may be passed in to share work across
    sources; they are computed on demand otherwise.  With
    ``only_prefixes`` the result is restricted to those prefixes (the
    incremental layer's targeted recompute); owners and summaries that
    carry none of them are skipped.
    """
    areas = state.membership.get(source, set())
    if not areas:
        return {}
    candidates: dict[Prefix, list[_Candidate]] = {}

    def offer(prefix: Prefix, metric: float, intra: bool, hops: frozenset[NextHop]) -> None:
        if not hops:
            return
        if only_prefixes is not None and prefix not in only_prefixes:
            return
        candidates.setdefault(prefix, []).append(_Candidate(metric, intra, hops))

    def disjoint(prefixes: Iterable[Prefix]) -> bool:
        return only_prefixes is not None and only_prefixes.isdisjoint(prefixes)

    # Intra-area routes for every area the source belongs to.
    for area in areas:
        spf = state.spf_for(source, area)
        fh = spf.first_hops()
        for owner, prefixes in state.advertised.get(area, {}).items():
            if owner == source or disjoint(prefixes):
                continue
            distance = spf.distance(owner)
            if distance == INFINITY:
                continue
            hops = fh.get(owner, frozenset())
            for prefix, cost in prefixes.items():
                offer(prefix, distance + cost, True, hops)

    multi_area = len(state.areas()) > 1
    if multi_area:
        if adverts is None:
            adverts = backbone_advertisements(state)
        if BACKBONE in areas:
            # Backbone members read other areas through ABR summaries.
            spf = state.spf_for(source, BACKBONE)
            fh = spf.first_hops()
            for abr, summaries in adverts.items():
                if abr == source or disjoint(summaries):
                    continue
                distance = spf.distance(abr)
                if distance == INFINITY:
                    continue
                hops = fh.get(abr, frozenset())
                for prefix, cost in summaries.items():
                    offer(prefix, distance + cost, False, hops)
        non_backbone = [a for a in areas if a != BACKBONE]
        if non_backbone and BACKBONE not in areas:
            # Internal routers reach everything else via their ABRs.
            if totals is None:
                totals = backbone_totals(state, adverts)
            for area in non_backbone:
                spf = state.spf_for(source, area)
                fh = spf.first_hops()
                for abr in state.abrs(area):
                    if abr == source:
                        continue
                    distance = spf.distance(abr)
                    if distance == INFINITY:
                        continue
                    hops = fh.get(abr, frozenset())
                    for prefix, cost in totals.get(abr, {}).items():
                        offer(prefix, distance + cost, False, hops)

    routes: dict[Prefix, Route] = {}
    for prefix, offers in candidates.items():
        intra_offers = [c for c in offers if c.intra]
        pool = intra_offers or offers
        best_metric = min(c.metric for c in pool)
        hops: set[NextHop] = set()
        for candidate in pool:
            if candidate.metric == best_metric:
                hops.update(candidate.next_hops)
        routes[prefix] = Route(
            prefix=prefix,
            protocol="ospf",
            admin_distance=ADMIN_DISTANCE_OSPF,
            metric=int(best_metric),
            next_hops=frozenset(hops),
        )
    return routes
