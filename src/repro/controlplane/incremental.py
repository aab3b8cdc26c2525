"""Incremental OSPF maintenance.

:class:`OspfIncremental` wraps the OSPF portion of a
:class:`~repro.controlplane.simulation.NetworkState` and keeps it
consistent under topology/config edits, surgically:

- logical edges between a pair of routers are recomputed from the
  snapshot and pushed into every per-source :class:`DynamicSpf` of the
  area (sources whose trees never used the edge pay O(1));
- a router's advertised prefixes are re-derived and diffed, yielding
  the set of prefixes whose routes must be refreshed *for every source
  in the area* — but only for those prefixes.

The result of each operation is an :class:`OspfDirty` summary the
analyzer folds into route recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controlplane.ospf import (
    OspfState,
    _active_ospf_settings,
    _interface_participates,
)
from repro.controlplane.rib import NextHop
from repro.controlplane.simulation import NetworkState
from repro.controlplane.spf import SpfGraph
from repro.net.addr import Prefix


SpfKey = tuple[str, int]


@dataclass
class OspfDirty:
    """What an OSPF-touching edit invalidated.

    - ``sources``: (router, area) pairs whose SPF changed.
    - ``moved``: for a source in ``sources``, the nodes whose distance
      or SPF parents changed in its tree — only routes toward those
      nodes and their DAG descendants can move.  A source in
      ``sources`` without a ``moved`` entry refreshes its whole route
      set (its own link attachments changed).
    - ``prefixes``: area -> prefixes whose advertisements changed —
      every source in the area refreshes *those* prefixes only.
    """

    sources: set[SpfKey] = field(default_factory=set)
    moved: dict[SpfKey, set[str]] = field(default_factory=dict)
    prefixes: dict[int, set[Prefix]] = field(default_factory=dict)

    def add_moved(self, key: SpfKey, nodes: set[str]) -> None:
        """Dirty ``key`` for routes toward ``nodes`` (and descendants)."""
        if key in self.sources and key not in self.moved:
            return  # already refreshed in full
        self.sources.add(key)
        self.moved.setdefault(key, set()).update(nodes)

    def add_full(self, key: SpfKey) -> None:
        """Dirty ``key``'s whole route set."""
        self.sources.add(key)
        self.moved.pop(key, None)

    def merge(self, other: "OspfDirty") -> None:
        for key in other.sources:
            nodes = other.moved.get(key)
            if nodes is None:
                self.add_full(key)
            else:
                self.add_moved(key, nodes)
        for area, prefixes in other.prefixes.items():
            self.prefixes.setdefault(area, set()).update(prefixes)

    def is_empty(self) -> bool:
        return not self.sources and not any(self.prefixes.values())


class OspfIncremental:
    """Surgical OSPF updates over a converged network state."""

    def __init__(self, state: NetworkState) -> None:
        self.state = state

    @property
    def ospf(self) -> OspfState:
        return self.state.ospf_state

    # -- edge maintenance ---------------------------------------------------

    def _desired_edges(
        self, u: str, w: str
    ) -> dict[tuple[int, str, str], tuple[int, frozenset[NextHop]]]:
        """What the snapshot says the logical edges between u and w
        should be, per (area, from, to)."""
        snapshot = self.state.snapshot
        topology = snapshot.topology
        desired: dict[tuple[int, str, str], tuple[int, set[NextHop]]] = {}
        for link in topology.links():
            if set(link.routers) != {u, w}:
                continue
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
                entry = desired.get(key)
                if entry is None or settings.cost < entry[0]:
                    desired[key] = (settings.cost, {hop})
                elif settings.cost == entry[0]:
                    entry[1].add(hop)
        return {
            key: (cost, frozenset(hops)) for key, (cost, hops) in desired.items()
        }

    def refresh_pair(self, u: str, w: str) -> OspfDirty:
        """Reconcile all logical edges between two routers.

        Called after any edit that may have changed links, interface
        states, costs, or OSPF participation between ``u`` and ``w``.
        """
        dirty = OspfDirty()
        desired = self._desired_edges(u, w)
        areas = set(self.ospf.graphs)
        areas.update(area for area, _, _ in desired)
        for area in areas:
            graph = self.ospf.graphs.get(area)
            if graph is None:
                graph = SpfGraph()
                self.ospf.graphs[area] = graph
            for x, y in ((u, w), (w, u)):
                want = desired.get((area, x, y))
                have_cost = graph.adjacency.get(x, {}).get(y)
                have_hops = graph.attachments.get((x, y))
                if want is None:
                    if have_cost is None:
                        continue
                    graph.remove_edge(x, y)
                    self._propagate_increase(area, x, y, dirty)
                else:
                    cost, hops = want
                    if have_cost == cost and have_hops == hops:
                        continue
                    graph.set_edge(x, y, cost, hops)
                    if have_cost is None or cost < have_cost:
                        self._propagate_decrease(area, x, y, dirty)
                    elif cost > have_cost:
                        self._propagate_increase(area, x, y, dirty)
                    else:
                        # Same cost, different physical attachments:
                        # distances hold, first hops from x change.
                        self._attachments_changed(area, x, dirty)
            self._prune(area, u)
            self._prune(area, w)
        return dirty

    def _prune(self, area: int, router: str) -> None:
        """Drop ``router``'s node from ``area`` once it is neither a
        member there nor an edge end, and the area once it is empty.

        Leaving takes both a membership and an edge update, which
        handlers run in either order; whichever runs second prunes.
        """
        if area in self.ospf.membership.get(router, ()):
            return
        graph = self.ospf.graphs.get(area)
        if graph is None or router not in graph.adjacency:
            return
        if graph.successors(router) or graph.predecessors(router):
            return
        graph.remove_node(router)
        if not graph.adjacency:
            del self.ospf.graphs[area]

    def _sources_in(self, area: int):
        for (router, spf_area), spf in self.ospf.spf.items():
            if spf_area == area:
                yield router, spf

    def _propagate_increase(self, area: int, x: str, y: str, dirty: OspfDirty) -> None:
        for router, spf in self._sources_in(area):
            moved = spf.edge_increased(x, y)
            if moved:
                dirty.add_moved((router, area), moved)

    def _propagate_decrease(self, area: int, x: str, y: str, dirty: OspfDirty) -> None:
        for router, spf in self._sources_in(area):
            moved = spf.edge_decreased(x, y)
            if moved:
                dirty.add_moved((router, area), moved)

    def _attachments_changed(self, area: int, x: str, dirty: OspfDirty) -> None:
        spf = self.ospf.spf.get((x, area))
        if spf is not None:
            spf.invalidate_first_hops()
        dirty.add_full((x, area))

    # -- advertisement maintenance ----------------------------------------------

    def refresh_router_adverts(self, router: str) -> OspfDirty:
        """Re-derive one router's advertised prefixes and memberships."""
        snapshot = self.state.snapshot
        dirty = OspfDirty()
        config = snapshot.configs.get(router)
        desired: dict[int, dict[Prefix, int]] = {}
        desired_membership: set[int] = set()
        if config is not None and config.ospf is not None:
            device = snapshot.topology.router(router)
            for interface_name, settings in config.ospf.interfaces.items():
                if not settings.enabled or interface_name not in device.interfaces:
                    continue
                if not _interface_participates(snapshot, router, interface_name):
                    continue
                desired_membership.add(settings.area)
                subnet = device.interfaces[interface_name].subnet
                if subnet is None:
                    continue
                per_area = desired.setdefault(settings.area, {})
                existing = per_area.get(subnet)
                if existing is None or settings.cost < existing:
                    per_area[subnet] = settings.cost

        areas = set(desired) | {
            area
            for area, owners in self.ospf.advertised.items()
            if router in owners
        }
        for area in areas:
            current = self.ospf.advertised.get(area, {}).get(router, {})
            wanted = desired.get(area, {})
            changed = {
                prefix
                for prefix in set(current) | set(wanted)
                if current.get(prefix) != wanted.get(prefix)
            }
            if changed:
                dirty.prefixes.setdefault(area, set()).update(changed)
            if wanted:
                self.ospf.advertised.setdefault(area, {})[router] = wanted
            else:
                owners = self.ospf.advertised.get(area, {})
                owners.pop(router, None)
                if not owners:
                    self.ospf.advertised.pop(area, None)

        # A router joining (or leaving) an area may have no SPF tree for
        # the edge updates to dirty: its whole route set is refreshed.
        current = self.ospf.membership.get(router, set())
        for area in desired_membership ^ current:
            dirty.add_full((router, area))
        if desired_membership:
            self.ospf.membership[router] = desired_membership
        else:
            self.ospf.membership.pop(router, None)
        for area in desired_membership:
            if area not in self.ospf.graphs:
                self.ospf.graphs[area] = SpfGraph()
            self.ospf.graphs[area].add_node(router)
        for area in desired_membership - current:
            self.ospf.spf_for(router, area)
        for area in current - desired_membership:
            self.ospf.spf.pop((router, area), None)
            self._prune(area, router)
        return dirty
