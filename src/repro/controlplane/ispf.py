"""Dynamic single-source shortest paths (incremental SPF).

One :class:`DynamicSpf` instance maintains the SPF tree of one source
router over one area graph, updating distances and the ECMP parent DAG
in place when an edge's cost changes, appears, or disappears — the
Ramalingam–Reps family of algorithms.  Only the *affected region*
(DAG descendants whose every shortest path used the changed edge) is
re-settled with a bounded Dijkstra; everything else is untouched.

The OSPF incremental layer keeps one instance per (source, area) and
asks :meth:`DynamicSpf.affected_by` first, so sources whose trees
never used a failed edge pay O(1) per change.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.controlplane.rib import NextHop
from repro.controlplane.spf import INFINITY, SpfGraph, dijkstra, first_hops


class DynamicSpf:
    """Incrementally maintained SPF state for one source."""

    def __init__(self, graph: SpfGraph, source: str) -> None:
        self.graph = graph
        self.source = source
        self.dist, self.parents = dijkstra(graph, source)
        self._fh: dict[str, frozenset[NextHop]] | None = None
        self._children: dict[str, set[str]] | None = None

    # -- queries -----------------------------------------------------------

    def distance(self, node: str) -> float:
        """Shortest distance to ``node`` (infinity if unreachable)."""
        return self.dist.get(node, INFINITY)

    def first_hops(self) -> dict[str, frozenset[NextHop]]:
        """Per-destination ECMP next hops (cached until next update)."""
        if self._fh is None:
            self._fh = first_hops(self.graph, self.source, self.dist, self.parents)
        return self._fh

    def descendants(self, nodes: Iterable[str]) -> set[str]:
        """``nodes`` plus every node below them in the current SPF DAG.

        A node's first hops are the union of its parents' (or the
        source's link attachments), so when only ``nodes`` changed
        distance or parents, first hops can have moved only inside
        this closure.
        """
        children = self._children_map()
        seen = set(nodes)
        stack = list(seen)
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def affected_by(self, u: str, v: str) -> bool:
        """True if edge (u, v) lies on some current shortest path."""
        du = self.dist.get(u)
        dv = self.dist.get(v)
        if du is None or dv is None:
            return False
        return du + self.graph.cost(u, v) == dv and u in self.parents.get(v, ())

    # -- updates -----------------------------------------------------------

    def edge_increased(self, u: str, v: str) -> set[str]:
        """React to edge (u, v) having grown more expensive or vanished.

        The graph must already reflect the new cost (or the edge's
        removal).  Returns the set of nodes whose distance or parent
        set changed.
        """
        if v == self.source:
            return set()
        du = self.dist.get(u)
        if du is None or u not in self.parents.get(v, ()):
            return set()  # edge was not on the SPF DAG of this source
        new_cost = self.graph.cost(u, v)
        if du + new_cost == self.dist.get(v, INFINITY):
            return set()  # cost change kept the equality (no-op)
        self._invalidate_caches()
        self.parents[v].discard(u)
        self._children_map()  # ensure children exist before surgery
        self._children_of(u).discard(v)
        if self.parents[v]:
            return {v}  # alternate equal-cost parents remain
        orphans, trimmed = self._collect_orphans(v)
        changed = self._resettle(orphans)
        return changed | trimmed | {v}

    def edge_decreased(self, u: str, v: str) -> set[str]:
        """React to edge (u, v) having appeared or grown cheaper.

        The graph must already reflect the new cost.  Returns the set
        of nodes whose distance or parent set changed.
        """
        if v == self.source:
            return set()
        du = self.dist.get(u)
        if du is None:
            return set()
        new_cost = self.graph.cost(u, v)
        candidate = du + new_cost
        current = self.dist.get(v, INFINITY)
        if candidate > current:
            return set()
        if candidate == current:
            if u in self.parents.get(v, ()):
                return set()
            self._invalidate_caches()
            self.parents.setdefault(v, set()).add(u)
            self._children_map()
            self._children_of(u).add(v)
            return {v}
        # Strict improvement: propagate decreases from v outward.
        self._invalidate_caches()
        changed: set[str] = set()
        heap: list[tuple[float, str]] = [(candidate, v)]
        improved: dict[str, float] = {v: candidate}
        while heap:
            d, node = heapq.heappop(heap)
            if d > improved.get(node, INFINITY):
                continue
            if d > self.dist.get(node, INFINITY):
                continue
            self._set_distance(node, d)
            changed.add(node)
            for succ, cost in self.graph.successors(node).items():
                if succ == self.source:
                    continue
                next_d = d + cost
                best = min(
                    improved.get(succ, INFINITY), self.dist.get(succ, INFINITY)
                )
                if next_d < best:
                    improved[succ] = next_d
                    heapq.heappush(heap, (next_d, succ))
                elif next_d == self.dist.get(succ, INFINITY):
                    if node not in self.parents.get(succ, ()):
                        self.parents.setdefault(succ, set()).add(node)
                        self._children_of(node).add(succ)
                        changed.add(succ)
        return changed

    def invalidate_first_hops(self) -> None:
        """Drop the cached first-hop map (edge attachments changed)."""
        self._fh = None

    def rebuild(self) -> None:
        """Fall back to a from-scratch Dijkstra (used by tests)."""
        self.dist, self.parents = dijkstra(self.graph, self.source)
        self._invalidate_caches()
        self._children = None

    # -- internals -----------------------------------------------------------

    def _invalidate_caches(self) -> None:
        self._fh = None

    def _children_map(self) -> dict[str, set[str]]:
        if self._children is None:
            children: dict[str, set[str]] = {}
            for node, parent_set in self.parents.items():
                for parent in parent_set:
                    children.setdefault(parent, set()).add(node)
            self._children = children
        return self._children

    def _children_of(self, node: str) -> set[str]:
        return self._children_map().setdefault(node, set())

    def _collect_orphans(self, start: str) -> tuple[set[str], set[str]]:
        """Nodes whose *every* shortest path ran through ``start``.

        Walks the children DAG, removing orphaned parent links; a child
        left with no parents joins the orphan set.  Returns
        ``(orphans, trimmed)`` where ``trimmed`` are nodes that lost a
        parent but kept others (their distance stands, their ECMP
        next-hop set may not).
        """
        orphans = {start}
        trimmed: set[str] = set()
        queue = [start]
        while queue:
            node = queue.pop()
            for child in list(self._children_of(node)):
                self._children_of(node).discard(child)
                self.parents[child].discard(node)
                if not self.parents[child]:
                    if child not in orphans:
                        orphans.add(child)
                        queue.append(child)
                else:
                    trimmed.add(child)
        return orphans, trimmed - orphans

    def _resettle(self, region: Iterable[str]) -> set[str]:
        """Re-run Dijkstra restricted to the orphaned region.

        Seeds come from edges entering the region from settled nodes
        outside it; nodes that no seed or relaxation reaches become
        unreachable.
        """
        region = set(region)
        old_dist = {node: self.dist.get(node, INFINITY) for node in region}
        for node in region:
            self.dist.pop(node, None)
            self.parents[node] = set()
        heap: list[tuple[float, str]] = []
        best: dict[str, float] = {}
        for node in region:
            seed = INFINITY
            for pred in self.graph.predecessors(node):
                if pred in region:
                    continue
                pred_dist = self.dist.get(pred)
                if pred_dist is None:
                    continue
                seed = min(seed, pred_dist + self.graph.cost(pred, node))
            if seed < INFINITY:
                best[node] = seed
                heapq.heappush(heap, (seed, node))
        settled: set[str] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled or d > best.get(node, INFINITY):
                continue
            settled.add(node)
            self._set_distance(node, d)
            for succ, cost in self.graph.successors(node).items():
                if succ not in region or succ in settled:
                    continue
                candidate = d + cost
                if candidate < best.get(succ, INFINITY):
                    best[succ] = candidate
                    heapq.heappush(heap, (candidate, succ))
        changed = set()
        for node in region:
            if self.dist.get(node, INFINITY) != old_dist[node]:
                changed.add(node)
            elif node in self.dist:
                changed.add(node)  # distance kept but parents rebuilt
        # Re-settled nodes may now tie into shortest paths of nodes
        # outside the region (their old parent links were severed
        # during orphan collection); restore the equal-cost links.
        for node in region:
            node_dist = self.dist.get(node)
            if node_dist is None:
                continue
            for succ, cost in self.graph.successors(node).items():
                if succ in region:
                    continue
                if node_dist + cost == self.dist.get(succ, INFINITY):
                    if node not in self.parents.get(succ, ()):
                        self.parents.setdefault(succ, set()).add(node)
                        self._children_of(node).add(succ)
                        changed.add(succ)
        return changed

    def _set_distance(self, node: str, distance: float) -> None:
        """Install a settled distance and rebuild the node's parents."""
        self.dist[node] = distance
        old_parents = self.parents.get(node, set())
        new_parents = set()
        for pred in self.graph.predecessors(node):
            pred_dist = self.dist.get(pred)
            if pred_dist is not None and pred_dist + self.graph.cost(pred, node) == distance:
                new_parents.add(pred)
        if self._children is not None:
            for parent in old_parents - new_parents:
                self._children.setdefault(parent, set()).discard(node)
            for parent in new_parents - old_parents:
                self._children.setdefault(parent, set()).add(node)
        self.parents[node] = new_parents
