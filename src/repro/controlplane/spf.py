"""Shortest-path-first computation with equal-cost multipath.

The OSPF layer reduces each area to a weighted digraph
(:class:`SpfGraph`): one logical edge per ordered router pair, with
cost = the cheapest parallel link, and the set of physical next hops
achieving that cost attached to the edge.  :func:`dijkstra` returns
distances and the shortest-path DAG (ECMP parents);
:func:`first_hops` folds the DAG into per-destination next-hop sets.

The dynamic (incremental) counterpart lives in
:mod:`~repro.controlplane.ispf`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.controlplane.rib import NextHop

INFINITY = float("inf")


@dataclass
class SpfGraph:
    """A weighted digraph with physical next-hop attachments.

    ``adjacency[u][v]`` is the logical edge cost; ``attachments[(u,
    v)]`` lists the :class:`NextHop` values (interface, next-hop IP,
    neighbor) that realize the logical edge at that cost.
    """

    adjacency: dict[str, dict[str, int]] = field(default_factory=dict)
    attachments: dict[tuple[str, str], frozenset[NextHop]] = field(
        default_factory=dict
    )
    _reverse: dict[str, set[str]] = field(default_factory=dict)

    def add_node(self, node: str) -> None:
        """Ensure the node exists (possibly isolated)."""
        self.adjacency.setdefault(node, {})
        self._reverse.setdefault(node, set())

    def set_edge(
        self, u: str, v: str, cost: int, next_hops: frozenset[NextHop]
    ) -> None:
        """Insert or replace the logical edge u -> v."""
        self.add_node(u)
        self.add_node(v)
        self.adjacency[u][v] = cost
        self.attachments[(u, v)] = next_hops
        self._reverse[v].add(u)

    def remove_edge(self, u: str, v: str) -> None:
        """Delete the logical edge u -> v if present."""
        if u in self.adjacency and v in self.adjacency[u]:
            del self.adjacency[u][v]
            self.attachments.pop((u, v), None)
            self._reverse[v].discard(u)

    def remove_node(self, node: str) -> None:
        """Delete a node that has no edges left."""
        assert not self.adjacency.get(node) and not self._reverse.get(node)
        self.adjacency.pop(node, None)
        self._reverse.pop(node, None)

    def cost(self, u: str, v: str) -> float:
        """Edge cost or infinity."""
        return self.adjacency.get(u, {}).get(v, INFINITY)

    def successors(self, u: str) -> dict[str, int]:
        """Outgoing edges of u."""
        return self.adjacency.get(u, {})

    def predecessors(self, v: str) -> set[str]:
        """Nodes with an edge into v."""
        return self._reverse.get(v, set())

    def nodes(self) -> list[str]:
        """All nodes."""
        return list(self.adjacency)

    def num_edges(self) -> int:
        """Logical edge count."""
        return sum(len(out) for out in self.adjacency.values())


def dijkstra(
    graph: SpfGraph, source: str
) -> tuple[dict[str, float], dict[str, set[str]]]:
    """Single-source shortest paths with ECMP parent sets.

    Returns ``(dist, parents)``; unreachable nodes are absent from
    ``dist``.  ``parents[v]`` is the set of predecessors on *some*
    shortest path to v (empty for the source).
    """
    dist: dict[str, float] = {source: 0}
    parents: dict[str, set[str]] = {source: set()}
    heap: list[tuple[float, str]] = [(0, source)]
    settled: set[str] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, cost in graph.successors(u).items():
            candidate = d + cost
            known = dist.get(v, INFINITY)
            if candidate < known:
                dist[v] = candidate
                parents[v] = {u}
                heapq.heappush(heap, (candidate, v))
            elif candidate == known and v not in settled:
                parents[v].add(u)
    return dist, parents


def first_hops(
    graph: SpfGraph,
    source: str,
    dist: dict[str, float],
    parents: dict[str, set[str]],
) -> dict[str, frozenset[NextHop]]:
    """Per-destination ECMP next hops, folded over the SPF DAG.

    ``fh[v]`` is the union of ``fh[p]`` over parents p, except that a
    parent equal to the source contributes the physical attachments of
    the edge (source, v) directly.
    """
    order = sorted((d, node) for node, d in dist.items())
    fh: dict[str, frozenset[NextHop]] = {source: frozenset()}
    for _, node in order:
        if node == source:
            continue
        hops: set[NextHop] = set()
        for parent in parents.get(node, ()):
            if parent == source:
                hops.update(graph.attachments.get((source, node), frozenset()))
            else:
                hops.update(fh.get(parent, frozenset()))
        fh[node] = frozenset(hops)
    return fh
