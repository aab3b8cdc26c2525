"""Differential path queries.

``Network.paths`` extracts the forwarding DAG between a source router
and the owners of a destination address from converged state;
``Network.path_diff`` compares the DAG before/after a change — the
"how did my traffic move?" question the BGP what-if example asks.

The supported entry points live on the :class:`repro.api.Network`
facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.controlplane.simulation import NetworkState
from repro.core import serialize


@dataclass(frozen=True)
class ForwardingPaths:
    """The forwarding DAG for one (source, destination) pair."""

    source: str
    edges: frozenset[tuple[str, str]]
    delivered: bool

    def routers(self) -> set[str]:
        """Every router the DAG touches (including the source)."""
        return {self.source} | {r for edge in self.edges for r in edge}

    def __str__(self) -> str:
        edges = ", ".join(f"{u}->{v}" for u, v in sorted(self.edges))
        fate = "delivered" if self.delivered else "not delivered"
        return f"paths from {self.source}: {edges or 'none'} ({fate})"

    def __repr__(self) -> str:
        return (
            f"ForwardingPaths(from {self.source!r}, {len(self.edges)} edges, "
            f"delivered={self.delivered})"
        )


@dataclass(frozen=True)
class PathDiff:
    """Edge-level difference between two forwarding DAGs."""

    added_edges: frozenset[tuple[str, str]]
    removed_edges: frozenset[tuple[str, str]]
    reachable_before: bool
    reachable_after: bool

    def is_empty(self) -> bool:
        return not self.added_edges and not self.removed_edges

    def __str__(self) -> str:
        parts = []
        if self.added_edges:
            parts.append(
                "now via " + ", ".join(f"{u}->{v}" for u, v in sorted(self.added_edges))
            )
        if self.removed_edges:
            parts.append(
                "no longer via "
                + ", ".join(f"{u}->{v}" for u, v in sorted(self.removed_edges))
            )
        if self.reachable_before != self.reachable_after:
            parts.append(
                "became reachable" if self.reachable_after else "became unreachable"
            )
        return "; ".join(parts) if parts else "unchanged"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document (see :mod:`repro.core.serialize`)."""
        return serialize.document(
            "path-diff",
            {
                "added_edges": sorted(list(edge) for edge in self.added_edges),
                "removed_edges": sorted(
                    list(edge) for edge in self.removed_edges
                ),
                "reachable_before": self.reachable_before,
                "reachable_after": self.reachable_after,
            },
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PathDiff":
        """Rebuild a diff; raises SchemaError on unknown versions."""
        serialize.check_document(data, "path-diff")
        return cls(
            added_edges=frozenset((u, v) for u, v in data["added_edges"]),
            removed_edges=frozenset((u, v) for u, v in data["removed_edges"]),
            reachable_before=data["reachable_before"],
            reachable_after=data["reachable_after"],
        )


def _forwarding_paths(
    state: NetworkState, source: str, dst_address: int, max_hops: int = 64
) -> tuple[frozenset[tuple[str, str]], bool]:
    """(forwarding DAG edges, delivered?) from ``source`` for one
    destination address.

    The DAG is the union of ECMP branches actually taken; traversal
    stops at delivery, drops, or missing routes.
    """
    edges: set[tuple[str, str]] = set()
    delivered = False
    frontier = [source]
    visited: set[str] = set()
    hops = 0
    while frontier and hops < max_hops * 4:
        router = frontier.pop()
        if router in visited:
            continue
        visited.add(router)
        hops += 1
        fib = state.fibs.get(router)
        entry = fib.lookup(dst_address) if fib is not None else None
        if entry is None:
            continue
        for hop in entry.next_hops:
            if hop.drop:
                continue
            if hop.neighbor is None:
                delivered = True
                continue
            edges.add((router, hop.neighbor))
            frontier.append(hop.neighbor)
    return frozenset(edges), delivered


def _path_diff(
    before: NetworkState,
    after: NetworkState,
    source: str,
    dst_address: int,
) -> PathDiff:
    """How the forwarding DAG for (source, destination) changed."""
    edges_before, reach_before = _forwarding_paths(before, source, dst_address)
    edges_after, reach_after = _forwarding_paths(after, source, dst_address)
    return PathDiff(
        added_edges=edges_after - edges_before,
        removed_edges=edges_before - edges_after,
        reachable_before=reach_before,
        reachable_after=reach_after,
    )
