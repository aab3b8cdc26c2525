"""Routes, next hops, and per-router RIBs.

A :class:`Route` is one protocol's candidate path to a prefix on one
router; the :class:`Rib` keeps the best route per (prefix, protocol)
and answers "overall best per prefix" by administrative distance.
Equal-cost multipath is modelled by a route carrying a *set* of next
hops rather than by duplicate routes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.config.routemap import AttributeBundle
from repro.net.addr import IPv4Address, Prefix

PROTOCOL_PREFERENCE = ("connected", "static", "bgp", "ospf")


@dataclass(frozen=True, order=True)
class NextHop:
    """One forwarding target of a route.

    - ``interface``: the egress interface name (empty for drops).
    - ``ip``: the next-hop address (None for directly attached).
    - ``neighbor``: the router on the far end (None when the packet is
      delivered locally onto the connected subnet, or dropped).
    - ``drop``: True for null routes.
    """

    interface: str = ""
    ip: IPv4Address | None = None
    neighbor: str | None = None
    drop: bool = False

    def __str__(self) -> str:
        if self.drop:
            return "drop"
        target = self.neighbor if self.neighbor is not None else "attached"
        via_ip = f" {self.ip}" if self.ip is not None else ""
        return f"{self.interface}->{target}{via_ip}"


DROP_NEXT_HOP = NextHop(drop=True)


@dataclass(frozen=True)
class Route:
    """A candidate route installed by one protocol on one router."""

    prefix: Prefix
    protocol: str
    admin_distance: int
    metric: int
    next_hops: frozenset[NextHop]
    # BGP-only bookkeeping; None for IGP/static/connected routes.
    bgp: AttributeBundle | None = None
    bgp_next_hop: IPv4Address | None = None  # unresolved protocol next hop
    learned_from: str | None = None  # advertising peer router, BGP only

    def sort_key(self) -> tuple:
        """Total order used for deterministic diffs and printing."""
        return (
            self.prefix,
            self.admin_distance,
            PROTOCOL_PREFERENCE.index(self.protocol)
            if self.protocol in PROTOCOL_PREFERENCE
            else len(PROTOCOL_PREFERENCE),
            self.metric,
        )

    def with_next_hops(self, next_hops: frozenset[NextHop]) -> "Route":
        """A copy forwarding via a different next-hop set."""
        return replace(self, next_hops=next_hops)

    def __str__(self) -> str:
        hops = ", ".join(str(nh) for nh in sorted(self.next_hops))
        return (
            f"{self.prefix} [{self.protocol} ad={self.admin_distance} "
            f"metric={self.metric}] via {{{hops}}}"
        )


class Rib:
    """Per-router routing table: best route per (prefix, protocol)."""

    def __init__(self, router: str) -> None:
        self.router = router
        self._routes: dict[Prefix, dict[str, Route]] = {}

    def install(self, route: Route) -> None:
        """Insert or replace the protocol's route for its prefix."""
        self._routes.setdefault(route.prefix, {})[route.protocol] = route

    def withdraw(self, prefix: Prefix, protocol: str) -> bool:
        """Remove a protocol's route; True if something was removed."""
        per_prefix = self._routes.get(prefix)
        if per_prefix is None or protocol not in per_prefix:
            return False
        del per_prefix[protocol]
        if not per_prefix:
            del self._routes[prefix]
        return True

    def route(self, prefix: Prefix, protocol: str) -> Route | None:
        """The installed route for (prefix, protocol), if any."""
        return self._routes.get(prefix, {}).get(protocol)

    def best(self, prefix: Prefix) -> Route | None:
        """The winning route for a prefix (admin distance, then
        protocol preference for determinism)."""
        candidates = self._routes.get(prefix)
        if not candidates:
            return None
        return min(candidates.values(), key=lambda r: r.sort_key())

    def best_excluding(self, prefix: Prefix, excluded: frozenset[str]) -> Route | None:
        """Best route ignoring some protocols (e.g. the IGP view
        excludes BGP)."""
        candidates = [
            route
            for protocol, route in self._routes.get(prefix, {}).items()
            if protocol not in excluded
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.sort_key())

    def snapshot_prefix(self, prefix: Prefix) -> dict[str, Route] | None:
        """The per-protocol route map for ``prefix`` (None if absent).

        Returns a copy safe to stash in an undo journal; restore with
        :meth:`restore_prefix`.
        """
        per_prefix = self._routes.get(prefix)
        return dict(per_prefix) if per_prefix is not None else None

    def restore_prefix(
        self, prefix: Prefix, saved: dict[str, Route] | None
    ) -> None:
        """Reinstate a state captured by :meth:`snapshot_prefix`."""
        if saved is None:
            self._routes.pop(prefix, None)
        else:
            self._routes[prefix] = dict(saved)

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes with at least one route."""
        return iter(self._routes)

    def best_routes(self) -> dict[Prefix, Route]:
        """Winning route per prefix."""
        return {prefix: self.best(prefix) for prefix in self._routes}  # type: ignore[misc]

    def __len__(self) -> int:
        return sum(len(per_prefix) for per_prefix in self._routes.values())

    def __str__(self) -> str:
        lines = [f"RIB {self.router}:"]
        for prefix in sorted(self._routes):
            best = self.best(prefix)
            lines.append(f"  {best}")
        return "\n".join(lines)
