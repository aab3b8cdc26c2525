"""Routing protocol configuration blocks.

Three protocol blocks per device: static routes, one OSPF process,
one BGP process.  Administrative distances follow the usual defaults
(connected 0, static 1, eBGP 20, OSPF 110, iBGP 200), overridable per
static route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import IPv4Address, Prefix

ADMIN_DISTANCE_CONNECTED = 0
ADMIN_DISTANCE_STATIC = 1
ADMIN_DISTANCE_EBGP = 20
ADMIN_DISTANCE_OSPF = 110
ADMIN_DISTANCE_IBGP = 200


@dataclass(frozen=True)
class StaticRouteConfig:
    """A static route: destination prefix plus a forwarding target.

    Exactly one of ``next_hop`` (an IP resolved against connected
    subnets) or ``interface`` (send directly out of an interface) must
    be given.  ``drop=True`` makes it a null route (discard).
    """

    prefix: Prefix
    next_hop: IPv4Address | None = None
    interface: str | None = None
    drop: bool = False
    admin_distance: int = ADMIN_DISTANCE_STATIC

    def __post_init__(self) -> None:
        targets = sum(
            1 for target in (self.next_hop, self.interface) if target is not None
        )
        if self.drop:
            if targets:
                raise ValueError("null route cannot also carry a target")
        elif targets != 1:
            raise ValueError(
                "static route needs exactly one of next_hop/interface"
            )
        if self.admin_distance < 1 or self.admin_distance > 255:
            raise ValueError("static admin distance must be in 1..255")


@dataclass
class OspfInterfaceSettings:
    """Per-interface OSPF knobs."""

    area: int = 0
    cost: int = 10
    enabled: bool = True
    passive: bool = False  # advertise the subnet but form no adjacency

    def clone(self) -> "OspfInterfaceSettings":
        return OspfInterfaceSettings(self.area, self.cost, self.enabled, self.passive)


@dataclass
class OspfConfig:
    """One OSPF process.

    ``interfaces`` maps interface name -> settings; interfaces absent
    from the map do not participate.  Multi-area support: adjacencies
    form only between interfaces in the same area; inter-area routes
    propagate through area-0 border routers (summarised per subnet, no
    ranges).
    """

    interfaces: dict[str, OspfInterfaceSettings] = field(default_factory=dict)

    def clone(self) -> "OspfConfig":
        return OspfConfig(
            {name: settings.clone() for name, settings in self.interfaces.items()}
        )


@dataclass
class BgpNeighborConfig:
    """One BGP session, keyed by the peer's interface address.

    ``import_policy``/``export_policy`` name route maps on this device;
    None means accept/advertise everything (with standard loop and
    iBGP re-advertisement rules still applied).
    """

    peer_ip: IPv4Address
    remote_asn: int
    import_policy: str | None = None
    export_policy: str | None = None
    next_hop_self: bool = False

    def clone(self) -> "BgpNeighborConfig":
        return BgpNeighborConfig(
            self.peer_ip,
            self.remote_asn,
            self.import_policy,
            self.export_policy,
            self.next_hop_self,
        )


@dataclass
class BgpConfig:
    """One BGP process: local ASN, sessions, and originations."""

    asn: int
    router_id: IPv4Address
    neighbors: dict[IPv4Address, BgpNeighborConfig] = field(default_factory=dict)
    originated: list[Prefix] = field(default_factory=list)
    redistribute_connected: bool = False

    def add_neighbor(self, neighbor: BgpNeighborConfig) -> None:
        """Register a session; rejects duplicates."""
        if neighbor.peer_ip in self.neighbors:
            raise ValueError(f"duplicate BGP neighbor {neighbor.peer_ip}")
        self.neighbors[neighbor.peer_ip] = neighbor

    def remove_neighbor(self, peer_ip: IPv4Address) -> None:
        """Tear down a session."""
        if peer_ip not in self.neighbors:
            raise ValueError(f"no BGP neighbor {peer_ip}")
        del self.neighbors[peer_ip]

    def clone(self) -> "BgpConfig":
        return BgpConfig(
            self.asn,
            self.router_id,
            {ip: n.clone() for ip, n in self.neighbors.items()},
            list(self.originated),
            self.redistribute_connected,
        )
