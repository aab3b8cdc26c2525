"""Primitive configuration edits and change batches.

Every edit knows how to apply itself to a snapshot (mutating it) and
carries enough structure for the incremental analyzer to compute dirty
sets without re-reading the whole configuration.  A
:class:`Change` bundles one or more edits that are analyzed and
committed atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.config.acl import Acl, AclRule
from repro.config.routemap import RouteMap, RouteMapClause
from repro.config.routing import (
    BgpNeighborConfig,
    OspfConfig,
    OspfInterfaceSettings,
    StaticRouteConfig,
)
from repro.core.errors import InvalidChangeError
from repro.core.snapshot import Snapshot
from repro.net.addr import IPv4Address, Prefix
from repro.topology.model import Link


class ChangeError(InvalidChangeError):
    """Raised when an edit cannot be applied to the snapshot."""


class Edit:
    """Base class: one primitive configuration edit."""

    def apply(self, snapshot: Snapshot) -> None:
        """Mutate the snapshot; raises ChangeError on conflicts."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner."""
        return repr(self)


# -- physical layer ---------------------------------------------------------


@dataclass(frozen=True)
class LinkDown(Edit):
    """Administratively disable the link between two routers.

    Identified by the two router names (first matching enabled link);
    pass interface names for precision on parallel links.
    """

    router1: str
    router2: str
    interface1: str | None = None
    interface2: str | None = None

    def _find(self, snapshot: Snapshot) -> Link:
        if self.interface1 is not None and self.interface2 is not None:
            link = Link.of(
                (self.router1, self.interface1), (self.router2, self.interface2)
            )
            snapshot.topology.link_enabled(link)  # validates existence
            return link
        found = snapshot.topology.find_link(self.router1, self.router2)
        if found is None:
            for link in snapshot.topology.links(include_disabled=True):
                if set(link.routers) == {self.router1, self.router2}:
                    return link
            raise ChangeError(f"no link between {self.router1} and {self.router2}")
        return found

    def apply(self, snapshot: Snapshot) -> None:
        snapshot.topology.set_link_enabled(self._find(snapshot), False)

    def describe(self) -> str:
        return f"link down {self.router1} -- {self.router2}"


@dataclass(frozen=True)
class LinkUp(LinkDown):
    """Re-enable a previously disabled link."""

    def apply(self, snapshot: Snapshot) -> None:
        snapshot.topology.set_link_enabled(self._find(snapshot), True)

    def describe(self) -> str:
        return f"link up {self.router1} -- {self.router2}"


@dataclass(frozen=True)
class ShutdownInterface(Edit):
    """Administratively disable one interface.

    Drops carrier for both ends of the cable (if any): connected
    routes vanish, OSPF adjacencies over the link collapse, and direct
    BGP sessions go down.
    """

    router: str
    interface: str

    def apply(self, snapshot: Snapshot) -> None:
        if self.interface not in snapshot.topology.router(self.router).interfaces:
            raise ChangeError(f"{self.router} has no interface {self.interface!r}")
        settings = snapshot.config(self.router).ensure_interface(self.interface)
        if not settings.enabled:
            raise ChangeError(
                f"{self.router}[{self.interface}] is already shut down"
            )
        settings.enabled = False

    def describe(self) -> str:
        return f"{self.router}[{self.interface}]: shutdown"


@dataclass(frozen=True)
class EnableInterface(Edit):
    """Re-enable a previously shut down interface."""

    router: str
    interface: str

    def apply(self, snapshot: Snapshot) -> None:
        if self.interface not in snapshot.topology.router(self.router).interfaces:
            raise ChangeError(f"{self.router} has no interface {self.interface!r}")
        settings = snapshot.config(self.router).ensure_interface(self.interface)
        if settings.enabled:
            raise ChangeError(f"{self.router}[{self.interface}] is already up")
        settings.enabled = True

    def describe(self) -> str:
        return f"{self.router}[{self.interface}]: no shutdown"


# -- static routes -----------------------------------------------------------


@dataclass(frozen=True)
class AddStaticRoute(Edit):
    """Install a static route on one router."""

    router: str
    route: StaticRouteConfig

    def apply(self, snapshot: Snapshot) -> None:
        try:
            snapshot.config(self.router).add_static_route(self.route)
        except ValueError as error:
            raise ChangeError(str(error)) from None

    def describe(self) -> str:
        return f"{self.router}: add static {self.route.prefix}"


@dataclass(frozen=True)
class RemoveStaticRoute(Edit):
    """Remove a static route (matched by value) from one router."""

    router: str
    route: StaticRouteConfig

    def apply(self, snapshot: Snapshot) -> None:
        try:
            snapshot.config(self.router).remove_static_route(self.route)
        except ValueError as error:
            raise ChangeError(str(error)) from None

    def describe(self) -> str:
        return f"{self.router}: remove static {self.route.prefix}"


# -- OSPF ---------------------------------------------------------------------


def _ospf(snapshot: Snapshot, router: str) -> OspfConfig:
    config = snapshot.config(router)
    if config.ospf is None:
        config.ospf = OspfConfig()
    return config.ospf


@dataclass(frozen=True)
class SetOspfCost(Edit):
    """Change the OSPF cost of one interface."""

    router: str
    interface: str
    cost: int

    def apply(self, snapshot: Snapshot) -> None:
        ospf = _ospf(snapshot, self.router)
        settings = ospf.interfaces.get(self.interface)
        if settings is None:
            raise ChangeError(
                f"{self.router}[{self.interface}] does not run OSPF"
            )
        if self.cost < 1:
            raise ChangeError("OSPF cost must be >= 1")
        settings.cost = self.cost

    def describe(self) -> str:
        return f"{self.router}[{self.interface}]: ospf cost {self.cost}"


@dataclass(frozen=True)
class EnableOspfInterface(Edit):
    """Start running OSPF on an interface."""

    router: str
    interface: str
    area: int = 0
    cost: int = 10
    passive: bool = False

    def apply(self, snapshot: Snapshot) -> None:
        if self.interface not in snapshot.topology.router(self.router).interfaces:
            raise ChangeError(f"{self.router} has no interface {self.interface!r}")
        if self.cost < 1:
            raise ChangeError("OSPF cost must be >= 1")
        ospf = _ospf(snapshot, self.router)
        existing = ospf.interfaces.get(self.interface)
        if existing is not None and existing.enabled:
            raise ChangeError(
                f"{self.router}[{self.interface}] already runs OSPF"
            )
        ospf.interfaces[self.interface] = OspfInterfaceSettings(
            area=self.area, cost=self.cost, enabled=True, passive=self.passive
        )

    def describe(self) -> str:
        return f"{self.router}[{self.interface}]: enable ospf area {self.area}"


@dataclass(frozen=True)
class DisableOspfInterface(Edit):
    """Stop running OSPF on an interface."""

    router: str
    interface: str

    def apply(self, snapshot: Snapshot) -> None:
        ospf = _ospf(snapshot, self.router)
        settings = ospf.interfaces.get(self.interface)
        if settings is None or not settings.enabled:
            raise ChangeError(
                f"{self.router}[{self.interface}] does not run OSPF"
            )
        settings.enabled = False

    def describe(self) -> str:
        return f"{self.router}[{self.interface}]: disable ospf"


# -- BGP ------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnouncePrefix(Edit):
    """Add a ``network`` statement (BGP origination)."""

    router: str
    prefix: Prefix

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        if config.bgp is None:
            raise ChangeError(f"{self.router} does not run BGP")
        if self.prefix in config.bgp.originated:
            raise ChangeError(f"{self.router} already originates {self.prefix}")
        config.bgp.originated.append(self.prefix)

    def describe(self) -> str:
        return f"{self.router}: announce {self.prefix}"


@dataclass(frozen=True)
class WithdrawPrefix(Edit):
    """Remove a ``network`` statement."""

    router: str
    prefix: Prefix

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        if config.bgp is None or self.prefix not in config.bgp.originated:
            raise ChangeError(f"{self.router} does not originate {self.prefix}")
        config.bgp.originated.remove(self.prefix)

    def describe(self) -> str:
        return f"{self.router}: withdraw {self.prefix}"


@dataclass(frozen=True)
class AddBgpNeighbor(Edit):
    """Configure a new BGP session endpoint."""

    router: str
    neighbor: BgpNeighborConfig

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        if config.bgp is None:
            raise ChangeError(f"{self.router} does not run BGP")
        try:
            config.bgp.add_neighbor(self.neighbor)
        except ValueError as error:
            raise ChangeError(str(error)) from None

    def describe(self) -> str:
        return f"{self.router}: add bgp neighbor {self.neighbor.peer_ip}"


@dataclass(frozen=True)
class RemoveBgpNeighbor(Edit):
    """Tear down a BGP session endpoint."""

    router: str
    peer_ip: IPv4Address

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        if config.bgp is None:
            raise ChangeError(f"{self.router} does not run BGP")
        try:
            config.bgp.remove_neighbor(self.peer_ip)
        except ValueError as error:
            raise ChangeError(str(error)) from None

    def describe(self) -> str:
        return f"{self.router}: remove bgp neighbor {self.peer_ip}"


@dataclass(frozen=True)
class SetLocalPref(Edit):
    """Set the local-pref action of an existing route-map clause."""

    router: str
    route_map: str
    seq: int
    local_pref: int

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        route_map = config.route_maps.get(self.route_map)
        if route_map is None:
            raise ChangeError(f"{self.router}: no route-map {self.route_map!r}")
        for index, clause in enumerate(route_map.clauses):
            if clause.seq == self.seq:
                from dataclasses import replace

                route_map.clauses[index] = replace(
                    clause, set_local_pref=self.local_pref
                )
                return
        raise ChangeError(
            f"{self.router}: route-map {self.route_map} has no clause {self.seq}"
        )

    def describe(self) -> str:
        return (
            f"{self.router}: route-map {self.route_map} seq {self.seq} "
            f"local-pref {self.local_pref}"
        )


@dataclass(frozen=True)
class AddRouteMapClause(Edit):
    """Insert a clause into a route map (creating the map if needed)."""

    router: str
    route_map: str
    clause: RouteMapClause

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        route_map = config.route_maps.get(self.route_map)
        if route_map is None:
            route_map = RouteMap(self.route_map)
            config.route_maps[self.route_map] = route_map
        try:
            route_map.add_clause(self.clause)
        except ValueError as error:
            raise ChangeError(str(error)) from None

    def describe(self) -> str:
        return (
            f"{self.router}: route-map {self.route_map} add clause "
            f"{self.clause.seq}"
        )


@dataclass(frozen=True)
class RemoveRouteMapClause(Edit):
    """Delete a clause from a route map."""

    router: str
    route_map: str
    seq: int

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        route_map = config.route_maps.get(self.route_map)
        if route_map is None:
            raise ChangeError(f"{self.router}: no route-map {self.route_map!r}")
        try:
            route_map.remove_clause(self.seq)
        except ValueError as error:
            raise ChangeError(str(error)) from None

    def describe(self) -> str:
        return f"{self.router}: route-map {self.route_map} remove clause {self.seq}"


# -- ACLs --------------------------------------------------------------------------


@dataclass(frozen=True)
class AddAclRule(Edit):
    """Append (or insert) a rule in an ACL, creating the ACL if needed.

    ``position`` of None appends; otherwise inserts at that index.
    """

    router: str
    acl: str
    rule: AclRule
    position: int | None = None

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        acl = config.acls.get(self.acl)
        if acl is None:
            acl = Acl(self.acl)
            config.acls[self.acl] = acl
        if self.position is None:
            acl.rules.append(self.rule)
        else:
            if not 0 <= self.position <= len(acl.rules):
                raise ChangeError(
                    f"{self.router}: position {self.position} out of range "
                    f"for acl {self.acl}"
                )
            acl.rules.insert(self.position, self.rule)

    def describe(self) -> str:
        return f"{self.router}: acl {self.acl} add [{self.rule}]"


@dataclass(frozen=True)
class RemoveAclRule(Edit):
    """Remove the first rule equal to ``rule`` from an ACL."""

    router: str
    acl: str
    rule: AclRule

    def apply(self, snapshot: Snapshot) -> None:
        config = snapshot.config(self.router)
        acl = config.acls.get(self.acl)
        if acl is None:
            raise ChangeError(f"{self.router}: no acl {self.acl!r}")
        try:
            acl.rules.remove(self.rule)
        except ValueError:
            raise ChangeError(
                f"{self.router}: acl {self.acl} has no rule [{self.rule}]"
            ) from None

    def describe(self) -> str:
        return f"{self.router}: acl {self.acl} remove [{self.rule}]"


@dataclass(frozen=True)
class BindAcl(Edit):
    """Attach (or detach, with ``acl=None``) an ACL to an interface."""

    router: str
    interface: str
    acl: str | None
    direction: str = "out"  # "in" or "out"

    def apply(self, snapshot: Snapshot) -> None:
        if self.direction not in ("in", "out"):
            raise ChangeError(f"bad ACL direction {self.direction!r}")
        if self.interface not in snapshot.topology.router(self.router).interfaces:
            raise ChangeError(f"{self.router} has no interface {self.interface!r}")
        settings = snapshot.config(self.router).ensure_interface(self.interface)
        if self.direction == "in":
            settings.acl_in = self.acl
        else:
            settings.acl_out = self.acl

    def describe(self) -> str:
        return (
            f"{self.router}[{self.interface}]: acl-{self.direction} "
            f"{self.acl or 'none'}"
        )


# -- batches --------------------------------------------------------------------


@dataclass
class Change:
    """An atomic batch of edits, applied in order."""

    edits: list[Edit] = dataclass_field(default_factory=list)
    label: str = ""

    @classmethod
    def of(cls, *edits: Edit, label: str = "") -> "Change":
        """Convenience constructor."""
        return cls(edits=list(edits), label=label)

    def apply(self, snapshot: Snapshot) -> None:
        """Apply every edit to the snapshot, in order."""
        for edit in self.edits:
            edit.apply(snapshot)

    def applied_to_copy(self, snapshot: Snapshot) -> Snapshot:
        """A changed clone, leaving the original untouched."""
        copy = snapshot.clone()
        self.apply(copy)
        return copy

    def describe(self) -> str:
        """Multi-line description of the batch."""
        header = self.label or f"change ({len(self.edits)} edits)"
        return "\n".join([header] + [f"  - {e.describe()}" for e in self.edits])

    def __len__(self) -> int:
        return len(self.edits)

    def __iter__(self):
        return iter(self.edits)
