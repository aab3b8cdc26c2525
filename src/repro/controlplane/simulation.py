"""Full control-plane convergence (the Batfish-style baseline).

:func:`simulate` computes, from scratch, everything a snapshot
implies: connected/static routes, OSPF (per-area SPF), BGP (per-prefix
path-vector), per-router RIBs, resolved FIBs, and the atom-decomposed
data plane.  The result — a :class:`NetworkState` — is also the warm
state the incremental analyzer starts from and maintains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controlplane.bgp import (
    BgpPrefixSolution,
    BgpSession,
    BgpSolver,
    collect_origins,
    discover_sessions,
)
from repro.controlplane.connected import (
    AddressIndex,
    connected_routes,
    static_routes,
)
from repro.controlplane.ospf import (
    OspfState,
    backbone_advertisements,
    backbone_totals,
    build_ospf_state,
    ospf_routes_for_source,
)
from repro.controlplane.rib import NextHop, Rib, Route
from repro.dataplane.fib import Fib, FibEntry
from repro.dataplane.forwarding import DataPlane
from repro.dataplane.reachability import ReachabilityIndex
from repro.net.addr import IPv4Address, Prefix

INFINITY = float("inf")


class IgpAdapter:
    """LPM view over the non-BGP routes, used by BGP and FIB building.

    Backed by one trie per router containing the best non-BGP route
    per prefix.  :meth:`set_router_routes` builds a router's view once
    (initial convergence); afterwards the IGP stage updates it one
    (router, prefix) entry at a time through :meth:`set_route`.
    """

    def __init__(self) -> None:
        self._tries: dict[str, Fib] = {}
        self._routes: dict[str, dict[Prefix, Route]] = {}

    def set_router_routes(self, router: str, routes: dict[Prefix, Route]) -> None:
        """Replace one router's IGP route set."""
        trie = Fib(router)
        for prefix, route in routes.items():
            trie.install(FibEntry(prefix, route.next_hops, route.protocol))
        self._tries[router] = trie
        self._routes[router] = dict(routes)

    def set_route(self, router: str, prefix: Prefix, route: Route | None) -> None:
        """Install (or, with None, remove) one router's route for one prefix.

        Removal leaves the trie nodes in place (see :meth:`Fib.remove`),
        so longest-prefix-match answers equal a from-scratch build.
        """
        routes = self._routes.get(router)
        if route is None:
            if routes is not None and routes.pop(prefix, None) is not None:
                self._tries[router].remove(prefix)
            return
        if routes is None:
            routes = self._routes[router] = {}
            self._tries[router] = Fib(router)
        self._tries[router].install(
            FibEntry(prefix, route.next_hops, route.protocol)
        )
        routes[prefix] = route

    def route(self, router: str, prefix: Prefix) -> Route | None:
        """The exact-match route for ``prefix`` at ``router`` (or None)."""
        return self._routes.get(router, {}).get(prefix)

    def routes(self, router: str) -> dict[Prefix, Route]:
        """A copy of one router's IGP route set."""
        return dict(self._routes.get(router, {}))

    def covering_route(self, router: str, address: IPv4Address) -> Route | None:
        """The best non-BGP route covering ``address`` at ``router``."""
        trie = self._tries.get(router)
        if trie is None:
            return None
        entry = trie.lookup(int(address))
        if entry is None:
            return None
        return self._routes[router].get(entry.prefix)

    def cost_to(self, router: str, address: IPv4Address) -> float:
        """IGP metric to ``address`` (infinity when uncovered)."""
        route = self.covering_route(router, address)
        if route is None or all(nh.drop for nh in route.next_hops):
            return INFINITY
        return float(route.metric)

    def resolve(self, router: str, address: IPv4Address, address_index: AddressIndex) -> frozenset[NextHop]:
        """Concrete next hops toward ``address``.

        A connected covering route yields a direct hop carrying the
        target address itself; otherwise the covering route's hops are
        reused (one level of recursion, as in real RIB resolution for
        directly-resolvable protocols).
        """
        route = self.covering_route(router, address)
        if route is None:
            return frozenset()
        if route.protocol == "connected":
            owner = address_index.owner(address)
            hops = set()
            for hop in route.next_hops:
                hops.add(
                    NextHop(
                        interface=hop.interface,
                        ip=address,
                        neighbor=owner.router if owner is not None else None,
                    )
                )
            return frozenset(hops)
        return route.next_hops


@dataclass
class NetworkState:
    """Converged control and data plane of one snapshot."""

    snapshot: object
    address_index: AddressIndex
    ospf_state: OspfState
    ospf_routes: dict[str, dict[Prefix, Route]]
    igp: IgpAdapter
    bgp_sessions: list[BgpSession]
    bgp_solutions: dict[Prefix, BgpPrefixSolution]
    ribs: dict[str, Rib]
    fibs: dict[str, Fib]
    dataplane: DataPlane
    reachability: ReachabilityIndex
    # Cached inter-area summaries (None when single-area).
    backbone_adverts: dict | None = None
    backbone_totals_map: dict | None = None
    connected: dict[str, dict[Prefix, Route]] = field(default_factory=dict)
    statics: dict[str, dict[Prefix, Route]] = field(default_factory=dict)

    def routers(self) -> list[str]:
        return self.snapshot.topology.router_names()


def build_fib_entry(
    state_igp: IgpAdapter,
    address_index: AddressIndex,
    router: str,
    route: Route,
) -> FibEntry | None:
    """Resolve one best route into a FIB entry (None if unresolvable)."""
    if route.protocol != "bgp":
        return FibEntry(route.prefix, route.next_hops, route.protocol)
    assert route.bgp_next_hop is not None
    hops = state_igp.resolve(router, route.bgp_next_hop, address_index)
    live = frozenset(h for h in hops if not h.drop)
    if not live:
        return None
    return FibEntry(route.prefix, live, "bgp")


def build_router_fib(
    router: str,
    rib: Rib,
    igp: IgpAdapter,
    address_index: AddressIndex,
) -> Fib:
    """The FIB implied by a RIB's best routes."""
    fib = Fib(router)
    for prefix, best in rib.best_routes().items():
        if best is None:
            continue
        entry = build_fib_entry(igp, address_index, router, best)
        if entry is not None:
            fib.install(entry)
    return fib


def simulate(snapshot, precompute_reachability: bool = False) -> NetworkState:
    """Fully converge a snapshot.

    With ``precompute_reachability`` the per-atom reachability of every
    atom is materialized (what the snapshot-diff baseline needs);
    otherwise atoms are analysed lazily on first query.
    """
    address_index = AddressIndex(snapshot)
    routers = snapshot.topology.router_names()

    connected_map: dict[str, dict[Prefix, Route]] = {}
    static_map: dict[str, dict[Prefix, Route]] = {}
    for router in routers:
        connected_map[router] = connected_routes(snapshot, router)
        static_map[router] = static_routes(
            snapshot, router, connected_map[router], address_index
        )

    ospf_state = build_ospf_state(snapshot)
    multi_area = len(ospf_state.areas()) > 1
    adverts = backbone_advertisements(ospf_state) if multi_area else None
    totals = backbone_totals(ospf_state, adverts) if multi_area and adverts is not None else None
    ospf_routes: dict[str, dict[Prefix, Route]] = {}
    for router in routers:
        ospf_routes[router] = ospf_routes_for_source(
            ospf_state, router, adverts, totals
        )

    igp = IgpAdapter()
    ribs: dict[str, Rib] = {}
    for router in routers:
        rib = Rib(router)
        for route in connected_map[router].values():
            rib.install(route)
        for route in static_map[router].values():
            rib.install(route)
        for route in ospf_routes[router].values():
            rib.install(route)
        ribs[router] = rib
        igp_best = {
            prefix: route
            for prefix, route in rib.best_routes().items()
            if route is not None
        }
        igp.set_router_routes(router, igp_best)

    sessions = discover_sessions(snapshot, address_index)
    origins = collect_origins(snapshot)
    solver = BgpSolver(snapshot, sessions, igp)
    solutions: dict[Prefix, BgpPrefixSolution] = {}
    for prefix in sorted(origins):
        solutions[prefix] = solver.solve(prefix, origins[prefix])
    for prefix, solution in solutions.items():
        for router in routers:
            route = solution.route_for(router)
            if route is not None:
                ribs[router].install(route)

    fibs: dict[str, Fib] = {
        router: build_router_fib(router, ribs[router], igp, address_index)
        for router in routers
    }

    dataplane = DataPlane(snapshot, fibs)
    reachability = ReachabilityIndex(dataplane)
    if precompute_reachability:
        reachability.compute_all()

    return NetworkState(
        snapshot=snapshot,
        address_index=address_index,
        ospf_state=ospf_state,
        ospf_routes=ospf_routes,
        igp=igp,
        bgp_sessions=sessions,
        bgp_solutions=solutions,
        ribs=ribs,
        fibs=fibs,
        dataplane=dataplane,
        reachability=reachability,
        backbone_adverts=adverts,
        backbone_totals_map=totals,
        connected=connected_map,
        statics=static_map,
    )
