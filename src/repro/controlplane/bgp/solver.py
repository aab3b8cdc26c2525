"""The worklist fixpoint driver over stages 2–4.

BGP's computation for different prefixes is independent given the IGP
and the session graph, so one :class:`BgpSolver` is built per pass —
the full simulation's convergence, or one decision stage of the
incremental pipeline — and solves every prefix the pass needs.  What
does not depend on the prefix is computed once: the multihop liveness
filter, a memo over IGP costs, and the set of *contested* senders.

Each prefix still runs in synchronous rounds, but a round re-exports
only the sessions whose sender's best path moved at the end of the
previous one.  ``export_route`` and ``import_route`` are pure in
``(snapshot, session, best[sender])``, so a skipped session would
rewrite the candidate already in its slot — a no-op.  The exception is
a slot fed by two sessions (parallel sessions between one router
pair): they can overwrite each other, so their sender stays on every
round's worklist, exactly as the plain round-robin would behave.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.config.routemap import AttributeBundle
from repro.controlplane.connected import interface_is_up
from repro.net.addr import IPv4Address, Prefix

from repro.controlplane.bgp.adjrib import export_route, import_route
from repro.controlplane.bgp.decision import best_path
from repro.controlplane.bgp.types import (
    INFINITY,
    LOCAL_KEY,
    BgpCandidate,
    BgpConvergenceError,
    BgpPrefixSolution,
    BgpSession,
    IgpView,
)

if TYPE_CHECKING:  # pragma: no cover - layering guard
    from repro.core.snapshot import Snapshot


class BgpSolver:
    """Per-pass worklist fixpoint over one session graph and IGP.

    The IGP view must not change while the solver is in use: its
    costs are memoised for the whole pass.  ``exports_evaluated``
    counts ``export_route`` calls across every :meth:`solve`.
    """

    def __init__(
        self,
        snapshot: "Snapshot",
        sessions: list[BgpSession],
        igp: IgpView,
    ) -> None:
        self.snapshot = snapshot
        self._igp = igp
        self._costs: dict[tuple[str, IPv4Address], float] = {}
        # The live sessions, in list order.  Loopback (multihop)
        # sessions whose endpoints cannot reach each other through the
        # IGP are down.
        self.sessions = [
            s
            for s in sessions
            if s.direct
            or (
                self.cost_to(s.local, s.peer_ip) < INFINITY
                and self.cost_to(s.peer, s.local_ip) < INFINITY
            )
        ]
        self._routers = {s.local for s in self.sessions} | {
            s.peer for s in self.sessions
        }
        # Senders feeding one (receiver, sender) slot over two sessions.
        feeding = Counter((s.peer, s.local) for s in self.sessions)
        self._contested = frozenset(
            sender for (_receiver, sender), n in feeding.items() if n > 1
        )
        self.exports_evaluated = 0

    def cost_to(self, router: str, address: IPv4Address) -> float:
        """The IGP view's cost, memoised for the pass."""
        key = (router, address)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = self._igp.cost_to(router, address)
        return cost

    def solve(
        self,
        prefix: Prefix,
        origins: dict[str, AttributeBundle],
        max_rounds: int | None = None,
    ) -> BgpPrefixSolution:
        """Propagate one prefix to a fixpoint over the live sessions.

        ``origins`` maps originating routers to their initial attribute
        bundles.
        """
        routers = sorted(self._routers.union(origins))
        if max_rounds is None:
            max_rounds = 2 * max(len(routers), 1) + 10

        candidates: dict[str, dict[str, BgpCandidate]] = {
            r: {} for r in routers
        }
        for router, bundle in origins.items():
            candidates[router][LOCAL_KEY] = BgpCandidate(
                bundle=bundle,
                next_hop=None,
                from_peer=None,
                ebgp=False,
                peer_router_id=0,
            )
        best: dict[str, BgpCandidate | None] = {
            router: best_path(router, candidates[router], self)
            for router in candidates
        }

        # Slots start empty, so a sender without a best path has
        # nothing to export in round 1.
        movers = {router for router, b in best.items() if b is not None}
        rounds = 0
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise BgpConvergenceError(
                    f"BGP did not converge for {prefix} within {max_rounds} rounds"
                )
            movers |= self._contested
            changed_routers: set[str] = set()
            for session in self.sessions:
                if session.local not in movers:
                    continue
                self.exports_evaluated += 1
                message = export_route(
                    self.snapshot, session, best[session.local]
                )
                candidate = import_route(self.snapshot, session, message)
                receiver = candidates[session.peer]
                previous = receiver.get(session.local)
                if candidate is None:
                    if previous is not None:
                        del receiver[session.local]
                        changed_routers.add(session.peer)
                elif previous != candidate:
                    receiver[session.local] = candidate
                    changed_routers.add(session.peer)
            if not changed_routers:
                break
            movers = set()
            for router in changed_routers:
                new_best = best_path(router, candidates[router], self)
                if new_best != best[router]:
                    movers.add(router)
                best[router] = new_best

        final_best = {router: b for router, b in best.items() if b is not None}
        adj_in = {
            (receiver, sender): candidate
            for receiver, per_receiver in candidates.items()
            for sender, candidate in per_receiver.items()
            if sender != LOCAL_KEY
        }
        return BgpPrefixSolution(
            prefix=prefix, best=final_best, adj_in=adj_in, rounds=rounds
        )


def collect_origins(
    snapshot: "Snapshot",
) -> dict[Prefix, dict[str, AttributeBundle]]:
    """Per-prefix origination map from ``network`` statements and
    connected redistribution."""
    origins: dict[Prefix, dict[str, AttributeBundle]] = {}

    def originate(router: str, prefix: Prefix, asn: int) -> None:
        origins.setdefault(prefix, {})[router] = AttributeBundle(
            prefix=prefix, as_path=(), local_pref=100, origin_asn=asn
        )

    for router, config in snapshot.configs.items():
        if config.bgp is None:
            continue
        for prefix in config.bgp.originated:
            originate(router, prefix, config.bgp.asn)
        if config.bgp.redistribute_connected:
            for interface, subnet in snapshot.topology.connected_subnets(
                router
            ):
                if interface_is_up(snapshot, router, interface.name):
                    originate(router, subnet, config.bgp.asn)
    return origins
