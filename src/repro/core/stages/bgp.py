"""The BGP stage, and the pre-image of IGP writes it diffs against.

:func:`run` is a sub-pipeline mirroring the
:mod:`repro.controlplane.bgp` package — session discovery, policy
scoping, adj-RIB invalidation, best-path decision — each consuming its
own DirtySet axis under its own ``pipeline.bgp.*`` span (children of
``pipeline.bgp``, so the top-level stage list is unchanged).

IGP drift reaches BGP only through the IGP adapter, which only the IGP
stage's write loop changes: it calls :func:`pre_image` with the keys
it is about to write, and the adj-RIB sub-stage compares after them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.bgp import (
    INFINITY,
    BgpSolver,
    SessionPair,
    collect_origins,
    discover_sessions_for,
)
from repro.core.stages import Attribution, Pass, RibKey, StageWork
from repro.net.addr import IPv4Address, Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.routemap import AttributeBundle
    from repro.controlplane.simulation import NetworkState
    from repro.core.pipeline import DirtySet

    Origins = dict[Prefix, dict[str, AttributeBundle]]

BgpPair = tuple[str, IPv4Address]
Fingerprint = tuple[object, object]

NAME = "pipeline.bgp"
AXES: tuple[str, ...] = (
    "bgp_prefixes", "bgp_sessions", "bgp_adj_rib", "bgp_policy", "all_bgp_dirty",
)


def pre_image(ctx: Pass, written: set[RibKey]) -> None:
    """Fingerprint, before the IGP stage writes ``written``, every BGP
    pair and multihop session those writes can move.

    A (router, next hop) pair's cost and resolved hops, and a multihop
    session's liveness, come from the longest IGP match at that router
    alone, so (r, a) can move only under a written (r, p) with a in p.
    Fills ``ctx.igp_pairs`` (pair -> fingerprint, prefixes whose
    solution involves it) and ``ctx.igp_sessions`` (session -> live):
    one scan over the solutions, none unless a key is at a BGP router.
    """
    state = ctx.state
    if not state.bgp_sessions:
        return  # no sessions, no BGP next hops: O(1) without BGP
    configs = ctx.analyzer.snapshot.configs
    under: dict[str, list[Prefix]] = {}
    for router, prefix in written:
        config = configs.get(router)
        if config is not None and config.bgp is not None:
            under.setdefault(router, []).append(prefix)
    if not under:
        return
    index: dict[BgpPair, set[Prefix]] = {}
    for prefix, solution in state.bgp_solutions.items():
        for (router, _sender), candidate in solution.adj_in.items():
            if router in under and candidate.next_hop is not None:
                index.setdefault((router, candidate.next_hop), set()).add(prefix)
        for router, candidate in solution.best.items():
            if router in under and candidate.next_hop is not None:
                index.setdefault((router, candidate.next_hop), set()).add(prefix)
    for pair, prefixes in index.items():
        if _covered(under, pair):
            ctx.igp_pairs[pair] = (_fingerprint(state, pair), prefixes)
    for session in state.bgp_sessions:
        pair = (session.local, session.peer_ip)
        if not session.direct and _covered(under, pair):
            ctx.igp_sessions[pair] = state.igp.cost_to(*pair) < INFINITY


def _covered(under: dict[str, list[Prefix]], pair: BgpPair) -> bool:
    router, address = pair
    return any(prefix.contains_address(address) for prefix in under.get(router, ()))


def _fingerprint(state: NetworkState, pair: BgpPair) -> Fingerprint:
    router, address = pair
    cost = state.igp.cost_to(router, address)
    resolved = state.igp.resolve(router, address, state.address_index)
    return (cost, resolved)


class _Scope:
    """The prefixes this pass re-solves, and (provenance) why.

    Every sub-stage that dirties a prefix notes its causes;
    ``all_cause`` backs the prefixes only reached through an all-dirty
    expansion.
    """

    def __init__(self, dirty: DirtySet, attr: Attribution | None) -> None:
        self.prefixes: set[Prefix] = set(dirty.bgp_prefixes)
        self.all_dirty = dirty.all_bgp_dirty
        self.causes: dict[Prefix, set[int]] = {}
        self.all_cause: set[int] = set()
        if attr is not None:
            for prefix in dirty.bgp_prefixes:
                self.note(prefix, set(dirty.origin("bgp_prefix", prefix)))
            if dirty.all_bgp_dirty:
                self.all_cause |= dirty.origin("all_bgp_dirty")

    def note(self, prefix: Prefix, ids: set[int]) -> None:
        self.causes.setdefault(prefix, set()).update(ids)

    def cause_for(self, prefix: Prefix, attr: Attribution) -> set[int]:
        ids = set(self.causes.get(prefix, ()))
        if not ids:
            ids = set(self.all_cause)
        return ids or attr.fallback()


def run(ctx: Pass, dirty: DirtySet) -> StageWork:
    """Re-solve the dirtied BGP prefixes (nothing without BGP)."""
    solved = rescanned = 0
    if ctx.state.bgp_solutions or any(
        config.bgp is not None for config in ctx.analyzer.snapshot.configs.values()
    ):
        solved, rescanned = _recompute_bgp(ctx, dirty)
    return StageWork(
        labels={"prefixes_solved": solved, "sessions_rescanned": rescanned},
        counters={
            "bgp_prefixes_resolved": solved,
            "bgp_sessions_rescanned": rescanned,
            "bgp_pairs_fingerprinted": len(ctx.igp_pairs) + len(ctx.igp_sessions),
        },
    )


def _recompute_bgp(ctx: Pass, dirty: DirtySet) -> tuple[int, int]:
    """The four sub-stages; returns (prefixes solved, slots rescanned)."""
    analyzer = ctx.analyzer
    state = ctx.state
    tracer = analyzer.tracer
    attr = ctx.attr
    scope = _Scope(dirty, attr)

    with tracer.span(
        "pipeline.bgp.sessions", pairs=len(dirty.bgp_sessions)
    ) as sessions_span:
        rescanned = _sessions_stage(ctx, dirty, scope)
        sessions_span.set(rescanned=rescanned)

    origins = collect_origins(analyzer.snapshot)

    with tracer.span(
        "pipeline.bgp.policy",
        policy_routers=len(dirty.bgp_policy),
        adj_rib_pairs=len(dirty.bgp_adj_rib),
    ):
        _policy_stage(ctx, dirty, origins, scope)

    with tracer.span("pipeline.bgp.adjrib") as adjrib_span:
        resolution_refresh, liveness_dirty = _adjrib_stage(
            ctx, dirty, origins, scope
        )
        scope.all_dirty = scope.all_dirty or liveness_dirty
        adjrib_span.set(
            resolution_refreshes=len(resolution_refresh),
            liveness_dirty=liveness_dirty,
        )

    with tracer.span("pipeline.bgp.decision") as decision_span:
        bgp_dirty = scope.prefixes
        if scope.all_dirty:
            bgp_dirty = set(state.bgp_solutions) | set(origins)
        # Built after the sessions stage and the IGP stage, so the
        # session graph and the IGP view are final for the pass.
        solver = BgpSolver(analyzer.snapshot, state.bgp_sessions, state.igp)
        routers = analyzer.snapshot.topology.router_names()
        for prefix in sorted(bgp_dirty):
            old_solution = state.bgp_solutions.get(prefix)
            if ctx.journal is not None:
                ctx.journal.save_bgp_solution(prefix)
            if prefix in origins:
                new_solution = solver.solve(prefix, origins[prefix])
                state.bgp_solutions[prefix] = new_solution
            else:
                new_solution = None
                state.bgp_solutions.pop(prefix, None)
            prefix_causes = (
                scope.cause_for(prefix, attr) if attr is not None else None
            )
            for router in routers:
                old_route = (
                    old_solution.route_for(router) if old_solution else None
                )
                new_route = (
                    new_solution.route_for(router) if new_solution else None
                )
                if old_route == new_route:
                    continue
                ctx.install(router, "bgp", prefix, new_route, prefix_causes)

        # Resolution-only refreshes enter the FIB stage via
        # best_changed with an unchanged best route (the FIB entry
        # still differs).
        for router, prefix in resolution_refresh:
            key = (router, prefix)
            if key not in ctx.best_changed:
                best = state.ribs[router].best(prefix)
                ctx.best_changed[key] = (best, best)
        decision_span.set(
            prefixes_solved=len(bgp_dirty),
            exports_evaluated=solver.exports_evaluated,
        )
    return len(bgp_dirty), rescanned


def _sessions_stage(ctx: Pass, dirty: DirtySet, scope: _Scope) -> int:
    """Stage 1 — session discovery over the ``bgp_sessions`` axis.

    Re-validates only the dirtied directed ``(local, peer)`` pairs
    (``kept + rediscovered``, both canonically ordered, is
    byte-identical to a full rescan).  Removed sessions scope down
    to the prefixes flowing over them; added sessions escalate to
    all-dirty (a new session can attract any prefix).  Returns the
    number of session slots rescanned.
    """
    state = ctx.state
    attr = ctx.attr
    pairs = set(dirty.bgp_sessions)
    if not pairs:
        return 0
    kept = [s for s in state.bgp_sessions if s.key not in pairs]
    rediscovered = discover_sessions_for(
        ctx.analyzer.snapshot, state.address_index, pairs
    )
    new_sessions = sorted(kept + rediscovered, key=lambda s: s.sort_key)
    old_keys = {
        (s.local, s.peer, s.local_ip, s.peer_ip) for s in state.bgp_sessions
    }
    new_keys = {(s.local, s.peer, s.local_ip, s.peer_ip) for s in new_sessions}
    removed = old_keys - new_keys
    added = new_keys - old_keys
    # A multihop session that appears or goes has no pre- or no
    # post-image: its liveness flips (see _adjrib_stage).
    old_multihop = {(s.local, s.peer_ip) for s in state.bgp_sessions if not s.direct}
    new_multihop = {(s.local, s.peer_ip) for s in new_sessions if not s.direct}
    for local, _peer_ip in old_multihop ^ new_multihop:
        scope.all_dirty = True
        if attr is not None:
            scope.all_cause |= attr.igp_cause_at(local)
    if added:
        scope.all_dirty = True
        if attr is not None:
            for local, peer, _local_ip, _peer_ip in added:
                scope.all_cause |= attr.session_cause(local, peer)
    if removed:
        removed_pairs = {(local, peer) for local, peer, _, _ in removed}
        pair_cause: dict[SessionPair, set[int]] = {}
        if attr is not None:
            for local, peer, _local_ip, _peer_ip in removed:
                pair_cause[(local, peer)] = attr.session_cause(local, peer)
        for prefix, solution in state.bgp_solutions.items():
            for receiver, sender in solution.adj_in:
                if (sender, receiver) in removed_pairs:
                    scope.prefixes.add(prefix)
                    if attr is None:
                        break
                    scope.note(prefix, pair_cause[(sender, receiver)])
    if ctx.journal is not None:
        ctx.journal.save_sessions()
    state.bgp_sessions = new_sessions
    return len(pairs)


def _policy_stage(
    ctx: Pass, dirty: DirtySet, origins: Origins, scope: _Scope
) -> None:
    """Stage 2 — policy scoping over ``bgp_policy``/``bgp_adj_rib``.

    Structural policy edits (``bgp_policy``) dirty every prefix
    flowing through — or originated by — the edited routers.
    Attribute-only edits (``bgp_adj_rib``) dirty exactly the
    prefixes with adj-RIB entries on the dirtied (receiver,
    sender) pairs: a local-pref tweak cannot flip a permit/deny,
    so prefixes without an entry on those sessions cannot move.
    """
    state = ctx.state
    attr = ctx.attr
    if dirty.bgp_policy:
        for prefix, solution in state.bgp_solutions.items():
            for receiver, sender in solution.adj_in:
                hit = {
                    router
                    for router in (receiver, sender)
                    if router in dirty.bgp_policy
                }
                if hit:
                    scope.prefixes.add(prefix)
                    if attr is None:
                        break
                    for router in hit:
                        scope.note(
                            prefix, set(dirty.origin("bgp_policy", router))
                        )
        # Policy can gate originations too (export maps on first hop).
        for prefix, owners_list in origins.items():
            hit = set(owners_list) & dirty.bgp_policy
            if hit:
                scope.prefixes.add(prefix)
                if attr is not None:
                    for router in hit:
                        scope.note(
                            prefix, set(dirty.origin("bgp_policy", router))
                        )
    if dirty.bgp_adj_rib:
        for prefix, solution in state.bgp_solutions.items():
            touched = dirty.bgp_adj_rib & set(solution.adj_in)
            if touched:
                scope.prefixes.add(prefix)
                if attr is not None:
                    for pair in sorted(touched):
                        scope.note(
                            prefix, set(dirty.origin("bgp_adj_rib", pair))
                        )


def _adjrib_stage(
    ctx: Pass, dirty: DirtySet, origins: Origins, scope: _Scope
) -> tuple[set[RibKey], bool]:
    """Stage 3 — adj-RIB invalidation from IGP and origination drift.

    IGP cost changes since :func:`pre_image` flip decisions;
    resolution changes require FIB rebuilds even when decisions hold;
    liveness flips on multihop sessions escalate to all-dirty.
    Origination drift beyond explicit announce/withdraw edits
    (redistribute-connected picking up connected-route changes)
    dirties the drifted prefixes.  Returns ``(resolution-only
    refreshes, liveness escalation)``.
    """
    analyzer = ctx.analyzer
    state = ctx.state
    attr = ctx.attr
    resolution_refresh: set[RibKey] = set()
    liveness_dirty = False
    for pair, (pre, prefixes) in ctx.igp_pairs.items():
        post = _fingerprint(state, pair)
        if pre == post:
            continue
        pair_igp_cause = (
            attr.igp_cause_at(pair[0]) if attr is not None else None
        )
        if pre[0] != post[0]:
            scope.prefixes.update(prefixes)
            if pair_igp_cause is not None:
                for prefix in prefixes:
                    scope.note(prefix, pair_igp_cause)
        if pre[1] != post[1]:
            # Even when the decision holds, the resolved next
            # hops changed — those FIB entries must be rebuilt.
            router = pair[0]
            for prefix in prefixes:
                solution = state.bgp_solutions.get(prefix)
                if solution is None:
                    continue
                best = solution.best.get(router)
                if best is not None and best.next_hop == pair[1]:
                    resolution_refresh.add((router, prefix))
                    if attr is not None and pair_igp_cause is not None:
                        attr.resolution_causes.setdefault(
                            (router, prefix), set()
                        ).update(pair_igp_cause)
    # A session the sessions stage dropped may flip here too; its
    # escalation and cause are the same either way.
    for session, live in ctx.igp_sessions.items():
        if (state.igp.cost_to(*session) < INFINITY) != live:
            liveness_dirty = True
            if attr is not None:
                scope.all_cause |= attr.igp_cause_at(session[0])

    # Origination drift beyond explicit announce/withdraw edits:
    # redistribute-connected picks up connected-route changes.
    for prefix in set(origins) | set(analyzer._origins):
        if origins.get(prefix) != analyzer._origins.get(prefix):
            scope.prefixes.add(prefix)
            if attr is not None:
                # Explicit announce/withdraw edits stamp the
                # prefix axis directly; connected-route drift is
                # pinned through the owning routers instead.
                drift: set[int] = set(dirty.origin("bgp_prefix", prefix))
                owners = set(origins.get(prefix, ())) | set(
                    analyzer._origins.get(prefix, ())
                )
                for owner in owners:
                    drift |= dirty.origin("touched_router", owner)
                scope.note(prefix, drift or attr.fallback())
    if ctx.journal is not None:
        ctx.journal.save_origins()
    analyzer._origins = origins
    return resolution_refresh, liveness_dirty
