"""Forkable analyzer state: the undo journal behind ``what_if``.

The incremental analyzer *commits* by design — every ``analyze``
advances its snapshot and converged state.  Batch what-if workloads
(the campaign engine) instead need many independent evaluations
against one base state.  :class:`UndoJournal` makes that cheap: while
a fork is active, every mutation site in the analyzer records the
*first* before-image of whatever it is about to touch, at the
granularity it is touched —

- snapshot: per-router config clones and per-link enabled flags;
- OSPF: nothing of its own.  It is a function of the snapshot, so
  rollback re-derives it at the touched keys — the ends and pair of
  each link whose flag goes back, and each saved router whose OSPF
  inputs go back, with the peer and pair over each interface whose
  inputs do — once the snapshot is restored;
- RIBs: the per-prefix protocol map of each (router, prefix) written;
- per-router caches: OSPF/connected/static route maps, saved by
  reference or copy;
- IGP adapter: the old route per (router, prefix) written — rollback
  replays ``set_route`` with it;
- BGP: sessions list, per-prefix solutions, origin map;
- FIBs: the old entry per (router, prefix) — rollback replays the
  inverse ``update_fib_entry``, which also restores the refcounted
  atom decomposition exactly;
- per-(router, atom) actions: the first before-image of each changed
  pair, and of each FIB writer's action on an atom its cut-point
  change removed, on an atom live since the fork began — rollback
  reinstates them on the atoms that are live again, so the next
  request does not re-derive them;
- ACL interval registrations, replayed inverted in reverse order;
- reachability: the pre-change cache entries of the purged region,
  reinserted after the atom structure is back.

Rollback therefore costs O(touched state), not O(network) — the same
asymptotics the analyzer itself has — so a fork + rollback is strictly
cheaper than the commit + inverse-change pairing benchmarks used to
rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.controlplane.ospf import ospf_inputs
from repro.controlplane.rib import Route
from repro.dataplane.atoms import Atom
from repro.dataplane.fib import FibEntry
from repro.dataplane.forwarding import Action, ActionDelta, ActionKey
from repro.dataplane.reachability import AtomReachability
from repro.net.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import DifferentialNetworkAnalyzer
    from repro.core.change import Edit
    from repro.obs import Span

_UNSET = object()  # "never saved" marker distinct from None/missing
_MISSING = object()  # "key was absent" marker for dict restores


class ForkError(RuntimeError):
    """Raised on invalid fork usage (e.g. nested forks)."""


class UndoJournal:
    """Before-images of everything one fork touched, plus rollback."""

    def __init__(self, analyzer: "DifferentialNetworkAnalyzer") -> None:
        self.analyzer = analyzer
        self._configs: dict[str, object] = {}  # router -> clone | _MISSING
        self._link_flags: dict = {}  # Link -> bool
        self._backbone = _UNSET  # (adverts, totals) refs
        self._ospf_routes: dict[str, object] = {}  # source -> copy | _MISSING
        self._route_caches: dict[tuple[str, str], object] = {}
        self._rib: dict[tuple[str, Prefix], dict | None] = {}
        self._igp: dict[tuple[str, Prefix], Route | None] = {}
        self._sessions = _UNSET
        self._origins = _UNSET
        self._solutions: dict[Prefix, object] = {}  # prefix -> old | _MISSING
        self._fib: dict[tuple[str, Prefix], FibEntry | None] = {}
        self._actions: dict[ActionKey, Action | None] = {}
        # Atoms cut-point changes made during the fork: an action first
        # touched on one of them may already be a fork-time action.
        self._created: set[Atom] = set()
        self._acl_ops: list[tuple[int, int, bool]] = []
        self._acl_spans: list[tuple[int, int]] = []
        self._reach_regions: list[tuple[int, int]] = []
        self._reach_before: dict = {}  # Atom -> AtomReachability

    # ------------------------------------------------------------------
    # Recording (all first-touch-wins)
    # ------------------------------------------------------------------

    def before_edit(self, edit: "Edit") -> None:
        """Capture whatever applying ``edit`` may overwrite."""
        from repro.core.change import LinkDown, LinkUp

        snapshot = self.analyzer.snapshot
        if isinstance(edit, (LinkDown, LinkUp)):
            topology = snapshot.topology
            endpoints = {edit.router1, edit.router2}
            for link in topology.links(include_disabled=True):
                if set(link.routers) == endpoints and link not in self._link_flags:
                    self._link_flags[link] = topology.link_enabled(link)
        else:
            router = edit.router
            if router not in self._configs:
                config = snapshot.configs.get(router)
                self._configs[router] = (
                    config.clone() if config is not None else _MISSING
                )

    def save_backbone(self) -> None:
        if self._backbone is _UNSET:
            state = self.analyzer.state
            self._backbone = (state.backbone_adverts, state.backbone_totals_map)

    def save_ospf_routes(self, source: str) -> None:
        if source not in self._ospf_routes:
            current = self.analyzer.state.ospf_routes.get(source)
            self._ospf_routes[source] = (
                dict(current) if current is not None else _MISSING
            )

    def save_route_cache(self, protocol: str, router: str) -> None:
        """Stash one router's connected/static derived-route map."""
        key = (protocol, router)
        if key not in self._route_caches:
            cache = self._protocol_cache(protocol)
            self._route_caches[key] = cache.get(router, _MISSING)

    def _protocol_cache(self, protocol: str) -> dict:
        state = self.analyzer.state
        return state.connected if protocol == "connected" else state.statics

    def save_rib_prefix(self, router: str, prefix: Prefix) -> None:
        key = (router, prefix)
        if key not in self._rib:
            self._rib[key] = self.analyzer.state.ribs[router].snapshot_prefix(
                prefix
            )

    def save_igp_route(self, router: str, prefix: Prefix) -> None:
        key = (router, prefix)
        if key not in self._igp:
            self._igp[key] = self.analyzer.state.igp.route(router, prefix)

    def save_sessions(self) -> None:
        if self._sessions is _UNSET:
            self._sessions = self.analyzer.state.bgp_sessions

    def save_origins(self) -> None:
        if self._origins is _UNSET:
            self._origins = self.analyzer._origins

    def save_bgp_solution(self, prefix: Prefix) -> None:
        if prefix not in self._solutions:
            self._solutions[prefix] = self.analyzer.state.bgp_solutions.get(
                prefix, _MISSING
            )

    def save_fib_entry(
        self, router: str, prefix: Prefix, old_entry: FibEntry | None
    ) -> None:
        self._fib.setdefault((router, prefix), old_entry)

    def record_actions(self, delta: ActionDelta) -> None:
        self._created |= delta.created
        for key, (old, _new) in delta.changed.items():
            if key[1] not in self._created:
                self._actions.setdefault(key, old)
        for key, old in delta.retired.items():
            if key[1] not in self._created:
                self._actions.setdefault(key, old)

    def record_acl_structure(
        self, lo: int, hi: int, register: bool, created: set[Atom]
    ) -> None:
        self._acl_ops.append((lo, hi, register))
        self._created |= created

    def record_acl_span(self, lo: int, hi: int) -> None:
        self._acl_spans.append((lo, hi))

    def record_reachability(
        self,
        region: Iterable[tuple[int, int]],
        before: Iterable[tuple[int, int, AtomReachability]],
    ) -> None:
        self._reach_regions.extend(region)
        for _lo, _hi, reach in before:
            self._reach_before.setdefault(reach.atom, reach)

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------

    def rollback(self) -> None:
        """Restore the analyzer to its pre-fork state, exactly."""
        with self.analyzer.tracer.span("fork.rollback") as span:
            self._rollback(span)
        metrics = self.analyzer.metrics
        metrics.counter("fork.rollbacks").inc()
        metrics.counter("fork.rib_prefixes_restored").inc(len(self._rib))
        metrics.counter("fork.fib_entries_restored").inc(len(self._fib))

    def _rollback(self, span: "Span") -> None:
        analyzer = self.analyzer
        state = analyzer.state
        snapshot = analyzer.snapshot
        span.set(
            rib_prefixes=len(self._rib),
            fib_entries=len(self._fib),
            actions=len(self._actions),
        )

        # Control plane: plain reference/copy restores.
        if self._sessions is not _UNSET:
            state.bgp_sessions = self._sessions
        if self._origins is not _UNSET:
            analyzer._origins = self._origins
        for prefix, old in self._solutions.items():
            if old is _MISSING:
                state.bgp_solutions.pop(prefix, None)
            else:
                state.bgp_solutions[prefix] = old
        for (router, prefix), saved in self._rib.items():
            state.ribs[router].restore_prefix(prefix, saved)
        for (router, prefix), saved_route in self._igp.items():
            state.igp.set_route(router, prefix, saved_route)
        for source, saved in self._ospf_routes.items():
            if saved is _MISSING:
                state.ospf_routes.pop(source, None)
            else:
                state.ospf_routes[source] = saved
        for (protocol, router), saved in self._route_caches.items():
            cache = self._protocol_cache(protocol)
            if saved is _MISSING:
                cache.pop(router, None)
            else:
                cache[router] = saved
        if self._backbone is not _UNSET:
            state.backbone_adverts, state.backbone_totals_map = self._backbone

        # Snapshot: configs wholesale, link flags individually; then
        # OSPF is re-derived at the keys the restore moved.  The dirt
        # it reports is dropped: routes and caches came back above.
        routers, pairs = self._ospf_keys()
        for router, saved_config in self._configs.items():
            if saved_config is _MISSING:
                snapshot.configs.pop(router, None)
            else:
                snapshot.configs[router] = saved_config
        for link, enabled in self._link_flags.items():
            snapshot.topology.set_link_enabled(link, enabled)
        ospf = analyzer._ospf
        for router in sorted(routers):
            ospf.refresh_router_adverts(router)
        for u, w in sorted(pairs):
            ospf.refresh_pair(u, w)
        span.set(ospf_keys_replayed=len(routers) + len(pairs))

        # Data plane: inverse FIB writes restore tries and the
        # refcounted atom decomposition, dropping the written routers'
        # actions; ACL registrations replay inverted in reverse order.
        # Then the saved actions go back on the atoms live again, before
        # the ACL spans drop whatever a fork-time ACL decided.
        dataplane = state.dataplane
        for (router, prefix), entry in self._fib.items():
            dataplane.update_fib_entry(router, prefix, entry, derive=False)
        for lo, hi, registered in reversed(self._acl_ops):
            dataplane.acl_interval_structure(lo, hi, not registered)
        dataplane.restore_actions(self._actions)
        for lo, hi in self._acl_spans:
            dataplane.invalidate_span(lo, hi)

        # Reachability cache: drop everything computed during the fork
        # over the dirty region, then reinstate the pre-fork coverage.
        # A later analysis inside one fork can capture "before" entries
        # keyed by atoms an *earlier* fork analysis created; those keys
        # do not exist in the restored decomposition and would shadow
        # the true base entries, so only entries whose atom is live
        # again are reinstated.  Coverage stays complete: any region a
        # fork-created atom spanned was dirtied by the earlier analysis
        # too, whose (first-recorded, hence kept) entries are base-keyed.
        if self._reach_regions:
            state.reachability.purge_overlapping(self._reach_regions)
        if self._reach_before:
            atom_table = state.dataplane.atom_table
            state.reachability.restore(
                reach
                for atom, reach in self._reach_before.items()
                if atom_table.atom_containing(atom.lo) == atom
            )

    def _ospf_keys(self) -> tuple[set[str], set[tuple[str, str]]]:
        """The OSPF adverts and pair keys whose inputs the restore puts
        back, read before it runs.

        A link whose flag flips back moves the adverts of both ends and
        their pair.  A router whose OSPF inputs go back moves its own
        adverts and, for each interface whose inputs go back, the link
        it is cabled to, disabled or not: the peer's adverts (an
        interface is up only while the far end is administratively up)
        and the pair.  A before-image equal to the fork's value (a
        static route or ACL edit keeps the OSPF inputs) moves nothing.
        """
        snapshot = self.analyzer.snapshot
        topology = snapshot.topology
        routers: set[str] = set()
        pairs: set[tuple[str, str]] = set()
        moved = [
            link
            for link, enabled in self._link_flags.items()
            if topology.link_enabled(link) != enabled
        ]
        for router, saved in self._configs.items():
            before = ospf_inputs(None if saved is _MISSING else saved)
            after = ospf_inputs(snapshot.configs.get(router))
            interfaces = {
                name
                for name in before.keys() | after.keys()
                if before.get(name) != after.get(name)
            }
            if interfaces:
                routers.add(router)
            for interface in interfaces:
                link = topology.link_of_interface(router, interface)
                if link is not None:
                    moved.append(link)
        for link in moved:
            routers.update(link.routers)
            pairs.add(tuple(sorted(link.routers)))
        return routers, pairs
