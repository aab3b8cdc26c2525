"""Forkable analyzer state: the undo journal behind ``what_if``.

The incremental analyzer *commits* by design — every ``analyze``
advances its snapshot and converged state.  Batch what-if workloads
(the campaign engine) instead need many independent evaluations
against one base state.  :class:`UndoJournal` makes that cheap: while
a fork is active, every mutation site in the analyzer records the
*first* before-image of whatever it is about to touch, at the
granularity it is touched —

- snapshot: per-router config clones and per-link enabled flags;
- OSPF: one copy-on-first-touch checkpoint of the incremental SPF
  state (graphs, settled trees, advertisements), taken only when an
  edit actually reaches OSPF;
- RIBs: the per-prefix protocol map of each (router, prefix) written;
- per-router caches: OSPF/connected/static route maps, saved by
  reference or copy;
- IGP adapter: the old route per (router, prefix) written — rollback
  replays ``set_route`` with it;
- BGP: sessions list, per-prefix solutions, origin map;
- FIBs: the old entry per (router, prefix) — rollback replays the
  inverse ``update_fib_entry``, which also restores the refcounted
  atom decomposition exactly;
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

from repro.controlplane.rib import Route
from repro.dataplane.fib import FibEntry
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
        self._ospf_checkpoint = None  # OspfState copy, on first OSPF touch
        self._backbone = _UNSET  # (adverts, totals) refs
        self._ospf_routes: dict[str, object] = {}  # source -> copy | _MISSING
        self._route_caches: dict[tuple[str, str], object] = {}
        self._rib: dict[tuple[str, Prefix], dict | None] = {}
        self._igp: dict[tuple[str, Prefix], Route | None] = {}
        self._sessions = _UNSET
        self._origins = _UNSET
        self._solutions: dict[Prefix, object] = {}  # prefix -> old | _MISSING
        self._fib: dict[tuple[str, Prefix], FibEntry | None] = {}
        self._acl_ops: list[tuple[int, int, bool]] = []
        self._acl_spans: list[tuple[int, int]] = []
        self._reach_regions: list[tuple[int, int]] = []
        self._reach_before: dict = {}  # Atom -> AtomReachability

    # ------------------------------------------------------------------
    # Recording (all first-touch-wins)
    # ------------------------------------------------------------------

    def before_edit(self, edit: "Edit") -> None:
        """Capture whatever applying ``edit`` may overwrite."""
        from repro.core.change import LinkDown, LinkUp, OSPF_TOUCHING_EDITS

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
        if isinstance(edit, OSPF_TOUCHING_EDITS) and self._ospf_checkpoint is None:
            self._ospf_checkpoint = self.analyzer.state.ospf_state.clone()

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

    def record_acl_structure(self, lo: int, hi: int, register: bool) -> None:
        self._acl_ops.append((lo, hi, register))

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
            ospf_checkpoint=self._ospf_checkpoint is not None,
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
        if self._ospf_checkpoint is not None:
            state.ospf_state = self._ospf_checkpoint

        # Snapshot: configs wholesale, link flags individually.
        for router, saved_config in self._configs.items():
            if saved_config is _MISSING:
                snapshot.configs.pop(router, None)
            else:
                snapshot.configs[router] = saved_config
        for link, enabled in self._link_flags.items():
            snapshot.topology.set_link_enabled(link, enabled)

        # Data plane: inverse FIB writes restore tries, the refcounted
        # atom decomposition, and invalidate the touched action caches;
        # ACL registrations replay inverted in reverse order.
        for (router, prefix), entry in self._fib.items():
            state.dataplane.update_fib_entry(router, prefix, entry)
        for lo, hi, registered in reversed(self._acl_ops):
            state.dataplane.acl_interval_structure(lo, hi, not registered)
        for lo, hi in self._acl_spans:
            state.dataplane.invalidate_span(lo, hi)

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
