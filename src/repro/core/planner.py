"""The batch planner: scoped recompute vs. full resimulation.

Scoped recomputation wins when a batch dirties a small fraction of
the BGP solution space, but it is not free: the epoch capture
(per-pair IGP fingerprints, multihop liveness pre-images) and the
per-axis scoping scans are overhead a full re-solve never pays.  Past
a crossover fraction — measured in EXPERIMENTS.md — re-solving every
prefix outright is cheaper than carefully working out that almost
every prefix is dirty.

:class:`BatchPlanner` makes that call *before* any edit applies:

- **scoped** (the default) — run the normal differential pipeline;
- **full** — the batch's statically estimated BGP blast radius
  exceeds ``full_scope_ratio`` of the current solution space: skip
  the epoch pre-images, mark everything dirty, re-solve every prefix
  and re-check every BGP FIB entry.  Chosen only with provenance off
  (edit-level attribution needs the scoped cause bookkeeping), which
  makes the planner provenance-sound by construction.

Both modes produce byte-identical reports (modulo work
counters): full mode relies on recompute idempotence — re-solving a
clean prefix reproduces its solution exactly, and the FIB stage drops
no-op entries.

The estimate is *static* (pre-application) and deliberately one-sided:
BGP-surface edits are estimated precisely; IGP edits estimate zero
(their BGP fallout is discovered by the adj-RIB stage's fingerprint
diffs), keeping full mode off the common what-if paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.controlplane.bgp import neighbors_using_map
from repro.core.change import (
    AddBgpNeighbor,
    AddRouteMapClause,
    AnnouncePrefix,
    Change,
    Edit,
    RemoveBgpNeighbor,
    RemoveRouteMapClause,
    SetLocalPref,
    WithdrawPrefix,
)
from repro.net.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import DifferentialNetworkAnalyzer


@dataclass(frozen=True)
class PlannerConfig:
    """Tuning knobs for :class:`BatchPlanner`.

    ``full_scope_ratio`` is the measured batch-vs-resimulate
    crossover: when the estimated dirty fraction of the BGP solution
    space reaches it, a full re-solve is cheaper than scoping.  The
    default 0.9 comes from the EXPERIMENTS.md sweep — scoped still
    wins by ~25% at 0.8, the two are within noise near 0.9, and full
    wins past that.  Values above 1.0 disable full mode; 0.0 forces
    it.  ``scope_sessions=False`` forces the session stage back onto full
    rescans — the comparison baseline for the scoped discovery path
    (benchmarks and oracle tests use it).
    """

    full_scope_ratio: float = 0.9
    scope_sessions: bool = True


@dataclass(frozen=True)
class BatchPlan:
    """One planning decision, recorded before any edit applies.

    Estimates are in prefixes against ``total_prefixes``.
    """

    mode: str  # "scoped" | "full"
    reason: str
    estimated_prefixes: int = 0
    total_prefixes: int = 0


class BatchPlanner:
    """Pure, deterministic planning over the analyzer's converged state."""

    def __init__(
        self,
        analyzer: "DifferentialNetworkAnalyzer",
        config: PlannerConfig,
    ) -> None:
        self.analyzer = analyzer
        self.config = config

    def __repr__(self) -> str:
        return f"BatchPlanner({self.config!r})"

    def plan(
        self, changes: Sequence[Change], provenance: bool = False
    ) -> BatchPlan:
        """Decide how to run one batch.  Reads converged state only —
        no edit has applied yet — so the same batch against the same
        state always plans the same way."""
        total = len(self.analyzer.state.bgp_solutions)
        if total == 0:
            return BatchPlan(
                mode="scoped", reason="no BGP solutions", total_prefixes=0
            )
        if provenance:
            # Full mode collapses per-edit causes into one blanket set,
            # which would diverge from the sequential composition —
            # attribution always takes the scoped path.
            return BatchPlan(
                mode="scoped",
                reason="provenance requires scoped attribution",
                total_prefixes=total,
            )
        estimated, certain_full = self._estimate_bgp_scope(changes)
        if certain_full:
            estimated = total
        ratio = estimated / total
        if ratio >= self.config.full_scope_ratio:
            return BatchPlan(
                mode="full",
                reason=(
                    f"estimated {estimated}/{total} dirty prefixes >= "
                    f"crossover {self.config.full_scope_ratio:.2f}"
                ),
                estimated_prefixes=estimated,
                total_prefixes=total,
            )
        return BatchPlan(
            mode="scoped",
            reason=f"estimated {estimated}/{total} dirty prefixes",
            estimated_prefixes=estimated,
            total_prefixes=total,
        )

    # ------------------------------------------------------------------
    # Static scope estimation
    # ------------------------------------------------------------------

    def _estimate_bgp_scope(
        self, changes: Sequence[Change]
    ) -> tuple[int, bool]:
        """(estimated dirty BGP prefixes, certain-full?).

        A static upper bound for BGP-surface edits; IGP edits
        deliberately estimate zero (their fallout is discovered
        dynamically).  ``AddBgpNeighbor`` is certain-full: a completed
        session can attract any prefix.
        """
        prefixes: set[Prefix] = set()
        for change in changes:
            for edit in change.edits:
                if isinstance(edit, AddBgpNeighbor):
                    return 0, True
                prefixes |= self._edit_scope(edit)
        return len(prefixes), False

    def _edit_scope(self, edit: Edit) -> set[Prefix]:
        state = self.analyzer.state
        if isinstance(edit, (AnnouncePrefix, WithdrawPrefix)):
            return {edit.prefix}
        if isinstance(edit, RemoveBgpNeighbor):
            owner = state.address_index.owner(edit.peer_ip)
            if owner is None or owner.router == edit.router:
                return set()
            pairs = {
                (edit.router, owner.router),
                (owner.router, edit.router),
            }
            return self._prefixes_over_pairs(pairs)
        if isinstance(edit, SetLocalPref):
            config = self.analyzer.snapshot.configs.get(edit.router)
            if config is None:
                return set()
            bound_pairs: set[tuple[str, str]] = set()
            for peer_ip, direction in neighbors_using_map(
                config, edit.route_map
            ):
                owner = state.address_index.owner(peer_ip)
                if owner is None or owner.router == edit.router:
                    continue
                if direction == "import":
                    bound_pairs.add((edit.router, owner.router))
                else:
                    bound_pairs.add((owner.router, edit.router))
            return self._prefixes_over_pairs(bound_pairs)
        if isinstance(edit, (AddRouteMapClause, RemoveRouteMapClause)):
            return self._prefixes_through_router(edit.router)
        return set()

    def _prefixes_over_pairs(
        self, pairs: set[tuple[str, str]]
    ) -> set[Prefix]:
        """Prefixes with an adj-RIB entry on any of the (receiver,
        sender) ``pairs`` — either orientation is checked by callers
        passing both."""
        if not pairs:
            return set()
        hit: set[Prefix] = set()
        for prefix, solution in self.analyzer.state.bgp_solutions.items():
            if pairs & set(solution.adj_in):
                hit.add(prefix)
        return hit

    def _prefixes_through_router(self, router: str) -> set[Prefix]:
        """Prefixes flowing through — or originated by — ``router``."""
        hit: set[Prefix] = set()
        for prefix, solution in self.analyzer.state.bgp_solutions.items():
            for receiver, sender in solution.adj_in:
                if router in (receiver, sender):
                    hit.add(prefix)
                    break
        for prefix, owners in self.analyzer._origins.items():
            if router in owners:
                hit.add(prefix)
        return hit
