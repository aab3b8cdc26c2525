"""A static estimate of a batch's BGP blast radius.

:class:`BatchPlanner` counts, before any edit applies, how many BGP
prefixes a batch can dirty.  BGP-surface edits are estimated
precisely; IGP edits estimate zero (their BGP fallout is discovered
by the adj-RIB stage's fingerprint diffs); ``AddBgpNeighbor`` counts
every prefix, since a completed session can attract any of them.

Nothing in the analyzer reads the estimate: every batch runs the one
scoped pipeline in :mod:`repro.core.pipeline`.  The module survives
only because the benchmark's per-layer probe
(``benchmarks/e2e/layers.py``) calls ``analyzer.planner.plan(batch)``;
delete it at the next change to the benchmark.
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
class BatchPlan:
    """One estimate, in prefixes against ``total_prefixes``."""

    estimated_prefixes: int = 0
    total_prefixes: int = 0


class BatchPlanner:
    """Pure, deterministic estimation over the analyzer's converged state."""

    def __init__(self, analyzer: "DifferentialNetworkAnalyzer") -> None:
        self.analyzer = analyzer

    def __repr__(self) -> str:
        return "BatchPlanner()"

    def plan(self, changes: Sequence[Change]) -> BatchPlan:
        """Estimate one batch.  Reads converged state only, so the
        same batch against the same state always estimates the same."""
        total = len(self.analyzer.state.bgp_solutions)
        if total == 0:
            return BatchPlan()
        estimated, certain_full = self._estimate_bgp_scope(changes)
        return BatchPlan(
            estimated_prefixes=total if certain_full else estimated,
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
