"""BGP as an explicit pipeline: sessions, adj-RIB, policy, best path.

Historically one 400-line module, now a package of stage modules
mirroring the PR-5 analyzer architecture — each stage owns one
DirtySet axis (``bgp_sessions``, ``bgp_adj_rib``, ``bgp_policy``,
``bgp_prefixes``) and is consumed by a dedicated sub-stage of
:mod:`repro.core.stages.bgp`:

- :mod:`~repro.controlplane.bgp.sessions` — directed session
  discovery (full and pair-scoped), canonical ordering;
- :mod:`~repro.controlplane.bgp.adjrib` — per-session export/import
  evaluation;
- :mod:`~repro.controlplane.bgp.policy` — route-map application and
  the policy-to-session scoping index;
- :mod:`~repro.controlplane.bgp.decision` — the standard decision
  process;
- :mod:`~repro.controlplane.bgp.solver` — the per-pass worklist
  fixpoint driver over stages 2–4, plus origination collection.

This module re-exports the stages' public surface.
"""

from repro.controlplane.bgp.adjrib import export_route, import_route
from repro.controlplane.bgp.decision import best_path
from repro.controlplane.bgp.policy import apply_policy, neighbors_using_map
from repro.controlplane.bgp.sessions import (
    SessionPair,
    discover_sessions,
    discover_sessions_for,
    pairs_involving,
    session_scan_size,
)
from repro.controlplane.bgp.solver import BgpSolver, collect_origins
from repro.controlplane.bgp.types import (
    INFINITY,
    LOCAL_KEY,
    BgpCandidate,
    BgpConvergenceError,
    BgpPrefixSolution,
    BgpSession,
    IgpView,
)

__all__ = [
    "INFINITY",
    "LOCAL_KEY",
    "BgpCandidate",
    "BgpConvergenceError",
    "BgpPrefixSolution",
    "BgpSession",
    "BgpSolver",
    "IgpView",
    "SessionPair",
    "apply_policy",
    "best_path",
    "collect_origins",
    "discover_sessions",
    "discover_sessions_for",
    "export_route",
    "import_route",
    "neighbors_using_map",
    "pairs_involving",
    "session_scan_size",
]
