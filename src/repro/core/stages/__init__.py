"""The recompute stages behind one contract: ``run(ctx, dirty)``.

:class:`~repro.core.pipeline.RecomputePipeline` runs the stage modules
:mod:`.igp`, :mod:`.bgp`, :mod:`.fib` and :mod:`.reach` in order.
Each is a :class:`Stage`: ``run`` reads the pass's merged
:class:`~repro.core.pipeline.DirtySet`, changes converged state
through the pass context :class:`Pass`, hands its delta to the next
stage on ``ctx`` (RIB delta → FIB writes → dirty header space), and
returns a :class:`StageWork` that the runner, not the stage, emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, cast

from repro.net.addr import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controlplane.rib import Route
    from repro.core.analyzer import DifferentialNetworkAnalyzer
    from repro.core.delta import DeltaReport
    from repro.core.pipeline import DirtySet, Span
    from repro.core.stages.bgp import BgpPair, Fingerprint
    from repro.obs.provenance import ProvenanceRecord
    from repro.obs.trace import LabelValue

RibKey = tuple[str, Prefix]
BestChanged = dict[RibKey, tuple["Route | None", "Route | None"]]


@dataclass
class StageWork:
    """The numbers one stage reports, emitted once by the runner.

    ``labels`` go onto the stage's span and its event-log record.
    ``counters`` are ``report.counters`` entries that count work; each
    is also added to the ``pipeline.<key>`` counter and logged as a
    ``pipeline.<key>`` event metric.  ``gauges`` are
    ``report.counters`` entries that are levels, not work, and set the
    ``pipeline.<key>`` gauge.
    """

    labels: dict[str, LabelValue] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, int] = field(default_factory=dict)


class Pass:
    """One recompute pass: the state every stage reads and writes.

    ``journal`` is None when the pass commits, ``attr`` unless the pass
    records provenance.  ``best_changed`` (the RIB delta, IGP/BGP →
    FIB), ``spans`` (FIB-changed header space, FIB → reachability) and
    ``igp_pairs``/``igp_sessions`` (IGP → BGP: the pre-write images of
    :func:`~repro.core.stages.bgp.pre_image`) are the hand-offs.
    """

    def __init__(
        self,
        analyzer: DifferentialNetworkAnalyzer,
        dirty: DirtySet,
        report: DeltaReport,
    ) -> None:
        self.analyzer = analyzer
        self.state = analyzer.state
        self.journal = analyzer._journal
        self.report = report
        self.attr = (
            Attribution(dirty, report.provenance)
            if report.provenance is not None
            else None
        )
        self.best_changed: BestChanged = {}
        self.spans: list[Span] = []
        self.igp_pairs: dict[BgpPair, tuple[Fingerprint, set[Prefix]]] = {}
        self.igp_sessions: dict[BgpPair, bool] = {}

    def install(
        self,
        router: str,
        protocol: str,
        prefix: Prefix,
        new_route: Route | None,
        causes: set[int] | None = None,
    ) -> None:
        """Install/withdraw one protocol route; track best-route flips.

        ``causes`` (provenance mode) attributes the flip to edit ids.
        """
        if self.journal is not None:
            self.journal.save_rib_prefix(router, prefix)
        rib = self.state.ribs[router]
        old_best = rib.best(prefix)
        if new_route is None:
            rib.withdraw(prefix, protocol)
        else:
            rib.install(new_route)
        new_best = rib.best(prefix)
        if old_best == new_best:
            return
        key = (router, prefix)
        existing = self.best_changed.get(key)
        original = existing[0] if existing is not None else old_best
        if original == new_best:
            self.best_changed.pop(key, None)
        else:
            self.best_changed[key] = (original, new_best)
        self.report.record_rib(router, prefix, old_best, new_best, causes=causes)


class Stage(Protocol):
    """A stage module: its span name, the dirty-set sizes that span
    opens with, and the stage itself."""

    NAME: str
    AXES: tuple[str, ...]

    def run(self, ctx: Pass, dirty: DirtySet) -> StageWork: ...


class Attribution:
    """Pass-scoped cause derivation (provenance mode only).

    Precomputes per-router/per-prefix views of the dirty set's
    origins, accumulates which edits changed IGP state at each router
    (BGP decisions and next-hop resolutions downstream of those
    routers inherit the causes), and answers each stage's "which edit
    ids caused this delta?" queries.  Every lookup falls back to the
    full edit-id set — cause sets are a sound may-have-caused
    over-approximation, never silently empty.
    """

    def __init__(self, dirty: DirtySet, record: ProvenanceRecord) -> None:
        self.dirty = dirty
        self.record = record
        self.spf_ids: dict[str, set[int]] = {}
        self.advert_ids: dict[Prefix, set[int]] = {}
        for (axis, element), ids in dirty.origins.items():
            if axis == "spf_source":
                router = cast("tuple[str, int]", element)[0]
                self.spf_ids.setdefault(router, set()).update(ids)
            elif axis == "advert_prefix":
                prefix = cast("tuple[int, Prefix]", element)[1]
                self.advert_ids.setdefault(prefix, set()).update(ids)
        self.igp_union = dirty.igp_origin_union()
        # router -> edits that changed its IGP routes this pass.
        self.igp_router_causes: dict[str, set[int]] = {}
        # (router, prefix) FIB refreshes forced by next-hop resolution
        # changes (the best route itself held).
        self.resolution_causes: dict[RibKey, set[int]] = {}
        # The record is complete by construction time (stage 1 ran),
        # so the coarsest sound cause set can be frozen once.
        self._fallback = record.all_ids()

    # Cause getters return *borrowed* sets — possibly the attribution
    # maps' own values — to keep the per-delta provenance cost down.
    # Callers union the contents elsewhere and must never mutate them.

    def fallback(self) -> set[int]:
        return self._fallback

    def ospf_cause(self, source: str, prefix: Prefix) -> set[int]:
        """Causes of an OSPF route change at ``source`` for ``prefix``:
        the edits that dirtied the source's SPF tree or the prefix's
        advertisement (multi-area fallback refreshes sources no edit
        dirtied directly — those fall back to the IGP contributors)."""
        spf = self.spf_ids.get(source)
        advert = self.advert_ids.get(prefix)
        if spf and advert:
            return spf | advert
        ids = spf or advert
        if ids:
            return ids
        return self.igp_union or self._fallback

    def local_cause(self, router: str) -> set[int]:
        ids = self.dirty.origins.get(("touched_router", router))
        return ids or self._fallback

    def session_cause(self, local: str, peer: str) -> set[int]:
        """Causes of a BGP session appearing/disappearing: the edits
        that dirtied the directed pair (either orientation), else the
        edits that touched either endpoint router."""
        origins = self.dirty.origins
        forward = origins.get(("bgp_session", (local, peer)))
        reverse = origins.get(("bgp_session", (peer, local)))
        if forward and reverse:
            return forward | reverse
        ids = forward or reverse
        if ids:
            return ids
        touched_local = origins.get(("touched_router", local))
        touched_peer = origins.get(("touched_router", peer))
        if touched_local and touched_peer:
            return touched_local | touched_peer
        ids = touched_local or touched_peer
        return ids or self._fallback

    def note_igp(self, router: str, ids: set[int]) -> None:
        existing = self.igp_router_causes.get(router)
        if existing is None:
            # Copy: the stored set grows across notes, while ``ids``
            # may be a borrowed attribution-map value.
            self.igp_router_causes[router] = set(ids)
        else:
            existing.update(ids)

    def igp_cause_at(self, router: str) -> set[int]:
        """The edits that changed IGP state at ``router`` this pass."""
        ids = self.igp_router_causes.get(router)
        if ids:
            return ids
        return self.igp_union or self._fallback

    def fib_cause(self, router: str, prefix: Prefix) -> set[int]:
        """Causes of a FIB rebuild: the entry's RIB causes when the
        best route moved, else the IGP edits that re-resolved it."""
        ids = self.record.rib_causes.get((router, str(prefix)))
        if ids:
            return ids
        resolved = self.resolution_causes.get((router, prefix))
        if resolved:
            return resolved
        return self.igp_cause_at(router)
