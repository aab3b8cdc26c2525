"""The delta report: what a change did to the network.

Both analysis paths — the incremental analyzer and the snapshot-diff
baseline — produce a :class:`DeltaReport` with identical semantics, so
tests can require them to agree tuple-for-tuple:

- **RIB delta**: per router, per prefix, (best route before, after).
- **FIB delta**: per router, per prefix, (entry before, after).
- **Reachability delta**: a canonical piecewise description of the
  destination space — sorted, coalesced
  :class:`ReachSegment` values listing the (source, owner) pairs that
  appeared/disappeared, plus loop and blackhole churn.

Reachability canonicalization is what makes the two paths comparable:
they decompose the space into different atoms, so deltas are re-cut at
the union of both boundary sets and merged back greedily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.controlplane.rib import Route
from repro.core import serialize
from repro.dataplane.fib import FibEntry
from repro.dataplane.reachability import AtomReachability
from repro.net.addr import Prefix
from repro.obs.provenance import EditInfo, ProvenanceRecord

Pair = tuple[str, str]  # (source router, owner router)


@dataclass(frozen=True)
class ReachSegment:
    """Behaviour change over one destination interval ``[lo, hi)``."""

    lo: int
    hi: int
    added: frozenset[Pair] = frozenset()
    removed: frozenset[Pair] = frozenset()
    loops_added: frozenset[str] = frozenset()
    loops_removed: frozenset[str] = frozenset()
    blackholes_added: frozenset[str] = frozenset()
    blackholes_removed: frozenset[str] = frozenset()

    def payload(self) -> tuple:
        """Everything except the interval (used for coalescing)."""
        return (
            self.added,
            self.removed,
            self.loops_added,
            self.loops_removed,
            self.blackholes_added,
            self.blackholes_removed,
        )

    def is_empty(self) -> bool:
        return all(not part for part in self.payload())

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready fragment (the enclosing report carries the
        schema version)."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "added": sorted(list(pair) for pair in self.added),
            "removed": sorted(list(pair) for pair in self.removed),
            "loops_added": sorted(self.loops_added),
            "loops_removed": sorted(self.loops_removed),
            "blackholes_added": sorted(self.blackholes_added),
            "blackholes_removed": sorted(self.blackholes_removed),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReachSegment":
        return cls(
            lo=data["lo"],
            hi=data["hi"],
            added=frozenset((src, owner) for src, owner in data["added"]),
            removed=frozenset((src, owner) for src, owner in data["removed"]),
            loops_added=frozenset(data["loops_added"]),
            loops_removed=frozenset(data["loops_removed"]),
            blackholes_added=frozenset(data["blackholes_added"]),
            blackholes_removed=frozenset(data["blackholes_removed"]),
        )

    def __str__(self) -> str:
        parts = [f"[{self.lo}, {self.hi})"]
        if self.added:
            parts.append(f"+{len(self.added)} pairs")
        if self.removed:
            parts.append(f"-{len(self.removed)} pairs")
        if self.loops_added or self.loops_removed:
            parts.append(
                f"loops +{len(self.loops_added)}/-{len(self.loops_removed)}"
            )
        if self.blackholes_added or self.blackholes_removed:
            parts.append(
                f"blackholes +{len(self.blackholes_added)}"
                f"/-{len(self.blackholes_removed)}"
            )
        return " ".join(parts)


def _segment_between(
    lo: int,
    hi: int,
    before: AtomReachability | None,
    after: AtomReachability | None,
) -> ReachSegment:
    """The behaviour delta of one elementary interval."""
    pairs_before = before.pair_set() if before is not None else frozenset()
    pairs_after = after.pair_set() if after is not None else frozenset()
    loops_before = before.loop_routers if before is not None else frozenset()
    loops_after = after.loop_routers if after is not None else frozenset()
    bh_before = before.blackhole_routers if before is not None else frozenset()
    bh_after = after.blackhole_routers if after is not None else frozenset()
    return ReachSegment(
        lo=lo,
        hi=hi,
        added=pairs_after - pairs_before,
        removed=pairs_before - pairs_after,
        loops_added=loops_after - loops_before,
        loops_removed=loops_before - loops_after,
        blackholes_added=bh_after - bh_before,
        blackholes_removed=bh_before - bh_after,
    )


def diff_reach_coverage(
    before: list[tuple[int, int, AtomReachability]],
    after: list[tuple[int, int, AtomReachability]],
) -> list[ReachSegment]:
    """Canonical reachability delta between two piecewise coverings.

    ``before``/``after`` list (lo, hi, reachability) pieces, each
    sorted and internally disjoint but cut at *different* boundaries
    and possibly covering different (equal-union for comparability is
    NOT required — uncovered regions are treated as unchanged)
    regions.  The result is re-cut at the union of boundaries,
    non-empty deltas kept, and adjacent equal-payload segments merged.
    """
    points: set[int] = set()
    for lo, hi, _ in before:
        points.add(lo)
        points.add(hi)
    for lo, hi, _ in after:
        points.add(lo)
        points.add(hi)
    ordered = sorted(points)

    def coverage_at(pieces: list[tuple[int, int, AtomReachability]], lo: int):
        # Pieces are sorted; simple scan with an index would be faster,
        # but bisect keeps this reusable for unsorted callers.
        from bisect import bisect_right

        los = [p[0] for p in pieces]
        index = bisect_right(los, lo) - 1
        if index >= 0:
            p_lo, p_hi, reach = pieces[index]
            if p_lo <= lo < p_hi:
                return reach
        return None

    before_sorted = sorted(before, key=lambda p: p[0])
    after_sorted = sorted(after, key=lambda p: p[0])
    segments: list[ReachSegment] = []
    for index in range(len(ordered) - 1):
        lo, hi = ordered[index], ordered[index + 1]
        piece_before = coverage_at(before_sorted, lo)
        piece_after = coverage_at(after_sorted, lo)
        if piece_before is None and piece_after is None:
            continue
        # A region covered on one side only cannot be diffed honestly;
        # it means the caller scoped the two sides differently.  Treat
        # the missing side as "unchanged" by skipping.
        if piece_before is None or piece_after is None:
            continue
        segment = _segment_between(lo, hi, piece_before, piece_after)
        if not segment.is_empty():
            segments.append(segment)
    return coalesce_segments(segments)


def coalesce_segments(segments: list[ReachSegment]) -> list[ReachSegment]:
    """Merge adjacent segments with identical payloads."""
    merged: list[ReachSegment] = []
    for segment in sorted(segments, key=lambda s: s.lo):
        if (
            merged
            and merged[-1].hi == segment.lo
            and merged[-1].payload() == segment.payload()
        ):
            previous = merged.pop()
            merged.append(
                ReachSegment(
                    lo=previous.lo,
                    hi=segment.hi,
                    added=segment.added,
                    removed=segment.removed,
                    loops_added=segment.loops_added,
                    loops_removed=segment.loops_removed,
                    blackholes_added=segment.blackholes_added,
                    blackholes_removed=segment.blackholes_removed,
                )
            )
        else:
            merged.append(segment)
    return merged


def _cover(
    segments: list[ReachSegment], los: list[int], lo: int
) -> ReachSegment | None:
    """The segment of a sorted disjoint list covering point ``lo``.

    ``los`` is the precomputed ``[s.lo for s in segments]`` key list —
    callers probing many points build it once.
    """
    from bisect import bisect_right

    index = bisect_right(los, lo) - 1
    if index >= 0:
        segment = segments[index]
        if segment.lo <= lo < segment.hi:
            return segment
    return None


def _compose_delta(
    added1: frozenset,
    removed1: frozenset,
    added2: frozenset,
    removed2: frozenset,
) -> tuple[frozenset, frozenset]:
    """Sequential composition of two (added, removed) set deltas.

    Remove-then-re-add and add-then-remove churn cancels: an element
    is net-added iff it ends present having started absent, and
    vice versa.
    """
    net_added = (added1 - removed2) | (added2 - removed1)
    net_removed = (removed1 - added2) | (removed2 - added1)
    return net_added, net_removed


def compose_segment_lists(
    first: list[ReachSegment], second: list[ReachSegment]
) -> list[ReachSegment]:
    """The canonical segments of applying ``first`` then ``second``.

    Both inputs are canonical deltas against successive baselines (the
    second's baseline is the first's post-state).  Segments are re-cut
    at the union of boundaries, composed per elementary interval (a
    region covered by one side only passes through unchanged), empty
    net deltas dropped, and adjacent equal payloads merged — yielding
    exactly what a single diff of base vs final behaviour produces.
    """
    points: set[int] = set()
    for segment in first:
        points.add(segment.lo)
        points.add(segment.hi)
    for segment in second:
        points.add(segment.lo)
        points.add(segment.hi)
    ordered = sorted(points)
    first_sorted = sorted(first, key=lambda s: s.lo)
    second_sorted = sorted(second, key=lambda s: s.lo)
    first_los = [s.lo for s in first_sorted]
    second_los = [s.lo for s in second_sorted]
    empty = ReachSegment(0, 0)
    composed: list[ReachSegment] = []
    for index in range(len(ordered) - 1):
        lo, hi = ordered[index], ordered[index + 1]
        one = _cover(first_sorted, first_los, lo)
        two = _cover(second_sorted, second_los, lo)
        if one is None and two is None:
            continue
        a = one if one is not None else empty
        b = two if two is not None else empty
        added, removed = _compose_delta(a.added, a.removed, b.added, b.removed)
        loops_added, loops_removed = _compose_delta(
            a.loops_added, a.loops_removed, b.loops_added, b.loops_removed
        )
        blackholes_added, blackholes_removed = _compose_delta(
            a.blackholes_added,
            a.blackholes_removed,
            b.blackholes_added,
            b.blackholes_removed,
        )
        segment = ReachSegment(
            lo=lo,
            hi=hi,
            added=frozenset(added),
            removed=frozenset(removed),
            loops_added=frozenset(loops_added),
            loops_removed=frozenset(loops_removed),
            blackholes_added=frozenset(blackholes_added),
            blackholes_removed=frozenset(blackholes_removed),
        )
        if not segment.is_empty():
            composed.append(segment)
    return coalesce_segments(composed)


def compose_reports(
    reports: list["DeltaReport"], label: str = ""
) -> "DeltaReport":
    """The single report equivalent to applying ``reports`` in order.

    The correctness oracle for ``analyze_batch``: a batch of N changes
    analyzed in one merged recompute pass must equal the composition
    of N sequential ``analyze`` reports.  RIB/FIB transitions chain
    through the same churn-collapsing recorders the analyzer uses
    (A->B->A vanishes); reachability segments compose by sequential
    set-delta algebra.  Timings and additive counters are summed —
    they describe the work done, not the behaviour delta, and are
    excluded from equivalence comparisons.

    Provenance composes too (when every input carries it): the edit
    tables concatenate — re-numbering each report's dense edit ids by
    the running offset, exactly the ids a single batched analysis
    would have assigned — and cause sets union through the same
    churn-collapsing recorders, so composed attribution is
    byte-comparable with batched attribution.
    """
    composed = DeltaReport(label)
    with_provenance = bool(reports) and all(
        report.provenance is not None for report in reports
    )
    if with_provenance:
        composed.provenance = ProvenanceRecord(label)
    for report in reports:
        offset = 0
        record = report.provenance
        if with_provenance and composed.provenance is not None:
            assert record is not None
            offset = composed.provenance.absorb_edits(record)
        for router, per_router in report.rib_changes.items():
            for prefix, (before, after) in per_router.items():
                causes = None
                if with_provenance and record is not None:
                    causes = {
                        edit_id + offset
                        for edit_id in record.rib_causes.get(
                            (router, str(prefix)), set()
                        )
                    } or None
                composed.record_rib(router, prefix, before, after, causes)
        for router, per_router in report.fib_changes.items():
            for prefix, (before, after) in per_router.items():
                causes = None
                if with_provenance and record is not None:
                    causes = {
                        edit_id + offset
                        for edit_id in record.fib_causes.get(
                            (router, str(prefix)), set()
                        )
                    } or None
                composed.record_fib(router, prefix, before, after, causes)
        if with_provenance and composed.provenance is not None:
            assert record is not None
            for (lo, hi), ids in record.acl_causes.items():
                composed.provenance.record_acl_span(
                    lo, hi, {edit_id + offset for edit_id in ids}
                )
        composed.reach_segments = compose_segment_lists(
            composed.reach_segments, report.reach_segments
        )
        for key, value in report.timings.items():
            composed.timings[key] = composed.timings.get(key, 0.0) + value
        for key, value in report.counters.items():
            if key == "atoms_total":
                composed.counters[key] = value
            else:
                composed.counters[key] = composed.counters.get(key, 0) + value
    return composed


class DeltaReport:
    """Everything one change did, plus how long it took to find out."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.rib_changes: dict[str, dict[Prefix, tuple[Route | None, Route | None]]] = {}
        self.fib_changes: dict[str, dict[Prefix, tuple[FibEntry | None, FibEntry | None]]] = {}
        self.reach_segments: list[ReachSegment] = []
        self.timings: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        # Edit->delta attribution; populated only when the producing
        # analysis ran with ``provenance=True``.
        self.provenance: ProvenanceRecord | None = None

    # -- recording (collapses transient flips) -------------------------------

    def record_rib(
        self,
        router: str,
        prefix: Prefix,
        before: Route | None,
        after: Route | None,
        causes: set[int] | None = None,
    ) -> None:
        """Note a best-route transition, collapsing A->B->A churn.

        ``causes`` (provenance mode) unions edit ids into the entry's
        cause set; a net-cancelled entry drops its causes in lockstep.
        """
        per_router = self.rib_changes.setdefault(router, {})
        existing = per_router.get(prefix)
        original = existing[0] if existing is not None else before
        if original == after:
            per_router.pop(prefix, None)
            if not per_router:
                del self.rib_changes[router]
            if self.provenance is not None:
                self.provenance.drop_rib(router, str(prefix))
        else:
            per_router[prefix] = (original, after)
            if self.provenance is not None and causes is not None:
                self.provenance.record_rib(router, str(prefix), causes)

    def record_fib(
        self,
        router: str,
        prefix: Prefix,
        before: FibEntry | None,
        after: FibEntry | None,
        causes: set[int] | None = None,
    ) -> None:
        """Note a FIB transition, collapsing A->B->A churn."""
        per_router = self.fib_changes.setdefault(router, {})
        existing = per_router.get(prefix)
        original = existing[0] if existing is not None else before
        if original == after:
            per_router.pop(prefix, None)
            if not per_router:
                del self.fib_changes[router]
            if self.provenance is not None:
                self.provenance.drop_fib(router, str(prefix))
        else:
            per_router[prefix] = (original, after)
            if self.provenance is not None and causes is not None:
                self.provenance.record_fib(
                    router, str(prefix), prefix.interval(), causes
                )

    # -- attribution queries ------------------------------------------------

    def why(self, entry: Any) -> list[EditInfo]:
        """The edits that (may have) caused ``entry``, in id order.

        ``entry`` is one of:

        - a ``(router, prefix)`` pair — FIB/RIB change attribution;
        - a :class:`ReachSegment` — causes over its interval;
        - anything with ``segment_lo``/``segment_hi`` attributes (a
          :class:`~repro.core.invariants.Violation`) — likewise.

        Raises ``ValueError`` if this report was produced without
        ``provenance=True``.
        """
        record = self.provenance
        if record is None:
            raise ValueError(
                "this report carries no provenance; re-run the analysis "
                "with provenance=True"
            )
        if isinstance(entry, ReachSegment):
            ids = record.causes_over(entry.lo, entry.hi)
        elif hasattr(entry, "segment_lo") and hasattr(entry, "segment_hi"):
            ids = record.causes_over(entry.segment_lo, entry.segment_hi)
        elif isinstance(entry, tuple) and len(entry) == 2:
            router, prefix = entry
            ids = record.entry_causes(router, str(prefix))
        else:
            raise TypeError(
                f"cannot attribute {entry!r}: expected a (router, prefix) "
                "pair, a ReachSegment, or a Violation"
            )
        return [record.edit(edit_id) for edit_id in sorted(ids)]

    def attribute(self, edit_id: int) -> dict[str, Any]:
        """Everything edit ``edit_id`` (may have) caused in this report.

        Returns a JSON-ready dict: the edit's info plus the RIB/FIB
        entries, ACL spans, and reachability segments carrying its id.
        """
        record = self.provenance
        if record is None:
            raise ValueError(
                "this report carries no provenance; re-run the analysis "
                "with provenance=True"
            )
        result = record.attribution(edit_id)
        result["segments"] = [
            [segment.lo, segment.hi]
            for segment in self.reach_segments
            if edit_id in record.causes_over(segment.lo, segment.hi)
        ]
        return result

    # -- summaries ---------------------------------------------------------------

    def num_rib_changes(self) -> int:
        return sum(len(v) for v in self.rib_changes.values())

    def num_fib_changes(self) -> int:
        return sum(len(v) for v in self.fib_changes.values())

    def num_pair_changes(self) -> tuple[int, int]:
        """(pairs gained, pairs lost), interval-weighted not counted."""
        gained = sum(len(s.added) for s in self.reach_segments)
        lost = sum(len(s.removed) for s in self.reach_segments)
        return gained, lost

    def is_empty(self) -> bool:
        """True if the change had no observable effect."""
        return (
            not self.num_rib_changes()
            and not self.num_fib_changes()
            and not self.reach_segments
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document (see :mod:`repro.core.serialize`)."""

        def encode_changes(changes: dict, encode) -> dict[str, dict[str, list]]:
            return {
                router: {
                    str(prefix): [encode(before), encode(after)]
                    for prefix, (before, after) in sorted(
                        per_router.items(), key=lambda kv: kv[0]
                    )
                }
                for router, per_router in sorted(changes.items())
            }

        payload = {
            "label": self.label,
            "rib_changes": encode_changes(
                self.rib_changes, serialize.encode_route
            ),
            "fib_changes": encode_changes(
                self.fib_changes, serialize.encode_fib_entry
            ),
            "reach_segments": [s.to_dict() for s in self.reach_segments],
            "timings": dict(self.timings),
            "counters": dict(self.counters),
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance.to_dict(
                self.reach_segments
            )
        return serialize.document("delta-report", payload)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeltaReport":
        """Rebuild a report; raises SchemaError on unknown versions."""
        serialize.check_document(data, "delta-report")
        report = cls(data["label"])
        for router, per_router in data["rib_changes"].items():
            report.rib_changes[router] = {
                Prefix(prefix): (
                    serialize.decode_route(before),
                    serialize.decode_route(after),
                )
                for prefix, (before, after) in per_router.items()
            }
        for router, per_router in data["fib_changes"].items():
            report.fib_changes[router] = {
                Prefix(prefix): (
                    serialize.decode_fib_entry(before),
                    serialize.decode_fib_entry(after),
                )
                for prefix, (before, after) in per_router.items()
            }
        report.reach_segments = [
            ReachSegment.from_dict(segment)
            for segment in data["reach_segments"]
        ]
        report.timings = dict(data["timings"])
        report.counters = dict(data["counters"])
        if "provenance" in data:
            report.provenance = ProvenanceRecord.from_dict(data["provenance"])
        return report

    # -- comparison between analysis paths ---------------------------------------

    def behavior_signature(self) -> tuple:
        """A hashable summary two correct analyses must agree on.

        Covers FIB deltas and canonical reachability segments; RIB
        deltas are included too since both paths build the same Route
        values.
        """
        fib = tuple(
            (router, prefix, changes[0], changes[1])
            for router in sorted(self.fib_changes)
            for prefix, changes in sorted(
                self.fib_changes[router].items(), key=lambda kv: kv[0]
            )
        )
        rib = tuple(
            (router, prefix, changes[0], changes[1])
            for router in sorted(self.rib_changes)
            for prefix, changes in sorted(
                self.rib_changes[router].items(), key=lambda kv: kv[0]
            )
        )
        reach = tuple(
            (s.lo, s.hi) + tuple(map(tuple, map(sorted, s.payload())))
            for s in self.reach_segments
        )
        return (rib, fib, reach)

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        gained, lost = self.num_pair_changes()
        lines = [
            f"DeltaReport({self.label or 'unlabelled'}):",
            f"  RIB changes: {self.num_rib_changes()} "
            f"across {len(self.rib_changes)} routers",
            f"  FIB changes: {self.num_fib_changes()} "
            f"across {len(self.fib_changes)} routers",
            f"  reachability: {len(self.reach_segments)} segments, "
            f"+{gained}/-{lost} (src, dst-owner) pairs",
        ]
        for segment in self.reach_segments[:10]:
            lines.append(f"    {segment}")
        if len(self.reach_segments) > 10:
            lines.append(f"    ... {len(self.reach_segments) - 10} more")
        if self.timings:
            timing = ", ".join(f"{k}={v * 1000:.2f}ms" for k, v in self.timings.items())
            lines.append(f"  timings: {timing}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()

    def __repr__(self) -> str:
        gained, lost = self.num_pair_changes()
        return (
            f"DeltaReport({self.label!r}: {self.num_rib_changes()} RIB, "
            f"{self.num_fib_changes()} FIB, {len(self.reach_segments)} "
            f"segments, +{gained}/-{lost} pairs)"
        )
