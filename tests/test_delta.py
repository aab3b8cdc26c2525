"""Delta report: churn collapsing and reachability canonicalization."""

import random
from bisect import bisect_right

import pytest

from repro.controlplane.rib import NextHop, Route
from repro.core.delta import (
    DeltaReport,
    ReachSegment,
    _segment_between,
    coalesce_segments,
    diff_reach_coverage,
)
from repro.dataplane.atoms import Atom
from repro.dataplane.reachability import AtomReachability
from repro.net.addr import Prefix


def route(metric: int) -> Route:
    return Route(
        prefix=Prefix("10.0.0.0/24"),
        protocol="ospf",
        admin_distance=110,
        metric=metric,
        next_hops=frozenset({NextHop(interface="eth0", neighbor="b")}),
    )


def reach(lo: int, hi: int, pairs: set[tuple[str, str]], loops=(), blackholes=()):
    sources: dict[str, set[str]] = {}
    for src, owner in pairs:
        sources.setdefault(owner, set()).add(src)
    return AtomReachability(
        atom=Atom(lo, hi),
        owners=frozenset(sources),
        sources={owner: frozenset(s) for owner, s in sources.items()},
        loop_routers=frozenset(loops),
        blackhole_routers=frozenset(blackholes),
        mixed_routers=frozenset(),
    )


class TestRecording:
    def test_rib_churn_collapses(self):
        report = DeltaReport()
        prefix = Prefix("10.0.0.0/24")
        report.record_rib("r", prefix, route(1), route(2))
        report.record_rib("r", prefix, route(2), route(1))
        assert report.num_rib_changes() == 0
        assert report.is_empty()

    def test_rib_transitions_compose(self):
        report = DeltaReport()
        prefix = Prefix("10.0.0.0/24")
        report.record_rib("r", prefix, route(1), route(2))
        report.record_rib("r", prefix, route(2), route(3))
        assert report.rib_changes["r"][prefix] == (route(1), route(3))

    def test_fib_none_transitions(self):
        from repro.dataplane.fib import FibEntry

        report = DeltaReport()
        prefix = Prefix("10.0.0.0/24")
        entry = FibEntry(prefix, frozenset({NextHop(interface="eth0")}))
        report.record_fib("r", prefix, None, entry)
        assert report.num_fib_changes() == 1
        report.record_fib("r", prefix, entry, None)
        assert report.num_fib_changes() == 0


class TestReachDiff:
    def test_identical_coverage_empty(self):
        piece = [(0, 100, reach(0, 100, {("a", "b")}))]
        assert diff_reach_coverage(piece, piece) == []

    def test_pair_gain_and_loss(self):
        before = [(0, 100, reach(0, 100, {("a", "b")}))]
        after = [(0, 100, reach(0, 100, {("c", "b")}))]
        (segment,) = diff_reach_coverage(before, after)
        assert segment.added == {("c", "b")}
        assert segment.removed == {("a", "b")}

    def test_different_boundaries_recut(self):
        before = [(0, 100, reach(0, 100, {("a", "b")}))]
        after = [
            (0, 50, reach(0, 50, {("a", "b")})),
            (50, 100, reach(50, 100, set())),
        ]
        (segment,) = diff_reach_coverage(before, after)
        assert (segment.lo, segment.hi) == (50, 100)
        assert segment.removed == {("a", "b")}

    def test_one_sided_regions_skipped(self):
        before = [(0, 50, reach(0, 50, {("a", "b")}))]
        after = [
            (0, 50, reach(0, 50, {("a", "b")})),
            (50, 100, reach(50, 100, {("x", "y")})),
        ]
        assert diff_reach_coverage(before, after) == []

    def test_loops_and_blackholes_tracked(self):
        before = [(0, 10, reach(0, 10, set(), loops={"r1"}))]
        after = [(0, 10, reach(0, 10, set(), blackholes={"r2"}))]
        (segment,) = diff_reach_coverage(before, after)
        assert segment.loops_removed == {"r1"}
        assert segment.blackholes_added == {"r2"}

    def test_coalesce_adjacent_equal(self):
        segments = [
            ReachSegment(0, 10, added=frozenset({("a", "b")})),
            ReachSegment(10, 20, added=frozenset({("a", "b")})),
            ReachSegment(30, 40, added=frozenset({("a", "b")})),
        ]
        merged = coalesce_segments(segments)
        assert [(s.lo, s.hi) for s in merged] == [(0, 20), (30, 40)]

    def test_coalesce_respects_payload(self):
        segments = [
            ReachSegment(0, 10, added=frozenset({("a", "b")})),
            ReachSegment(10, 20, removed=frozenset({("a", "b")})),
        ]
        assert len(coalesce_segments(segments)) == 2


def _reference_diff(before, after):
    """The straightforward coverage diff: every elementary interval
    rebuilds its lookup keys and diffs both sides in full."""
    points = sorted({p for lo, hi, _ in (*before, *after) for p in (lo, hi)})

    def coverage_at(pieces, lo):
        pieces = sorted(pieces, key=lambda p: p[0])
        los = [p[0] for p in pieces]
        index = bisect_right(los, lo) - 1
        if index >= 0 and pieces[index][0] <= lo < pieces[index][1]:
            return pieces[index][2]
        return None

    segments = []
    for lo, hi in zip(points, points[1:]):
        piece_before = coverage_at(before, lo)
        piece_after = coverage_at(after, lo)
        if piece_before is None or piece_after is None:
            continue
        segment = _segment_between(lo, hi, piece_before, piece_after)
        if not segment.is_empty():
            segments.append(segment)
    return coalesce_segments(segments)


def _random_covering(rng: random.Random, span: int, payloads: list):
    """Disjoint pieces over ``[0, span)`` with random gaps and payloads."""
    cuts = sorted(rng.sample(range(1, span), rng.randint(0, 12)))
    pieces = []
    for lo, hi in zip([0, *cuts], [*cuts, span]):
        if rng.random() < 0.15:
            continue  # an uncovered gap
        pieces.append((lo, hi, rng.choice(payloads)))
    rng.shuffle(pieces)  # callers need not sort
    return pieces


@pytest.mark.parametrize("seed", range(40))
def test_coverage_diff_matches_reference_on_random_coverings(seed):
    rng = random.Random(seed)
    routers = "abcd"
    payloads = [
        reach(
            0,
            1,
            {(s, o) for s in routers for o in routers if rng.random() < 0.3},
            loops={r for r in routers if rng.random() < 0.2},
            blackholes={r for r in routers if rng.random() < 0.2},
        )
        for _ in range(5)
    ]
    before = _random_covering(rng, 64, payloads)
    after = _random_covering(rng, 64, payloads)
    expected = _reference_diff(before, after)
    assert expected  # the draws do change behaviour somewhere
    assert diff_reach_coverage(before, after) == expected
    assert diff_reach_coverage(before, before) == []


class TestSignature:
    def test_signatures_equal_for_equal_reports(self):
        a, b = DeltaReport("x"), DeltaReport("y")
        prefix = Prefix("10.0.0.0/24")
        for report in (a, b):
            report.record_rib("r", prefix, None, route(1))
            report.reach_segments = [
                ReachSegment(0, 10, added=frozenset({("a", "b")}))
            ]
        assert a.behavior_signature() == b.behavior_signature()

    def test_summary_renders(self):
        report = DeltaReport("demo")
        report.reach_segments = [ReachSegment(0, 10, added=frozenset({("a", "b")}))]
        text = report.summary()
        assert "demo" in text and "+1/-0" in text
