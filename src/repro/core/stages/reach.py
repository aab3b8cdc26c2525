"""The reachability stage: re-derive the atoms under ``ctx.spans`` and
diff them against the cached pre-change behaviour."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.delta import diff_reach_coverage
from repro.core.stages import Pass, StageWork
from repro.net.interval import IntervalSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import DirtySet

NAME = "pipeline.reachability"
AXES: tuple[str, ...] = ("acl_spans",)

def run(ctx: Pass, dirty: DirtySet) -> StageWork:
    """Recompute reachability for the atoms under ``ctx.spans``."""
    atoms = _recompute_reachability(ctx)
    return StageWork(
        labels={"atoms_analyzed": atoms},
        counters={"atoms_analyzed": atoms},
        gauges={"atoms_total": ctx.state.dataplane.atom_table.num_atoms()},
    )


def _recompute_reachability(ctx: Pass) -> int:
    report = ctx.report
    if not ctx.spans:
        report.reach_segments = []
        return 0
    state = ctx.state
    reach = state.reachability
    # Close the dirty region over both sides: new atoms (merges can
    # extend past the change spans) and cached pre-change entries
    # (a purged parent atom can extend past the split sub-atom that
    # overlaps the change).  Without the closure the cache would
    # develop coverage holes and later diffs would silently miss
    # behaviour changes.
    region = IntervalSet(ctx.spans)
    while True:
        dirty_atoms = [
            atom
            for lo, hi in region.pairs
            for atom in state.dataplane.atom_table.atoms_overlapping(lo, hi)
        ]
        before = reach.entries_overlapping(region.pairs)
        widened = region
        for atom in dirty_atoms:
            widened = widened.union(IntervalSet.span(atom.lo, atom.hi))
        for lo, hi, _ in before:
            widened = widened.union(IntervalSet.span(lo, hi))
        if widened == region:
            break
        region = widened
    if ctx.journal is not None:
        ctx.journal.record_reachability(region.pairs, before)
    reach.purge_overlapping(region.pairs)
    unique_atoms = set(dirty_atoms)
    after = [(atom.lo, atom.hi, reach.for_atom(atom)) for atom in unique_atoms]
    report.reach_segments = diff_reach_coverage(before, after)
    return len(unique_atoms)
