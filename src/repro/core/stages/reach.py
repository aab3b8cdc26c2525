"""The reachability stage: move the atoms under ``ctx.spans`` to their
new actions and diff them against the cached pre-change behaviour."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.delta import diff_reach_coverage
from repro.core.stages import Pass, StageWork
from repro.dataplane.atoms import Atom
from repro.dataplane.reachability import (
    AtomReachability,
    compute_atom_reachability,
    update_atom_reachability,
)
from repro.net.interval import IntervalSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import DirtySet

NAME = "pipeline.reachability"
AXES: tuple[str, ...] = ()

def run(ctx: Pass, dirty: DirtySet) -> StageWork:
    """Update reachability for the atoms under ``ctx.spans``."""
    atoms, rebuilt = _recompute_reachability(ctx)
    changed = len(ctx.actions.changed)
    return StageWork(
        labels={
            "atoms_analyzed": atoms,
            "actions_changed": changed,
            "atoms_rebuilt": rebuilt,
        },
        counters={
            "atoms_analyzed": atoms,
            "reach_actions_changed": changed,
            "reach_atoms_rebuilt": rebuilt,
        },
        gauges={"atoms_total": ctx.state.dataplane.atom_table.num_atoms()},
    )


def _recompute_reachability(ctx: Pass) -> tuple[int, int]:
    """(atoms analysed, atoms rebuilt from scratch)."""
    report = ctx.report
    if not ctx.spans:
        report.reach_segments = []
        return 0, 0
    state = ctx.state
    dataplane = state.dataplane
    atom_table = dataplane.atom_table
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
            for atom in atom_table.atoms_overlapping(lo, hi)
        ]
        before = reach.entries_overlapping(region.pairs)
        widened = IntervalSet(
            [
                *region.pairs,
                *((atom.lo, atom.hi) for atom in dirty_atoms),
                *((lo, hi) for lo, hi, _ in before),
            ]
        )
        if widened == region:
            break
        region = widened
    if ctx.journal is not None:
        ctx.journal.record_reachability(region.pairs, before)
    reach.purge_overlapping(region.pairs)

    # Routers whose action moved, per live atom: a delta keyed by an
    # atom a later write split or merged applies to every live atom
    # overlapping it.
    by_key: dict[Atom, set[str]] = {}
    for router, key in ctx.actions.changed:
        by_key.setdefault(key, set()).add(router)
    changed: dict[Atom, set[str]] = {}
    for key, routers in by_key.items():
        for atom in atom_table.atoms_overlapping(key.lo, key.hi):
            changed.setdefault(atom, set()).update(routers)
    invalidated = ctx.actions.invalidated

    before_los = [lo for lo, _hi, _ in before]
    after: list[tuple[int, int, AtomReachability]] = []
    rebuilt = 0
    for atom in sorted(set(dirty_atoms)):
        result = None
        index = bisect_right(before_los, atom.lo) - 1
        base = before[index][2] if index >= 0 else None
        if (
            base is not None
            and atom.hi <= base.atom.hi
            and not any(lo < atom.hi and atom.lo < hi for lo, hi in invalidated)
        ):
            routers = changed.get(atom)
            if routers:
                result = update_atom_reachability(dataplane, atom, base, routers)
            else:  # unchanged, or a split sub-atom of an unchanged parent
                result = base if base.atom == atom else replace(base, atom=atom)
        if result is None:  # a merged atom, an ACL span, a loop, a new owner
            result = compute_atom_reachability(dataplane, atom)
            rebuilt += 1
        after.append((atom.lo, atom.hi, result))
    reach.restore(result for _lo, _hi, result in after)
    report.reach_segments = diff_reach_coverage(before, after)
    return len(after), rebuilt
