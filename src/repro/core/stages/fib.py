"""The FIB stage: rebuild the entries in ``ctx.best_changed`` whose
best route or resolution moved, and collect the dirty header space and
the (router, atom) actions the writes changed."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.simulation import build_fib_entry
from repro.core.stages import Pass, StageWork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import DirtySet

NAME = "pipeline.fib"
AXES: tuple[str, ...] = ("acl_spans",)

def run(ctx: Pass, dirty: DirtySet) -> StageWork:
    """Write the changed FIB entries; collect the dirty header space
    and the action delta."""
    state = ctx.state
    attr = ctx.attr
    report = ctx.report
    for (router, prefix), (_old_best, _new_best) in ctx.best_changed.items():
        best = state.ribs[router].best(prefix)
        new_entry = None
        if best is not None:
            new_entry = build_fib_entry(
                state.igp, state.address_index, router, best
            )
        fib = state.fibs.get(router)
        old_entry = fib.entry_for(prefix) if fib is not None else None
        if old_entry == new_entry:
            continue
        causes = attr.fib_cause(router, prefix) if attr is not None else None
        report.record_fib(router, prefix, old_entry, new_entry, causes=causes)
        if ctx.journal is not None:
            ctx.journal.save_fib_entry(router, prefix, old_entry)
        delta = state.dataplane.update_fib_entry(router, prefix, new_entry)
        if ctx.journal is not None:
            ctx.journal.record_actions(delta)
        ctx.actions.merge(delta)
        ctx.spans.append(prefix.interval())
    ctx.spans.extend(dirty.acl_spans)
    ctx.actions.invalidated.extend(dirty.acl_spans)
    if attr is not None:
        # Invalidated header-space spans carry their origins onto the
        # provenance record — reachability segments overlapping them
        # inherit these causes.
        for lo, hi in dirty.acl_spans:
            attr.record.record_acl_span(
                lo, hi, dirty.origin("acl_span", (lo, hi)) or attr.fallback()
            )
    updated = report.num_fib_changes()
    return StageWork(
        labels={"entries_updated": updated},
        counters={"fib_entries_updated": updated},
    )
