"""The differential network analyzer (the paper's contribution).

:class:`DifferentialNetworkAnalyzer` keeps one *converged* network
state and, for each change, computes exactly what that change did —
without re-simulating the network.  It is the orchestrator of an
explicit three-stage pipeline:

1. **Extraction** (:mod:`repro.core.handlers`) — each primitive edit
   is dispatched through the change-handler registry, which applies it
   and folds dirty markers (affected SPF sources, changed
   advertisement prefixes, dirty BGP prefixes, ACL spans, touched
   routers) into a :class:`~repro.core.pipeline.DirtySet`.
2. **Scoped recomputation** (:mod:`repro.core.pipeline`) — OSPF routes
   are recomputed only for affected sources (and only for changed
   prefixes elsewhere); BGP is re-solved per dirty prefix; FIB entries
   are rebuilt only for (router, prefix) pairs whose best route or
   next-hop resolution changed.
3. **Differential data plane** (:mod:`repro.core.pipeline`) — FIB
   deltas update the atom table in place; reachability is recomputed
   only for dirty atoms, and the report's canonical reachability
   segments come from diffing the cached pre-change behaviour against
   the recomputed one.

``analyze`` *commits*: the analyzer's snapshot and state advance to
the post-change network.  ``analyze_batch`` applies a whole sequence
of changes to control-plane state first, **unions** their dirty sets,
and runs stages 2–3 exactly once — a batch of N edits converges in one
recompute pass instead of N, with output equal to the sequential
composition (the equivalence is enforced by tests against
:class:`~repro.core.snapshot_diff.SnapshotDiff` and
:func:`~repro.core.delta.compose_reports`).

``what_if`` / ``what_if_batch`` and the ``fork()`` context manager
instead evaluate changes against an undo journal
(:mod:`repro.core.forking`) and roll the state back, so many
independent candidate changes can be scored against one converged
base — the campaign engine (:mod:`repro.campaign`) is built on this.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro.controlplane.bgp import collect_origins
from repro.controlplane.incremental import OspfIncremental
from repro.controlplane.simulation import simulate
from repro.core.change import Change, Edit
from repro.core.delta import DeltaReport
from repro.core.forking import ForkError, UndoJournal
from repro.core.handlers import handler_for
from repro.core.pipeline import DirtySet, RecomputePipeline
from repro.core.planner import BatchPlanner
from repro.core.snapshot import Snapshot
from repro.obs import NULL_TRACER, EventLog, MetricsRegistry, Tracer
from repro.obs.provenance import ProvenanceRecord


def batch_label(changes: Sequence[Change]) -> str:
    """The default report label for a batch of changes."""
    if len(changes) == 1:
        return changes[0].label or "differential"
    labels = [change.label for change in changes if change.label]
    if labels and len(labels) == len(changes):
        return " + ".join(labels)
    return f"batch({len(changes)} changes)"


class DifferentialNetworkAnalyzer:
    """Incremental change-impact analysis over one live network."""

    def __init__(
        self,
        snapshot: Snapshot,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.snapshot = snapshot
        # Observability is opt-in: the default NULL_TRACER reads no
        # clock and records nothing; the metrics registry accumulates
        # deterministic work counts either way.
        # The event log (when attached) receives span/metric/provenance
        # records only for provenance-enabled passes.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events
        with self.tracer.span("analyze.converge"):
            self.state = simulate(snapshot, precompute_reachability=True)
        self._ospf = OspfIncremental(self.state)
        self._origins = collect_origins(snapshot)
        self._journal: UndoJournal | None = None
        self._pipeline = RecomputePipeline(self)
        # A static BGP scope estimate; nothing here reads it (see
        # repro.core.planner for why it survives).
        self.planner = BatchPlanner(self)
        # Bumped on every *committed* analysis; callers caching derived
        # artifacts (e.g. the campaign runner's pickled base payload)
        # use it to detect that the converged state moved.
        self.generation = 0

    def __repr__(self) -> str:
        mode = "forked" if self._journal is not None else "committed"
        return (
            f"DifferentialNetworkAnalyzer({self.snapshot.summary()}; "
            f"generation {self.generation}, {mode})"
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def analyze(
        self, change: Change, provenance: bool = False
    ) -> DeltaReport:
        """Apply ``change`` and return everything it did.

        The analyzer's state advances to the post-change network.
        """
        return self.analyze_batch([change], provenance=provenance)

    def analyze_batch(
        self,
        changes: Iterable[Change],
        label: str | None = None,
        provenance: bool = False,
    ) -> DeltaReport:
        """Apply a whole sequence of changes in one recompute pass.

        Every edit of every change is applied to control-plane state
        first (stage 1, in order), their dirty sets are unioned, and
        scoped recomputation plus the differential data plane run
        exactly once over the merged :class:`DirtySet`.  The report is
        equal to the sequential composition of per-change ``analyze``
        calls (A->B->A churn collapses away), at a fraction of the
        cost.  The analyzer's state advances to the post-batch network.

        ``provenance=True`` additionally attributes every delta to the
        edits that (may have) caused it: each edit gets a dense id in
        application order, its handler runs against a fresh dirty set
        that is stamped with the id before merging, and the recompute
        stages propagate the ids onto the deltas — see
        :attr:`DeltaReport.provenance` / :meth:`DeltaReport.why`.
        """
        batch = list(changes)
        report = DeltaReport(label if label is not None else batch_label(batch))
        record: ProvenanceRecord | None = None
        if provenance:
            record = ProvenanceRecord(report.label)
            report.provenance = record
        committed = self._journal is None

        with self.tracer.span(
            "analyze.batch",
            label=report.label,
            changes=len(batch),
            committed=committed,
        ):
            try:
                with self.tracer.span("analyze.edits") as edits_span:
                    with self.tracer.span("analyze.epoch"):
                        epoch = self._pipeline.begin()
                    dirty = DirtySet()
                    edits_applied = 0
                    if record is not None and self.events is not None:
                        self.events.span(
                            "analyze.batch",
                            label=report.label,
                            changes=len(batch),
                            committed=committed,
                        )
                    for change in batch:
                        for edit in change.edits:
                            if record is None:
                                self._apply_edit(edit, dirty)
                            else:
                                edit_id = record.register_edit(
                                    type(edit).__name__,
                                    edit.describe(),
                                    change.label or "",
                                )
                                per_edit = DirtySet()
                                self._apply_edit(edit, per_edit)
                                per_edit.attribute(edit_id)
                                dirty.merge(per_edit)
                                if self.events is not None:
                                    self.events.provenance(
                                        edit_id=edit_id,
                                        kind=type(edit).__name__,
                                        detail=edit.describe(),
                                        change=change.label or "",
                                    )
                            edits_applied += 1
                    edits_span.set(edits=edits_applied)

                self._pipeline.run(dirty, epoch, report)
            finally:
                # A failed committed application may still have mutated
                # state (edits apply in order, without a fork nothing
                # rolls back), so caches keyed on `generation` must see it
                # move either way.
                if committed:
                    self.generation += 1

        report.counters["edits_batched"] = edits_applied
        self.metrics.counter("analyze.calls").inc()
        self.metrics.counter("analyze.edits").inc(edits_applied)
        self.metrics.histogram("analyze.batch_size").observe(edits_applied)
        if record is not None and self.events is not None:
            # Pass summary closes the provenance stream for this batch.
            self.events.provenance(
                label=report.label,
                edits=len(record.edits),
                rib_changes=report.num_rib_changes(),
                fib_changes=report.num_fib_changes(),
                segments=len(report.reach_segments),
            )
        return report

    @contextmanager
    def fork(self) -> Iterator["DifferentialNetworkAnalyzer"]:
        """Speculative analysis scope: every ``analyze`` inside the
        ``with`` block is rolled back on exit.

        The yielded object is this analyzer itself — reports computed
        inside the block are exact (identical to committed analysis of
        the same changes) but the snapshot and converged state return
        to their pre-fork values afterwards, at a cost proportional to
        the state the block actually touched.  Forks do not nest.
        """
        if self._journal is not None:
            raise ForkError("analyzer forks cannot be nested")
        journal = UndoJournal(self)
        self._journal = journal
        try:
            yield self
        finally:
            self._journal = None
            journal.rollback()

    def what_if(self, change: Change, provenance: bool = False) -> DeltaReport:
        """Evaluate ``change`` without committing it.

        Equivalent to ``analyze`` in its report, but the analyzer's
        snapshot and state are rolled back afterwards — also when the
        change fails to apply.
        """
        with self.fork():
            return self.analyze(change, provenance=provenance)

    def what_if_batch(
        self,
        changes: Iterable[Change],
        label: str | None = None,
        provenance: bool = False,
    ) -> DeltaReport:
        """Evaluate a batch of changes without committing any of them.

        Equivalent to :meth:`analyze_batch` in its report — one merged
        recompute pass — but fork-backed: the analyzer rolls back to
        the pre-batch state afterwards, also on application errors.
        The provenance record (and any event-log records) survive the
        rollback — they document what the evaluation *would* do.
        """
        with self.fork():
            return self.analyze_batch(
                changes, label=label, provenance=provenance
            )

    # ------------------------------------------------------------------
    # Edit dispatch (stage 1)
    # ------------------------------------------------------------------

    def _apply_edit(self, edit: Edit, dirty: DirtySet) -> None:
        """Extraction: journal, then dispatch through the registry."""
        handler = handler_for(type(edit))  # raises before any mutation
        if self._journal is not None:
            self._journal.before_edit(edit)
        handler(self, edit, dirty)
