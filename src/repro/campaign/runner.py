"""Campaign execution: serial and multiprocessing backends.

Both backends evaluate every scenario with
:meth:`~repro.core.analyzer.DifferentialNetworkAnalyzer.what_if`
against the same converged base state, so their per-scenario reports
are identical; the parallel backend only changes *where* the work
runs.

Serial: one forkable analyzer, evaluated in-process — zero setup cost,
ideal for small batches and interactive use.

Parallel: the converged base analyzer is encoded **once per runner**
into the chunked binary container of :mod:`repro.core.codec`
(digest-checked, compressed — several times smaller than the raw
pickle it replaced; cached across runs and invalidated by the
analyzer's ``generation`` stamp — scenarios share one base, so there
is nothing to re-encode); each worker decodes its own replica at pool
startup (no re-simulation) and then serves chunks of the scenario
queue.
Outcomes travel back as compact
:class:`~repro.campaign.report.ScenarioOutcome` records and are
reassembled in enumeration order, so ``jobs=N`` is a pure speedup with
byte-identical output.
"""

from __future__ import annotations

import multiprocessing
import warnings
from typing import Any

from repro.campaign.report import CampaignReport, ScenarioOutcome
from repro.campaign.scenarios import WhatIfScenario
from repro.core import codec
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import ChangeError
from repro.core.invariants import Invariant
from repro.core.snapshot import Snapshot
from repro.net.addr import Prefix
from repro.obs import EventLog, MetricsRegistry, Tracer
from repro.topology.model import TopologyError

# Worker-process globals, installed once per worker by _init_worker.
_WORKER: dict[str, Any] = {}


def _init_worker(
    payload: bytes,
    invariants: list[Invariant],
    with_signatures: bool,
    monitored_spans: list[tuple[int, int]] | None,
    provenance: bool,
    with_spans: bool,
) -> None:
    _WORKER["analyzer"] = codec.loads_base(payload)
    _WORKER["invariants"] = invariants
    _WORKER["with_signatures"] = with_signatures
    _WORKER["monitored_spans"] = monitored_spans
    _WORKER["provenance"] = provenance
    _WORKER["with_spans"] = with_spans


def _evaluate_in_worker(
    item: tuple[int, WhatIfScenario],
) -> tuple[int, ScenarioOutcome]:
    index, scenario = item
    outcome = _evaluate(
        _WORKER["analyzer"],
        scenario,
        _WORKER["invariants"],
        _WORKER["with_signatures"],
        _WORKER["monitored_spans"],
        _WORKER["provenance"],
        _WORKER["with_spans"],
    )
    return index, outcome


def _evaluate(
    analyzer: DifferentialNetworkAnalyzer,
    scenario: WhatIfScenario,
    invariants: list[Invariant],
    with_signatures: bool,
    monitored_spans: list[tuple[int, int]] | None,
    provenance: bool = False,
    with_spans: bool = False,
) -> ScenarioOutcome:
    # Each scenario evaluates against its own scoped metrics registry:
    # the snapshot ships back with the outcome (also across process
    # boundaries) and the parent merges snapshots in enumeration
    # order, so serial and multiprocessing backends aggregate to
    # byte-identical metrics.  The registry holds only deterministic
    # work counts — wall time lives only in spans.
    # Provenance-enabled campaigns scope an event log the same way
    # (its payloads are deterministic too); ``with_spans`` scopes a
    # recording tracer whose wall-clock forest feeds the chrome
    # timeline and is never part of a determinism contract.
    scoped = MetricsRegistry()
    saved = analyzer.metrics
    analyzer.metrics = scoped
    scoped_events: EventLog | None = (
        EventLog() if provenance else None
    )
    saved_events = analyzer.events
    if scoped_events is not None:
        analyzer.events = scoped_events
    scoped_tracer = Tracer() if with_spans else None
    saved_tracer = analyzer.tracer
    if scoped_tracer is not None:
        analyzer.tracer = scoped_tracer

    def _events_payload() -> list[dict[str, Any]] | None:
        return scoped_events.to_payload() if scoped_events else None

    def _spans_payload() -> list[dict[str, Any]] | None:
        if scoped_tracer is None:
            return None
        return [root.to_payload() for root in scoped_tracer.roots]

    try:
        # Multi-change scenarios batch through one merged-DirtySet
        # recompute pass; the report (and its label) is identical to
        # what_if of the combined change.
        report = analyzer.what_if_batch(
            scenario.batch(),
            label=scenario.change.label,
            provenance=provenance,
        )
    except (ChangeError, TopologyError) as error:
        # Both are "this change does not fit this network" — edits
        # raise ChangeError themselves but their topology lookups
        # (unknown router/link) raise TopologyError directly.  Either
        # way the fork rolled back; record and move on so one bad
        # scenario cannot poison the batch (or abort a worker pool).
        return ScenarioOutcome.from_error(
            scenario,
            error,
            metrics=scoped.to_payload(),
            events=_events_payload(),
            spans=_spans_payload(),
        )
    finally:
        analyzer.metrics = saved
        analyzer.events = saved_events
        analyzer.tracer = saved_tracer
    return ScenarioOutcome.from_report(
        scenario,
        report,
        invariants,
        with_signature=with_signatures,
        monitored_spans=monitored_spans,
        metrics=scoped.to_payload(),
        events=_events_payload(),
        spans=_spans_payload(),
    )


class CampaignRunner:
    """Batch what-if evaluation against one converged base state."""

    def __init__(
        self,
        snapshot: Snapshot,
        invariants: list[Invariant] | None = None,
        with_signatures: bool = True,
        label: str = "",
        monitored: list[Prefix] | None = None,
        provenance: bool = False,
        with_spans: bool = False,
    ) -> None:
        # Converging is the expensive part; do it once, up front, and
        # share the warm analyzer across runs and backends.
        self._configure(
            DifferentialNetworkAnalyzer(snapshot),
            invariants,
            with_signatures,
            label,
            monitored,
            provenance,
            with_spans,
        )

    @classmethod
    def from_analyzer(
        cls,
        analyzer: DifferentialNetworkAnalyzer,
        invariants: list[Invariant] | None = None,
        with_signatures: bool = True,
        label: str = "",
        monitored: list[Prefix] | None = None,
        provenance: bool = False,
        with_spans: bool = False,
    ) -> "CampaignRunner":
        """Wrap an existing warm analyzer instead of re-simulating."""
        runner = cls.__new__(cls)
        runner._configure(
            analyzer,
            invariants,
            with_signatures,
            label,
            monitored,
            provenance,
            with_spans,
        )
        return runner

    def _configure(
        self,
        analyzer: DifferentialNetworkAnalyzer,
        invariants: list[Invariant] | None,
        with_signatures: bool,
        label: str,
        monitored: list[Prefix] | None,
        provenance: bool = False,
        with_spans: bool = False,
    ) -> None:
        self.analyzer = analyzer
        self.invariants = list(invariants or [])
        self.with_signatures = with_signatures
        self.label = label or analyzer.snapshot.summary()
        # Provenance attributes every scenario's deltas and violations
        # to its edits and ships scoped event-log slices back with the
        # outcomes; with_spans records a per-scenario span forest for
        # the merged chrome timeline.  Both default off — they widen
        # outcome payloads.
        self.provenance = provenance
        self.with_spans = with_spans
        # The encoded base payload (codec container, not raw pickle)
        # is hoisted across runs: scenarios share one converged base,
        # so re-encoding it per run (let alone per scenario) is pure
        # waste.  ``pickle_count`` counts encodes so tests can assert
        # the hoist; the analyzer's ``generation`` stamp invalidates
        # the cache if someone commits a change on the shared base
        # between runs.
        self._base_payload: bytes | None = None
        self._base_generation: int | None = None
        self.pickle_count = 0
        # With ``monitored`` (typically the host subnets), impact
        # ranking counts only pair churn touching those prefixes —
        # infrastructure /31s disappearing with a failed link is not
        # an outage.
        self.monitored_spans = (
            [prefix.interval() for prefix in monitored]
            if monitored is not None
            else None
        )

    # ------------------------------------------------------------------

    def run(
        self,
        scenarios: list[WhatIfScenario],
        jobs: int = 1,
        chunk_size: int | None = None,
    ) -> CampaignReport:
        """Evaluate the batch with ``jobs`` workers.

        ``jobs == 1`` runs serially in-process.  Larger batches use a
        process pool; ``chunk_size`` controls work-queue granularity
        (default: enough chunks for ~4 rounds per worker).  ``jobs``
        below 1 is a configuration mistake — it falls back to the
        serial backend with a warning rather than crashing mid-batch.
        """
        if jobs < 1:
            warnings.warn(
                f"CampaignRunner.run(jobs={jobs}) is invalid; "
                "falling back to the serial backend (jobs=1)",
                RuntimeWarning,
                stacklevel=2,
            )
            jobs = 1
        scenarios = list(scenarios)
        if jobs <= 1 or len(scenarios) <= 1:
            with self.analyzer.tracer.span(
                "campaign.run", backend="serial", scenarios=len(scenarios)
            ):
                return self._run_serial(scenarios)
        with self.analyzer.tracer.span(
            "campaign.run",
            backend="multiprocessing",
            scenarios=len(scenarios),
            jobs=min(jobs, len(scenarios)),
        ):
            return self._run_parallel(scenarios, jobs, chunk_size)

    def _pickled_base(self) -> bytes:
        """The base analyzer, encoded once and cached across runs.

        The payload is the :mod:`repro.core.codec` chunk container
        (digest-checked, compressed) — the same unit the what-if
        service ships — not a raw pickle.
        """
        generation = self.analyzer.generation
        if self._base_payload is None or self._base_generation != generation:
            self._base_payload = codec.dumps_base(self.analyzer)
            self._base_generation = generation
            self.pickle_count += 1
        return self._base_payload

    def close(self) -> None:
        """Release the cached base payload (the runner stays usable —
        the next parallel run re-encodes)."""
        self._base_payload = None
        self._base_generation = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run_serial(self, scenarios: list[WhatIfScenario]) -> CampaignReport:
        report = CampaignReport(self.label, backend="serial", jobs=1)
        for scenario in scenarios:
            report.add(
                _evaluate(
                    self.analyzer,
                    scenario,
                    self.invariants,
                    self.with_signatures,
                    self.monitored_spans,
                    self.provenance,
                    self.with_spans,
                )
            )
        return report.finish()

    def _run_parallel(
        self,
        scenarios: list[WhatIfScenario],
        jobs: int,
        chunk_size: int | None,
    ) -> CampaignReport:
        jobs = min(jobs, len(scenarios))
        if chunk_size is None:
            chunk_size = max(1, len(scenarios) // (jobs * 4))
        report = CampaignReport(self.label, backend="multiprocessing", jobs=jobs)
        payload = self._pickled_base()
        results: dict[int, ScenarioOutcome] = {}
        with multiprocessing.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(
                payload,
                self.invariants,
                self.with_signatures,
                self.monitored_spans,
                self.provenance,
                self.with_spans,
            ),
        ) as pool:
            for index, outcome in pool.imap_unordered(
                _evaluate_in_worker,
                enumerate(scenarios),
                chunksize=chunk_size,
            ):
                results[index] = outcome
        for index in range(len(scenarios)):
            report.add(results[index])
        return report.finish()
