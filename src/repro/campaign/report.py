"""Campaign aggregation: per-scenario outcomes and the ranked report.

Workers reduce each :class:`~repro.core.delta.DeltaReport` to a
:class:`ScenarioOutcome` — counts, invariant verdicts, and (optionally)
the behaviour signature used to prove serial/parallel agreement — so
the parallel backend ships compact records instead of full reports.
:class:`CampaignReport` collects outcomes in enumeration order and
ranks them by blast radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.core import serialize
from repro.core.delta import DeltaReport
from repro.core.invariants import Invariant, Violation, _check_invariants
from repro.obs import EventLog, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.scenarios import WhatIfScenario


def _cause_summary(
    report: DeltaReport,
    violations: Mapping[str, list[Violation]],
) -> dict[str, Any]:
    """JSON-ready per-scenario causality digest.

    Ships the batch's edit table, per-segment cause sets, and — the
    headline — every invariant violation attributed to the edit ids
    that (may have) caused it.  Derived entirely from deterministic
    cause maps, so it is byte-identical across backends.
    """
    record = report.provenance
    assert record is not None
    return {
        "edits": [info.to_payload() for info in record.edits],
        "segments": record.segment_causes(report.reach_segments),
        "violations": [
            {
                "invariant": name,
                "detail": violation.detail,
                "segment": [violation.segment_lo, violation.segment_hi],
                "repaired": violation.repaired,
                "edits": sorted(
                    record.causes_over(
                        violation.segment_lo, violation.segment_hi
                    )
                ),
            }
            for name, per_invariant in sorted(violations.items())
            for violation in per_invariant
        ],
    }


@dataclass
class ScenarioOutcome:
    """What one what-if scenario did to the base network."""

    name: str
    kind: str = "what-if"
    ok: bool = True
    error: str | None = None
    rib_changes: int = 0
    fib_changes: int = 0
    pairs_gained: int = 0
    pairs_lost: int = 0
    segments: int = 0
    violations: dict[str, list[Violation]] = field(default_factory=dict)
    # Pair churn restricted to the campaign's monitored prefixes (e.g.
    # host subnets); None when the campaign monitors everything.  A
    # failed link's own /31 vanishing is not an outage — monitoring
    # keeps it out of the impact ranking.
    monitored_pairs_gained: int | None = None
    monitored_pairs_lost: int | None = None
    # Hashable behaviour summary (None when signatures are disabled).
    signature: tuple[Any, ...] | None = None
    # Scoped work-metrics snapshot (a MetricsRegistry payload) of this
    # scenario's evaluation.  Deterministic by the obs contract, so it
    # is identical across backends and the parent can merge snapshots
    # byte-stably in enumeration order.
    metrics: dict[str, Any] | None = None
    # Causality digest (edit table, per-segment causes, violation
    # attribution) of a provenance-enabled evaluation; None otherwise.
    causes: dict[str, Any] | None = None
    # Scoped event-log slice (raw records, scenario-local seq numbers)
    # of a provenance-enabled evaluation.  The parent report absorbs
    # slices in enumeration order, so the merged log is byte-identical
    # across backends.
    events: list[dict[str, Any]] | None = None
    # Scoped span-forest payloads (wall-clock!) recorded when the
    # campaign runs with spans on — feeds the merged chrome trace.
    # Never part of any determinism contract.
    spans: list[dict[str, Any]] | None = None

    @classmethod
    def from_report(
        cls,
        scenario: WhatIfScenario,
        report: DeltaReport,
        invariants: list[Invariant],
        with_signature: bool = True,
        monitored_spans: list[tuple[int, int]] | None = None,
        metrics: dict[str, Any] | None = None,
        events: list[dict[str, Any]] | None = None,
        spans: list[dict[str, Any]] | None = None,
    ) -> "ScenarioOutcome":
        """Reduce one delta report to an outcome record."""
        gained, lost = report.num_pair_changes()
        monitored_gained: int | None = None
        monitored_lost: int | None = None
        if monitored_spans is not None:
            monitored_gained = monitored_lost = 0
            for segment in report.reach_segments:
                if any(
                    segment.lo < hi and lo < segment.hi
                    for lo, hi in monitored_spans
                ):
                    monitored_gained += len(segment.added)
                    monitored_lost += len(segment.removed)
        violations = _check_invariants(report, invariants)
        causes = (
            _cause_summary(report, violations)
            if report.provenance is not None
            else None
        )
        return cls(
            name=scenario.name,
            kind=scenario.kind,
            rib_changes=report.num_rib_changes(),
            fib_changes=report.num_fib_changes(),
            pairs_gained=gained,
            pairs_lost=lost,
            segments=len(report.reach_segments),
            violations=violations,
            monitored_pairs_gained=monitored_gained,
            monitored_pairs_lost=monitored_lost,
            signature=report.behavior_signature() if with_signature else None,
            metrics=metrics,
            causes=causes,
            events=events,
            spans=spans,
        )

    @classmethod
    def from_error(
        cls,
        scenario: WhatIfScenario,
        error: Exception,
        metrics: dict[str, Any] | None = None,
        events: list[dict[str, Any]] | None = None,
        spans: list[dict[str, Any]] | None = None,
    ) -> "ScenarioOutcome":
        """An outcome for a scenario that failed to apply."""
        return cls(
            name=scenario.name,
            kind=scenario.kind,
            ok=False,
            error=f"{type(error).__name__}: {error}",
            metrics=metrics,
            events=events,
            spans=spans,
        )

    def blast_radius(self) -> int:
        """Reachable (source, owner) pairs the change flipped.

        The headline impact metric: behaviour the network lost plus
        behaviour it gained (a leak is as much an incident as an
        outage).  When the campaign monitors specific prefixes, only
        churn touching them counts — so a link failure whose only
        effect is its own /31 disappearing ranks as a pure reroute.
        Ties are broken by FIB churn in :meth:`CampaignReport.ranked`.
        """
        if self.monitored_pairs_lost is not None:
            return self.monitored_pairs_lost + (self.monitored_pairs_gained or 0)
        return self.pairs_lost + self.pairs_gained

    def num_violations(self) -> int:
        """Introduced (non-repaired) invariant violations."""
        return sum(
            1
            for violations in self.violations.values()
            for violation in violations
            if not violation.repaired
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready fragment (the enclosing report carries the
        schema version)."""
        data: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "error": self.error,
            "rib_changes": self.rib_changes,
            "fib_changes": self.fib_changes,
            "pairs_gained": self.pairs_gained,
            "pairs_lost": self.pairs_lost,
            "segments": self.segments,
            "violations": {
                name: [violation.to_dict() for violation in violations]
                for name, violations in sorted(self.violations.items())
            },
            "monitored_pairs_gained": self.monitored_pairs_gained,
            "monitored_pairs_lost": self.monitored_pairs_lost,
            "signature": (
                None
                if self.signature is None
                else serialize.encode_signature(self.signature)
            ),
            "metrics": self.metrics,
        }
        # Opt-in payloads keep the base document byte-stable: the keys
        # appear only when the campaign ran with the feature enabled.
        if self.causes is not None:
            data["causes"] = self.causes
        if self.events is not None:
            data["events"] = self.events
        if self.spans is not None:
            data["spans"] = self.spans
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioOutcome":
        signature = data["signature"]
        return cls(
            name=data["name"],
            kind=data["kind"],
            ok=data["ok"],
            error=data["error"],
            rib_changes=data["rib_changes"],
            fib_changes=data["fib_changes"],
            pairs_gained=data["pairs_gained"],
            pairs_lost=data["pairs_lost"],
            segments=data["segments"],
            violations={
                name: [Violation.from_dict(item) for item in violations]
                for name, violations in data["violations"].items()
            },
            monitored_pairs_gained=data["monitored_pairs_gained"],
            monitored_pairs_lost=data["monitored_pairs_lost"],
            signature=(
                None
                if signature is None
                else serialize.decode_signature(signature)
            ),
            metrics=data.get("metrics"),
            causes=data.get("causes"),
            events=data.get("events"),
            spans=data.get("spans"),
        )

    def __str__(self) -> str:
        if not self.ok:
            return f"{self.name}: ERROR {self.error}"
        if self.monitored_pairs_lost is not None:
            pairs = (
                f"-{self.monitored_pairs_lost}/+{self.monitored_pairs_gained} "
                f"monitored pairs,"
            )
        else:
            pairs = f"-{self.pairs_lost}/+{self.pairs_gained} pairs,"
        parts = [f"{self.name}:", pairs, f"{self.fib_changes} FIB changes"]
        if self.violations:
            parts.append(f"({self.num_violations()} violations)")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ScenarioOutcome({self})"


class CampaignReport:
    """All outcomes of one campaign, in enumeration order."""

    def __init__(
        self,
        label: str = "",
        backend: str = "serial",
        jobs: int = 1,
    ) -> None:
        self.label = label
        self.backend = backend
        self.jobs = jobs
        self.outcomes: list[ScenarioOutcome] = []
        # Merged work metrics across all outcomes (see finish()).
        self.metrics: MetricsRegistry = MetricsRegistry()
        # Merged structured event log across all provenance-enabled
        # outcomes (see finish()); empty otherwise.
        self.events: EventLog = EventLog()

    # -- collection ----------------------------------------------------------

    def add(self, outcome: ScenarioOutcome) -> None:
        self.outcomes.append(outcome)

    def finish(self) -> "CampaignReport":
        # Merge per-scenario snapshots in enumeration order.  Both
        # backends add outcomes in that order and the snapshots are
        # deterministic work counts, so the merged registry — and its
        # sorted-JSON dump — is byte-identical serial vs parallel.
        merged = MetricsRegistry()
        merged.counter("campaign.scenarios").inc(len(self.outcomes))
        merged.counter("campaign.errors").inc(len(self.failed()))
        for outcome in self.outcomes:
            if outcome.metrics is not None:
                merged.merge_payload(outcome.metrics)
        self.metrics = merged
        # Per-worker event-log slices merge exactly like the metrics:
        # enumeration order, with sequence numbers reassigned densely —
        # so the merged log is byte-identical serial vs multiprocessing.
        log = EventLog()
        for outcome in self.outcomes:
            if outcome.events:
                log.absorb(outcome.events)
        self.events = log
        return self

    # -- views ----------------------------------------------------------------

    def ranked(self) -> list[ScenarioOutcome]:
        """Outcomes by descending blast radius (FIB churn, name tiebreaks)."""
        return sorted(
            (o for o in self.outcomes if o.ok),
            key=lambda o: (-o.blast_radius(), -o.fib_changes, o.name),
        )

    def violating(self) -> list[ScenarioOutcome]:
        """Outcomes that introduced at least one invariant violation."""
        return [o for o in self.outcomes if o.ok and o.num_violations()]

    def failed(self) -> list[ScenarioOutcome]:
        """Scenarios whose change could not be applied."""
        return [o for o in self.outcomes if not o.ok]

    def harmless(self) -> list[ScenarioOutcome]:
        """Scenarios that changed no behaviour at all."""
        return [
            o
            for o in self.outcomes
            if o.ok and not o.blast_radius() and not o.fib_changes
        ]

    def signatures(self) -> list[tuple[Any, ...] | None]:
        """Per-scenario behaviour signatures, enumeration order."""
        return [o.signature for o in self.outcomes]

    def chrome_trace(self) -> dict[str, Any]:
        """One Chrome trace-event timeline over every scenario's spans.

        Each scenario's recorded span forest (see the runner's
        ``with_spans``) becomes one named thread on the timeline, so
        ``chrome://tracing`` / Perfetto shows the whole campaign —
        serial or multiprocessing — side by side.  Scenarios without
        spans are skipped.
        """
        events: list[dict[str, Any]] = []
        for tid, outcome in enumerate(self.outcomes):
            if not outcome.spans:
                continue
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": outcome.name},
                }
            )

            def visit(payload: Mapping[str, Any], tid: int = tid) -> None:
                events.append(
                    {
                        "name": payload["name"],
                        "ph": "X",
                        "ts": payload["start"] * 1e6,
                        "dur": payload["duration"] * 1e6,
                        "pid": 0,
                        "tid": tid,
                        "args": {
                            key: payload["labels"][key]
                            for key in sorted(payload["labels"])
                        },
                    }
                )
                for child in payload["children"]:
                    visit(child, tid)

            for root in outcome.spans:
                visit(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- rendering -------------------------------------------------------------

    def summary(self, top: int = 10) -> str:
        """Human-readable digest: headline counts + top blast radii."""
        lines = [
            f"Campaign({self.label or 'unlabelled'}): "
            f"{len(self.outcomes)} scenarios via {self.backend} "
            f"backend (jobs={self.jobs})",
        ]
        failed = self.failed()
        violating = self.violating()
        lines.append(
            f"  impactful: {sum(1 for o in self.outcomes if o.ok and o.blast_radius())}"
            f"  reroute-only: "
            f"{sum(1 for o in self.outcomes if o.ok and not o.blast_radius() and o.fib_changes)}"
            f"  harmless: {len(self.harmless())}"
            f"  errors: {len(failed)}"
        )
        if violating:
            lines.append(f"  invariant violations in {len(violating)} scenarios:")
            for outcome in violating[:top]:
                for name, violations in sorted(outcome.violations.items()):
                    introduced = [v for v in violations if not v.repaired]
                    if introduced:
                        lines.append(
                            f"    {outcome.name}: {name} "
                            f"({len(introduced)} violations)"
                        )
        ranked = [o for o in self.ranked() if o.blast_radius()][:top]
        if ranked:
            lines.append(f"  top blast radius:")
            for outcome in ranked:
                lines.append(f"    {outcome}")
        for outcome in failed[:top]:
            lines.append(f"  {outcome}")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document (see :mod:`repro.core.serialize`)."""
        payload: dict[str, Any] = {
            "label": self.label,
            "backend": self.backend,
            "jobs": self.jobs,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "metrics": self.metrics.to_payload(),
        }
        if len(self.events):
            payload["events"] = self.events.to_payload()
        return serialize.document("campaign-report", payload)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignReport":
        """Rebuild a report; raises SchemaError on unknown versions."""
        serialize.check_document(data, "campaign-report")
        report = cls(
            label=data["label"], backend=data["backend"], jobs=data["jobs"]
        )
        for outcome in data["outcomes"]:
            report.add(ScenarioOutcome.from_dict(outcome))
        if "metrics" in data:
            report.metrics = MetricsRegistry.from_payload(data["metrics"])
        if "events" in data:
            report.events.absorb(data["events"])
        return report

    def __str__(self) -> str:
        return self.summary()

    def __repr__(self) -> str:
        return (
            f"CampaignReport({self.label!r}: {len(self.outcomes)} outcomes, "
            f"{len(self.violating())} violating, {len(self.failed())} failed, "
            f"backend={self.backend!r})"
        )

    def __len__(self) -> int:
        return len(self.outcomes)
