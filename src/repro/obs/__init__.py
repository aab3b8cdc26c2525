"""Unified observability: tracing spans and work metrics.

The analysis engines answer *what changed*; this package answers
*where the time and work went*.  It is zero-dependency (standard
library only) and opt-in: the default :data:`NULL_TRACER` records
nothing and reads no clock, so an instrumentation site costs one call
returning a shared no-op span.

Two complementary instruments:

- :class:`Tracer` — nestable, labelled wall-clock spans
  (``with tracer.span("pipeline.igp", spf_sources=3):``) forming a
  tree per top-level operation.  Export as a versioned JSON document
  (``kind: "span-trace"``) or as Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto timelines.
- :class:`MetricsRegistry` — named counters, gauges, and histograms
  of *work* (SPF sources recomputed, BGP prefixes solved, dirty-set
  sizes).  By contract the registry holds only deterministic
  quantities — wall-clock belongs to the tracer — which is what lets
  campaign workers ship per-scenario snapshots that merge
  byte-identically across serial and multiprocessing backends.

Span-naming convention: dotted lowercase ``component.operation`` —
``analyze.batch`` > ``analyze.edits`` / ``pipeline.igp`` /
``pipeline.bgp`` / ``pipeline.fib`` / ``pipeline.reachability``,
plus ``fork.rollback`` and ``campaign.run``.  Labels are flat
JSON-scalar key/values; recompute-stage spans carry the dirty-set
sizes that explain their cost.

Two further instruments answer *which edit caused what*:

- :class:`ProvenanceRecord` — per-batch edit table
  (:class:`EditInfo` with dense :data:`~repro.obs.provenance.EditId`
  ids) plus may-have-caused sets per RIB/FIB change and ACL span,
  with derived reachability-segment and violation causes
  (``kind: "provenance"``).
- :class:`EventLog` — an append-only stream interleaving span,
  metric, and provenance records under monotonic sequence numbers
  (``kind: "event-log"``, JSONL export); payloads are deterministic
  by contract, so per-worker slices merge byte-identically.
"""

from repro.obs.events import EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.provenance import EditInfo, ProvenanceRecord
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Counter",
    "EditInfo",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProvenanceRecord",
    "Span",
    "SpanRecord",
    "Tracer",
]
