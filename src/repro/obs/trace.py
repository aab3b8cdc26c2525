"""Nestable wall-clock spans with labels and versioned export.

A :class:`Tracer` records a forest of :class:`SpanRecord` trees — one
root per top-level traced operation.  Opening a span while another is
active nests it; the context-manager protocol keeps the stack honest
even when the traced body raises.

The default tracer in every analyzer is :data:`NULL_TRACER`: every
span it opens is one shared no-op that reads no clock and allocates no
record, so always-on instrumentation stays cheap.  Spans of a
recording :class:`Tracer` are the only place the program keeps wall
time; result documents carry none.

Export:

- :meth:`Tracer.to_dict` — versioned JSON document
  (``kind: "span-trace"``, byte-stable through
  ``from_dict``/``to_dict``; unknown versions raise
  :class:`~repro.core.serialize.SchemaError`).
- :meth:`Tracer.to_chrome_trace` — Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto): one complete (``"ph": "X"``)
  event per span, labels as ``args``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Iterator, Mapping, Union

from repro.core import serialize

LabelValue = Union[int, float, str, bool, None]


@dataclass
class SpanRecord:
    """One recorded span: name, placement, duration, labels, children.

    ``start`` is seconds relative to the tracer's epoch (its
    construction or last :meth:`Tracer.reset`), ``duration`` is
    seconds of wall time between enter and exit.
    """

    name: str
    labels: dict[str, LabelValue] = field(default_factory=dict)
    start: float = 0.0
    duration: float = 0.0
    children: list["SpanRecord"] = field(default_factory=list)

    def walk(self) -> Iterator["SpanRecord"]:
        """This record and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def child_time(self) -> float:
        """Seconds spent in direct children (for self-time math)."""
        return sum(child.duration for child in self.children)

    def find(self, name: str) -> "SpanRecord | None":
        """The first descendant (or self) with ``name``, depth-first."""
        for record in self.walk():
            if record.name == name:
                return record
        return None

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready fragment (the enclosing document is versioned)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "labels": {key: self.labels[key] for key in sorted(self.labels)},
            "children": [child.to_payload() for child in self.children],
        }

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=data["name"],
            labels=dict(data["labels"]),
            start=data["start"],
            duration=data["duration"],
            children=[
                cls.from_payload(child) for child in data["children"]
            ],
        )

    def __str__(self) -> str:
        labels = ", ".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        suffix = f" [{labels}]" if labels else ""
        return f"{self.name}: {self.duration * 1e3:.2f}ms{suffix}"


class Span:
    """The live context-manager handle of one span.

    Opened by a recording tracer, it measures wall time (``duration``
    is readable after the ``with`` block exits) into its
    :class:`SpanRecord`; the null tracer's shared span has no record,
    reads no clock and keeps ``duration`` at zero.  :meth:`set`
    attaches labels discovered while the span runs (e.g. how many
    prefixes a stage ended up solving).
    """

    __slots__ = ("_tracer", "record", "duration", "_start")

    def __init__(self, tracer: "Tracer | None", record: SpanRecord | None) -> None:
        self._tracer = tracer
        self.record = record
        self.duration = 0.0
        self._start = 0.0

    def set(self, **labels: LabelValue) -> "Span":
        """Attach labels to the recorded span (no-op when unrecorded)."""
        if self.record is not None:
            self.record.labels.update(labels)
        return self

    def __enter__(self) -> "Span":
        if self._tracer is not None and self.record is not None:
            self._tracer._push(self.record)
            self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._tracer is not None and self.record is not None:
            self.duration = time.perf_counter() - self._start
            self._tracer._pop(self.record, self._start, self.duration)


class Tracer:
    """Records nestable spans into a forest of :class:`SpanRecord`.

    One tracer per session (the :class:`~repro.api.Network` facade
    owns one and threads it through the analyzer, pipeline, fork
    journal, and campaign runner).  Not thread-safe: one tracer
    belongs to one analysis session, mirroring the analyzer itself.
    """

    def __init__(self) -> None:
        self.roots: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._epoch = time.perf_counter()

    @property
    def enabled(self) -> bool:
        """True when spans are recorded (False for the null tracer)."""
        return True

    def span(self, name: str, **labels: LabelValue) -> Span:
        """A new span; ``with tracer.span("pipeline.igp", n=3) as sp:``."""
        return Span(self, SpanRecord(name=name, labels=dict(labels)))

    def reset(self) -> None:
        """Drop every recorded span and restart the epoch."""
        self.roots = []
        self._stack = []
        self._epoch = time.perf_counter()

    # -- recording internals (driven by Span) --------------------------------

    def _push(self, record: SpanRecord) -> None:
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)
        self._stack.append(record)

    def _pop(self, record: SpanRecord, start: float, duration: float) -> None:
        record.start = start - self._epoch
        record.duration = duration
        # Well-nested `with` blocks make this the stack top; tolerate
        # surprises (a leaked span) rather than corrupt the tree.
        if self._stack and self._stack[-1] is record:
            self._stack.pop()

    # -- views ----------------------------------------------------------------

    def walk(self) -> Iterator[SpanRecord]:
        """Every recorded span, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> SpanRecord | None:
        """The first recorded span named ``name``, depth-first."""
        for record in self.walk():
            if record.name == name:
                return record
        return None

    def render(self) -> str:
        """Human-readable indented tree of every recorded span."""
        lines: list[str] = []

        def visit(record: SpanRecord, depth: int) -> None:
            lines.append("  " * depth + str(record))
            for child in record.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document (``kind: "span-trace"``)."""
        return serialize.document(
            "span-trace",
            {"spans": [root.to_payload() for root in self.roots]},
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Tracer":
        """Rebuild a recorded forest; raises SchemaError on unknowns."""
        serialize.check_document(data, "span-trace")
        tracer = cls()
        tracer.roots = [
            SpanRecord.from_payload(span) for span in data["spans"]
        ]
        return tracer

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (load in ``chrome://tracing``).

        One complete event (``"ph": "X"``) per span; timestamps are
        microseconds from the tracer epoch, labels travel as ``args``.
        """
        events: list[dict[str, Any]] = []
        for record in self.walk():
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": record.start * 1e6,
                    "dur": record.duration * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {
                        key: record.labels[key]
                        for key in sorted(record.labels)
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def __repr__(self) -> str:
        spans = sum(1 for _ in self.walk())
        return f"Tracer({len(self.roots)} roots, {spans} spans)"


class NullTracer(Tracer):
    """The default no-op tracer: times nothing, records nothing.

    Every :meth:`span` call returns the same stateless span — no clock
    read, no record, no tree; label values passed as keywords are
    dropped unseen.
    """

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **labels: LabelValue) -> Span:
        return _NULL_SPAN

    def __repr__(self) -> str:
        return "NullTracer()"


_NULL_SPAN = Span(None, None)

NULL_TRACER = NullTracer()
"""Shared default tracer; stateless, safe to hand to every analyzer."""
