"""M1 — observability naming and the metric determinism contract.

DESIGN.md fixes two conventions for the obs layer:

- **Name grammar**: span and metric names are lower-case dotted paths,
  ``component.operation`` (``analyze.batch``, ``pipeline.igp``,
  ``service.cache_hits``) — at least two dot-separated segments of
  ``[a-z][a-z0-9_]*``.  Dynamic names built from f-strings are out of
  static reach and are skipped (their *prefixes* are literal and
  conventionally correct).
- **Metrics are deterministic work counts, never wall time.**  Metric
  payloads ship across workers and must merge byte-identically; a
  duration smuggled into a counter breaks serial-vs-parallel equality.
  Wall-clock belongs to spans (``Span.duration``) alone.

This checker enforces both: literal first arguments of
``.span()``/``.counter()``/``.gauge()``/``.histogram()``/``.metric()``
calls must match the grammar; metric names must not contain timing
words; and values recorded through a chained
``metrics.counter(...).inc(v)`` (or ``.observe``/``.set``) must not
derive from ``Span.duration`` or ``time.*``.
"""

from __future__ import annotations

import ast
import re

from repro.lint.base import Finding, LintVisitor, Project, rule

NAME_GRAMMAR = re.compile(r"[a-z][a-z0-9_]*(\.[a-z0-9_]+)+")

SPAN_METHODS = {"span"}
METRIC_METHODS = {"counter", "gauge", "histogram", "metric"}
RECORD_METHODS = {"inc", "observe", "set"}

# Words that indicate a wall-time payload in a metric *name*.
TIME_WORDS = {
    "time", "duration", "seconds", "secs", "ms", "latency", "wall",
    "elapsed",
}

# Attribute names whose value is wall time.
TIME_ATTRS = {"duration", "wall_time", "elapsed", "_started", "_epoch"}


def _first_str_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


def _carries_wall_time(node: ast.AST) -> str | None:
    """A human-readable reason if the expression derives wall time."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Attribute) and inner.attr in TIME_ATTRS:
            return f"reads .{inner.attr}"
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and isinstance(inner.func.value, ast.Name)
            and inner.func.value.id == "time"
        ):
            return f"calls time.{inner.func.attr}()"
    return None


class _ObsNamingVisitor(LintVisitor):
    rule_id = "M1"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            method = func.attr
            if method in SPAN_METHODS | METRIC_METHODS:
                self._check_name(node, method)
            if method in RECORD_METHODS and self._is_metric_chain(func.value):
                self._check_value(node, method)
            if method == "metric" and len(node.args) >= 2:
                reason = _carries_wall_time(node.args[1])
                if reason is not None:
                    self.flag(
                        node,
                        f"event-log metric value {reason}; metrics are "
                        "deterministic work counts, wall time belongs to "
                        "spans",
                    )
        self.generic_visit(node)

    def _check_name(self, node: ast.Call, method: str) -> None:
        name = _first_str_arg(node)
        if name is None:
            return  # dynamic or non-obs call (e.g. IntervalSet.span)
        if NAME_GRAMMAR.fullmatch(name) is None:
            self.flag(
                node,
                f".{method}({name!r}) violates the obs name grammar "
                "'component.operation' (lower-case dotted segments)",
            )
            return
        if method in METRIC_METHODS:
            segments = set(re.split(r"[._]", name))
            timing = segments & TIME_WORDS
            if timing:
                self.flag(
                    node,
                    f".{method}({name!r}) names a wall-time quantity "
                    f"({sorted(timing)}); metrics record work counts, "
                    "never time",
                )

    def _is_metric_chain(self, receiver: ast.AST) -> bool:
        """True for ``<registry>.counter|gauge|histogram(...)`` chains."""
        return (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Attribute)
            and receiver.func.attr in ("counter", "gauge", "histogram")
        )

    def _check_value(self, node: ast.Call, method: str) -> None:
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            reason = _carries_wall_time(value)
            if reason is not None:
                self.flag(
                    node,
                    f"metric .{method}() value {reason}; metrics are "
                    "deterministic work counts, wall time belongs to "
                    "spans",
                )


@rule(
    "M1",
    "obs naming & metric determinism",
    "span/metric names follow the component.operation grammar; metrics "
    "record work counts, never wall time",
)
def check_obs_naming(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for context in project:
        findings.extend(_ObsNamingVisitor(context).run())
    return findings
