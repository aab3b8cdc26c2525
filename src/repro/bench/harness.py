"""Timing and table helpers for the benchmark suite.

The benchmarks regenerate the paper's tables/figures as text: each
bench builds a :class:`Table`, fills :class:`BenchRow` entries from
measured runs, and prints it (captured into ``bench_output.txt`` by
the top-level run).  Its measurements are reports, never gates: the
end-to-end benchmark under ``benchmarks/e2e`` is where time is
measured.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


def time_call(fn: Callable[[], Any], repeat: int = 3) -> tuple[float, Any]:
    """(best wall-clock seconds, last result) over ``repeat`` runs."""
    best = math.inf
    result: Any = None
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def median(values: Sequence[float]) -> float:
    """The middle value (mean of middle two for even length)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (values must be positive)."""
    if not values:
        raise ValueError("geometric mean of empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class BenchRow:
    """One table row: a label and its column values."""

    label: str
    values: dict[str, Any] = field(default_factory=dict)


class Table:
    """A paper-style results table rendered as aligned text."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = columns
        self.rows: list[BenchRow] = []

    def add(self, label: str, **values: Any) -> None:
        """Append one row; unknown columns are rejected."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(BenchRow(label, values))

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 100:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        """The table as aligned monospace text."""
        header = ["case"] + self.columns
        body = [
            [row.label] + [self._fmt(row.values.get(c, "-")) for c in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body))
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for line in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
        return "\n".join(lines)

    def emit(self) -> None:
        """Print with surrounding blank lines (shows up in -s output)."""
        print()
        print(self.render())
        print()
