"""The equivalence oracle: incremental vs. from-scratch.

The central correctness claim of the system is that
:class:`~repro.core.analyzer.DifferentialNetworkAnalyzer` produces the
*same* delta report as the
:class:`~repro.core.snapshot_diff.SnapshotDiff` baseline for every
change.  This module packages that check so tests, benchmarks, and the
T9 experiment can all drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import Change
from repro.core.delta import DeltaReport
from repro.core.snapshot_diff import SnapshotDiff


class EquivalenceError(AssertionError):
    """Raised when the two analysis paths disagree."""

    def __init__(self, change: Change, incremental: DeltaReport, baseline: DeltaReport) -> None:
        self.change = change
        self.incremental = incremental
        self.baseline = baseline
        super().__init__(self._describe())

    def _describe(self) -> str:
        got_rib, got_fib, got_reach = self.incremental.behavior_signature()
        ref_rib, ref_fib, ref_reach = self.baseline.behavior_signature()
        lines = [f"analysis paths disagree on change {self.change.label!r}:"]
        for label, got, ref in (
            ("RIB", got_rib, ref_rib),
            ("FIB", got_fib, ref_fib),
            ("REACH", got_reach, ref_reach),
        ):
            extra = set(got) - set(ref)
            missing = set(ref) - set(got)
            if extra or missing:
                lines.append(f"  {label}: +{len(extra)} spurious, -{len(missing)} missing")
                for item in list(extra)[:3]:
                    lines.append(f"    spurious: {item}")
                for item in list(missing)[:3]:
                    lines.append(f"    missing:  {item}")
        return "\n".join(lines)


@dataclass
class OracleStats:
    """Aggregate results of an oracle run."""

    checked: int = 0
    agreed: int = 0
    labels: list[str] = field(default_factory=list)

    @property
    def pass_rate(self) -> float:
        return self.agreed / self.checked if self.checked else 1.0


class EquivalenceOracle:
    """Runs both paths on the same change stream and compares."""

    def __init__(self, analyzer: DifferentialNetworkAnalyzer) -> None:
        self.analyzer = analyzer
        self.stats = OracleStats()

    def step(self, change: Change, raise_on_mismatch: bool = True) -> bool:
        """Analyze one change with both paths; returns agreement.

        The baseline runs on a *clone* of the pre-change snapshot so
        the analyzer's committed state stays authoritative.
        """
        baseline = SnapshotDiff(self.analyzer.snapshot.clone())
        reference = baseline.analyze(change)
        report = self.analyzer.analyze(change)
        self.stats.checked += 1
        self.stats.labels.append(change.label)
        agreed = report.behavior_signature() == reference.behavior_signature()
        if agreed:
            self.stats.agreed += 1
        elif raise_on_mismatch:
            raise EquivalenceError(change, report, reference)
        return agreed

    def run(self, changes: list[Change], raise_on_mismatch: bool = True) -> OracleStats:
        """Step through a change sequence; returns the aggregate."""
        for change in changes:
            self.step(change, raise_on_mismatch)
        return self.stats
