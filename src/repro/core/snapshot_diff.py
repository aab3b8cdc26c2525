"""The Batfish-style baseline: simulate both snapshots, diff.

:class:`SnapshotDiff` is what operators do today: run the full
simulation on the pre-change snapshot, apply the change, run the full
simulation again, and compare everything.  It shares every solver with
the incremental path, so its output is the ground truth the
:class:`~repro.core.analyzer.DifferentialNetworkAnalyzer` must match —
and the cost baseline it must beat.
"""

from __future__ import annotations

from repro.controlplane.simulation import NetworkState, simulate
from repro.core.change import Change
from repro.core.delta import DeltaReport, diff_reach_coverage
from repro.core.snapshot import Snapshot


def diff_states(
    before: NetworkState, after: NetworkState, label: str = ""
) -> DeltaReport:
    """Compare two fully converged network states."""
    report = DeltaReport(label)

    routers = sorted(
        set(before.snapshot.topology.router_names())
        | set(after.snapshot.topology.router_names())
    )
    for router in routers:
        rib_before = before.ribs.get(router)
        rib_after = after.ribs.get(router)
        prefixes = set()
        if rib_before is not None:
            prefixes.update(rib_before.prefixes())
        if rib_after is not None:
            prefixes.update(rib_after.prefixes())
        for prefix in prefixes:
            old = rib_before.best(prefix) if rib_before is not None else None
            new = rib_after.best(prefix) if rib_after is not None else None
            if old != new:
                report.record_rib(router, prefix, old, new)

        fib_before = before.fibs.get(router)
        fib_after = after.fibs.get(router)
        fib_prefixes = set()
        if fib_before is not None:
            fib_prefixes.update(fib_before.prefixes())
        if fib_after is not None:
            fib_prefixes.update(fib_after.prefixes())
        for prefix in fib_prefixes:
            old_entry = fib_before.entry_for(prefix) if fib_before else None
            new_entry = fib_after.entry_for(prefix) if fib_after else None
            if old_entry != new_entry:
                report.record_fib(router, prefix, old_entry, new_entry)

    coverage_before = [
        (atom.lo, atom.hi, before.reachability.for_atom(atom))
        for atom in before.dataplane.atom_table.atoms()
    ]
    coverage_after = [
        (atom.lo, atom.hi, after.reachability.for_atom(atom))
        for atom in after.dataplane.atom_table.atoms()
    ]
    report.reach_segments = diff_reach_coverage(coverage_before, coverage_after)
    return report


class SnapshotDiff:
    """Full-recompute differential analysis (the comparison baseline)."""

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        self._state: NetworkState | None = None

    def base_state(self) -> NetworkState:
        """The converged pre-change state (cached)."""
        if self._state is None:
            self._state = simulate(self.snapshot, precompute_reachability=True)
        return self._state

    def analyze(self, change: Change, commit: bool = False) -> DeltaReport:
        """Simulate base and changed snapshots fully; diff.

        With ``commit`` the changed snapshot becomes the new base.
        """
        before = self.base_state()
        changed = change.applied_to_copy(self.snapshot)
        after = simulate(changed, precompute_reachability=True)
        report = diff_states(before, after, label=change.label or "snapshot-diff")
        report.counters = {
            "atoms_before": before.dataplane.atom_table.num_atoms(),
            "atoms_after": after.dataplane.atom_table.num_atoms(),
            "atoms_analyzed": before.dataplane.atom_table.num_atoms()
            + after.dataplane.atom_table.num_atoms(),
        }
        if commit:
            self.snapshot = changed
            self._state = after
        return report
