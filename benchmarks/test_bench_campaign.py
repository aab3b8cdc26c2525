"""Campaign engine benchmarks: fork economics and backend scaling.

Two questions the campaign design hinges on:

1. **Fork vs commit+undo** — evaluating N candidates used to mean N
   ``analyze(change)`` / ``analyze(inverse)`` pairs.  A fork replaces
   the second analysis with an undo-journal rollback whose cost is
   proportional to the touched state, so a fork sweep runs one
   recompute pass per candidate where the pairing runs two.  The gate
   is that pass count; wall time is printed, not gated.
2. **Serial vs parallel** — the multiprocessing backend must produce
   identical per-scenario reports.  The table reports the measured
   wall-clock ratio next to the available CPU count; the end-to-end
   benchmark tracks the speedup (``campaign.parallel_speedup``).
"""

from __future__ import annotations

import os

from repro.bench.harness import Table, time_call
from repro.campaign import CampaignRunner, all_single_link_failures
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import Change, LinkUp
from repro.workloads.scenarios import fat_tree_ospf


def _recovery(change: Change) -> Change:
    """The inverse (LinkUp) change of a single-link-failure scenario."""
    (edit,) = change.edits
    return Change.of(
        LinkUp(edit.router1, edit.router2, edit.interface1, edit.interface2),
        label=f"recover {change.label}",
    )


def test_campaign_fork_vs_commit_undo():
    table = Table(
        "Campaign: fork-based what-if vs commit+undo pairing (fat-tree k=4)",
        ["scenarios", "passes", "total_s", "per_scenario_ms"],
    )
    scenario = fat_tree_ospf(4)
    batch = all_single_link_failures(scenario)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    passes = analyzer.metrics.counter("pipeline.passes")

    def sweep_with_forks():
        return [analyzer.what_if(s.change).behavior_signature() for s in batch]

    def sweep_with_pairs():
        signatures = []
        for s in batch:
            signatures.append(analyzer.analyze(s.change).behavior_signature())
            analyzer.analyze(_recovery(s.change))
        return signatures

    start = passes.value
    fork_time, fork_signatures = time_call(sweep_with_forks, repeat=1)
    fork_passes = passes.value - start
    start = passes.value
    pair_time, pair_signatures = time_call(sweep_with_pairs, repeat=1)
    pair_passes = passes.value - start

    # Identical per-scenario reports whichever way state is restored.
    assert fork_signatures == pair_signatures

    for label, count, seconds in (
        ("fork + rollback", fork_passes, fork_time),
        ("commit + undo pair", pair_passes, pair_time),
    ):
        table.add(
            label,
            scenarios=len(batch),
            passes=count,
            total_s=seconds,
            per_scenario_ms=seconds / len(batch) * 1e3,
        )
    table.emit()

    # The rollback replaces the second incremental analysis.
    assert fork_passes == len(batch)
    assert pair_passes == 2 * len(batch)


def test_campaign_parallel_speedup():
    table = Table(
        "Campaign: serial vs multiprocessing backend (fat-tree k=4, all "
        "single-link failures)",
        ["jobs", "wall_s", "speedup"],
    )
    scenario = fat_tree_ospf(4)
    batch = all_single_link_failures(scenario)
    runner = CampaignRunner(scenario.snapshot.clone(), label="fat_tree k=4")

    serial_wall, serial = time_call(lambda: runner.run(batch, jobs=1), repeat=1)
    table.add("serial", jobs=1, wall_s=serial_wall, speedup=1.0)

    for jobs in (2, 4):
        wall, parallel = time_call(
            lambda: runner.run(batch, jobs=jobs), repeat=1
        )
        table.add(
            f"multiprocessing j{jobs}",
            jobs=jobs,
            wall_s=wall,
            speedup=serial_wall / max(wall, 1e-9),
        )
        # Acceptance: per-scenario reports identical to serial.
        assert parallel.signatures() == serial.signatures()
    cpus = len(os.sched_getaffinity(0))
    table.add("available cpus", jobs=cpus, wall_s=0.0, speedup=0.0)
    table.emit()
