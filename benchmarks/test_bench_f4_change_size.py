"""F4 — analysis latency vs change size (batched edits).

Reproduces the crossover figure: as a change batch grows from 1 edit
toward "rewrite the whole network", the incremental path's advantage
shrinks — the baseline pays one flat full simulation regardless, while
DNA's cost is proportional to the touched state.  The crossover point
(where re-simulating would be cheaper) is the number the paper family
reports; here we print the ratio per batch size.  The gated shape is
the work: a batch of N static routes updates exactly N FIB entries.
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.snapshot_diff import SnapshotDiff
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)


def test_f4_latency_vs_change_size():
    scenario = fat_tree_ospf(6)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot)
    generator = ChangeGenerator(scenario, seed=400)

    table = Table(
        "F4: latency vs change size (static-route batches, fat-tree k=6)",
        ["edits", "fib_entries_updated", "dna_ms", "baseline_ms", "speedup"],
    )
    fib_updates = []
    for size in BATCH_SIZES:
        add, remove = generator.static_batch(size)
        baseline = SnapshotDiff(analyzer.snapshot.clone())
        base_seconds, reference = time_call(lambda: baseline.analyze(add), repeat=1)
        dna_seconds, report = time_call(lambda: analyzer.analyze(add), repeat=1)
        assert report.behavior_signature() == reference.behavior_signature()
        analyzer.analyze(remove)
        fib_updates.append(report.counters["fib_entries_updated"])
        table.add(
            f"batch={size}",
            edits=size,
            fib_entries_updated=fib_updates[-1],
            dna_ms=dna_seconds * 1e3,
            baseline_ms=base_seconds * 1e3,
            speedup=base_seconds / dna_seconds,
        )
    table.emit()

    # Shape: DNA's work grows exactly with the batch.
    assert fib_updates == list(BATCH_SIZES)
