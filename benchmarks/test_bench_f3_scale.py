"""F3 — speedup vs topology size (fat-tree k ∈ {4, 6, 8}).

Reproduces the scaling figure: a single link failure, incrementally
and through the snapshot-diff baseline, on growing fabrics.  The
incremental latency is *not* near-flat for link failures: the IGP
stage recomputes every SPF source (the ``spf_sources`` column), so it
grows with the network.  What does shrink is the share of atoms the
differential data plane re-analyses — the gated shape.
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.snapshot_diff import SnapshotDiff
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf


def test_f3_speedup_vs_scale():
    table = Table(
        "F3: link-failure latency vs fat-tree size",
        ["routers", "spf_sources", "atoms_share", "dna_ms", "baseline_ms",
         "speedup"],
    )
    shares = []
    for k in (4, 6, 8):
        scenario = fat_tree_ospf(k)
        analyzer = DifferentialNetworkAnalyzer(scenario.snapshot)
        generator = ChangeGenerator(scenario, seed=300 + k)
        down, up = generator.random_link_failure()

        baseline = SnapshotDiff(analyzer.snapshot.clone())
        base_seconds, reference = time_call(
            lambda: baseline.analyze(down), repeat=1
        )
        dna_seconds, report = time_call(lambda: analyzer.analyze(down), repeat=1)
        assert report.behavior_signature() == reference.behavior_signature()
        analyzer.analyze(up)

        routers = scenario.topology.num_routers()
        counters = report.counters
        share = counters["atoms_analyzed"] / counters["atoms_total"]
        shares.append(share)
        table.add(
            f"fat-tree k={k}",
            routers=routers,
            spf_sources=f"{counters['spf_sources_recomputed']}/{routers}",
            atoms_share=share,
            dna_ms=dna_seconds * 1e3,
            baseline_ms=base_seconds * 1e3,
            speedup=base_seconds / dna_seconds,
        )
    table.emit()

    # Shape check: the re-analysed share of atoms does not grow with
    # the fabric.
    assert shares == sorted(shares, reverse=True), shares
