"""Batched multi-edit analysis vs N sequential analyzes.

The batch pipeline's economic claim: a ChangeSet of N edits applied
through ``analyze_batch`` — all edits to control-plane state first,
one merged DirtySet, one scoped recompute + differential data plane
pass — does less work than N sequential ``analyze`` calls, because the
per-pass costs (SPF route refreshes per affected source, FIB
resolution, reachability closure, BGP next-hop fingerprints) are paid once
instead of N times.  The gate is on work counters: on the 20-router
fat-tree k=4 the batched k=8 mixed run makes one recompute pass
against eight, and recomputes fewer SPF sources and fewer atoms than
the eight sequential runs summed.  Wall time is printed, not gated.

Correctness rides along: the batched report's behaviour signature
must equal the sequential composition's.
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.bench.workloads import mixed_k8_batch
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.delta import compose_reports
from repro.workloads.scenarios import fat_tree_ospf

WORK = ("spf_sources_recomputed", "atoms_analyzed")


def test_batch_apply_beats_sequential():
    scenario = fat_tree_ospf(4)
    changes, recovery = mixed_k8_batch(scenario)
    edits = sum(len(c.edits) for c in changes)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    passes = analyzer.metrics.counter("pipeline.passes")

    start = passes.value
    sequential_s, sequential_reports = time_call(
        lambda: [analyzer.analyze(change) for change in changes], repeat=1
    )
    sequential_passes = passes.value - start
    analyzer.analyze_batch(recovery)

    start = passes.value
    batched_s, batched_report = time_call(
        lambda: analyzer.analyze_batch(changes, label="k8"), repeat=1
    )
    batched_passes = passes.value - start
    analyzer.analyze_batch(recovery)

    composed = compose_reports(sequential_reports, label="k8")
    assert (
        batched_report.behavior_signature() == composed.behavior_signature()
    )
    assert batched_report.counters["edits_batched"] == edits

    sequential_work = {
        key: sum(report.counters[key] for report in sequential_reports)
        for key in WORK
    }
    batched_work = {key: batched_report.counters[key] for key in WORK}
    table = Table(
        "Batched k=8 mixed apply vs 8 sequential analyzes "
        "(fat-tree k=4, 20 routers)",
        ["edits", "passes", *WORK, "ms"],
    )
    table.add(
        "sequential (8 analyzes)",
        edits=edits,
        passes=sequential_passes,
        ms=sequential_s * 1e3,
        **sequential_work,
    )
    table.add(
        "batched (1 analyze_batch)",
        edits=edits,
        passes=batched_passes,
        ms=batched_s * 1e3,
        **batched_work,
    )
    table.emit()

    assert sequential_passes == len(changes)
    assert batched_passes == 1
    for key in WORK:
        assert batched_work[key] < sequential_work[key], key
