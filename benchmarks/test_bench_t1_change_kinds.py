"""T1 — end-to-end latency per change kind: DNA vs snapshot-diff.

Reproduces the paper family's headline table: for each change kind,
the time to compute the full impact (control plane + forwarding +
reachability deltas) incrementally, against the Batfish-style
simulate-both-and-diff baseline, on a fat-tree k=6 (IGP kinds) and the
Internet2 WAN (BGP kinds).

Expected shape: DNA wins by 1–3 orders of magnitude on small changes;
both paths must report identical deltas (checked here, not assumed).
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.snapshot_diff import SnapshotDiff
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf, internet2_bgp


def _measure_pair(analyzer, forward, backward):
    """(dna seconds, baseline seconds) for one restorable change."""
    baseline = SnapshotDiff(analyzer.snapshot.clone())
    base_time, reference = time_call(lambda: baseline.analyze(forward), repeat=1)
    dna_time, report = time_call(lambda: analyzer.analyze(forward), repeat=1)
    assert report.behavior_signature() == reference.behavior_signature()
    analyzer.analyze(backward)  # restore
    return dna_time, base_time


def test_t1_change_kinds():
    table = Table(
        "T1: per-change-kind analysis latency",
        ["network", "dna_ms", "baseline_ms", "speedup"],
    )

    fabric = fat_tree_ospf(6)
    analyzer = DifferentialNetworkAnalyzer(fabric.snapshot)
    generator = ChangeGenerator(fabric, seed=101)

    down, up = generator.random_link_failure()
    dna, base = _measure_pair(analyzer, down, up)
    table.add("link failure", network="fat-tree k=6", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    add, remove = generator.random_static_route()
    dna, base = _measure_pair(analyzer, add, remove)
    table.add("static route add", network="fat-tree k=6", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    cost = generator.random_ospf_cost()
    restore = generator.random_ospf_cost()  # any cost restores validity
    dna, base = _measure_pair(analyzer, cost, restore)
    table.add("ospf cost change", network="fat-tree k=6", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    block, unblock = generator.random_acl_block()
    dna, base = _measure_pair(analyzer, block, unblock)
    table.add("acl block subnet", network="fat-tree k=6", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    wan = internet2_bgp()
    wan_analyzer = DifferentialNetworkAnalyzer(wan.snapshot)
    wan_generator = ChangeGenerator(wan, seed=102)

    announce, withdraw = wan_generator.random_prefix_flap()
    dna, base = _measure_pair(wan_analyzer, announce, withdraw)
    table.add("bgp announce", network="internet2", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    flip = wan_generator.dual_homed_pref_flip(100, 200)
    flip_back = wan_generator.dual_homed_pref_flip(200, 100)
    dna, base = _measure_pair(wan_analyzer, flip, flip_back)
    table.add("bgp local-pref flip", network="internet2", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    wan_down, wan_up = wan_generator.random_link_failure()
    dna, base = _measure_pair(wan_analyzer, wan_down, wan_up)
    table.add("wan link failure", network="internet2", dna_ms=dna * 1e3,
              baseline_ms=base * 1e3, speedup=base / dna)

    table.emit()
