"""T9 — correctness: incremental == full recompute, with speedups.

Reproduces the evaluation's correctness claim as a measured table: a
randomized change stream per scenario family, every step checked
against the snapshot-diff baseline; the pass rate must be 100% and the
aggregate speedup is reported alongside.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.oracle import EquivalenceOracle
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf, internet2_bgp, ring_ospf


def _drive(oracle, generator, kinds, steps):
    for _ in range(steps):
        kind = generator.rng.choice(kinds)
        if kind == "link":
            down, up = generator.random_link_failure()
            oracle.step(down)
            oracle.step(up)
        elif kind == "static":
            add, remove = generator.random_static_route()
            oracle.step(add)
            oracle.step(remove)
        elif kind == "cost":
            oracle.step(generator.random_ospf_cost())
        elif kind == "acl":
            block, unblock = generator.random_acl_block()
            oracle.step(block)
            oracle.step(unblock)
        elif kind == "prefix":
            announce, withdraw = generator.random_prefix_flap()
            oracle.step(announce)
            oracle.step(withdraw)
        elif kind == "pref":
            oracle.step(generator.dual_homed_pref_flip(100, 200))
            oracle.step(generator.dual_homed_pref_flip(200, 100))


def test_t9_equivalence():
    table = Table(
        "T9: incremental vs full equivalence (randomized streams)",
        ["changes", "pass_rate", "dna_total_s", "baseline_total_s", "speedup"],
    )
    cases = [
        ("ring n=8", ring_ospf(8), ["link", "static", "cost"], 6),
        ("fat-tree k=4", fat_tree_ospf(4), ["link", "static", "cost", "acl"], 5),
        (
            "internet2",
            internet2_bgp(),
            ["link", "static", "cost", "acl", "prefix", "pref"],
            5,
        ),
    ]
    for label, scenario, kinds, steps in cases:
        oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
        generator = ChangeGenerator(scenario, seed=900)
        _drive(oracle, generator, kinds, steps)
        assert oracle.stats.pass_rate == 1.0
        table.add(
            label,
            changes=oracle.stats.checked,
            pass_rate=oracle.stats.pass_rate,
            dna_total_s=oracle.stats.incremental_time,
            baseline_total_s=oracle.stats.baseline_time,
            speedup=oracle.stats.mean_speedup,
        )
    table.emit()
