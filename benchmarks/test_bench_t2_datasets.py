"""T2 — dataset summary: topology sizes, routes, atoms, convergence.

Reproduces the evaluation's dataset table: for every topology family,
the scale of the derived state (FIB entries, atoms) and the cost of
one full convergence (what the baseline pays per change).
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.controlplane.simulation import simulate
from repro.workloads.scenarios import (
    fat_tree_ospf,
    geant_ospf,
    internet2_bgp,
    line_static,
    random_ospf,
    ring_ospf,
)


def test_t2_datasets():
    table = Table(
        "T2: datasets",
        ["routers", "links", "fib_entries", "atoms", "full_sim_ms"],
    )
    scenarios = [
        line_static(8),
        ring_ospf(16),
        random_ospf(24, 24, seed=7),
        fat_tree_ospf(4),
        fat_tree_ospf(6),
        internet2_bgp(),
        geant_ospf(),
    ]
    for scenario in scenarios:
        seconds, state = time_call(
            lambda s=scenario: simulate(s.snapshot, precompute_reachability=True),
            repeat=1,
        )
        stats = state.dataplane.stats()
        table.add(
            scenario.name,
            routers=scenario.topology.num_routers(),
            links=scenario.topology.num_links(),
            fib_entries=stats["fib_entries"],
            atoms=stats["atoms"],
            full_sim_ms=seconds * 1e3,
        )
    table.emit()
