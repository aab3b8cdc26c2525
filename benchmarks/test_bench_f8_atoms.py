"""F8 — atom maintenance: incremental vs full re-decomposition.

Reproduces the data-plane-layer figure: the cost of keeping the atom
table and per-atom actions consistent under FIB churn, incrementally
(register/unregister cut points, inherit split actions) versus
rebuilding the DataPlane from scratch per change.
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.controlplane.rib import NextHop
from repro.controlplane.simulation import simulate
from repro.dataplane.fib import Fib, FibEntry
from repro.dataplane.forwarding import DataPlane
from repro.net.addr import Prefix
from repro.workloads.scenarios import fat_tree_ospf

SCRATCH = Prefix("10.254.0.0/16").first


def _rebuild_fibs(state) -> dict[str, Fib]:
    copies: dict[str, Fib] = {}
    for router, fib in state.dataplane.fibs.items():
        copy = Fib(router)
        for entry in fib.entries():
            copy.install(entry)
        copies[router] = copy
    return copies


def test_f8_atom_maintenance():
    scenario = fat_tree_ospf(6)
    state = simulate(scenario.snapshot)
    router = scenario.fabric.routers_with_role("edge")[0]
    neighbor = next(iter(scenario.topology.neighbors(router)))[0]

    table = Table(
        "F8: atom maintenance under FIB churn (fat-tree k=6)",
        ["atoms", "incremental_ms", "full_rebuild_ms", "speedup"],
    )

    for batch_index, batch in enumerate((1, 8, 32)):
        entries = [
            FibEntry(
                Prefix(SCRATCH + 256 * (batch_index * 100 + i), 24),
                frozenset({NextHop(interface="eth0", neighbor=neighbor)}),
            )
            for i in range(batch)
        ]

        def incremental() -> None:
            for entry in entries:
                state.dataplane.update_fib_entry(router, entry.prefix, entry)
            for entry in entries:
                state.dataplane.update_fib_entry(router, entry.prefix, None)

        incremental_seconds, _ = time_call(incremental, repeat=2)

        def full_rebuild() -> DataPlane:
            fibs = _rebuild_fibs(state)
            for entry in entries:
                fibs[router].install(entry)
            return DataPlane(scenario.snapshot, fibs)

        rebuild_seconds, _ = time_call(full_rebuild, repeat=2)
        table.add(
            f"churn {batch} prefixes",
            atoms=state.dataplane.atom_table.num_atoms(),
            incremental_ms=incremental_seconds * 1e3,
            full_rebuild_ms=rebuild_seconds * 1e3,
            speedup=rebuild_seconds / max(incremental_seconds, 1e-9),
        )
    table.emit()
