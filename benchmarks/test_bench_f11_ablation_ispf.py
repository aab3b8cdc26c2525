"""F11 — ablation: dynamic SPF vs from-scratch Dijkstra per source.

The second design choice DESIGN.md calls out: the incremental OSPF
layer maintains one Ramalingam–Reps style :class:`DynamicSpf` per
(source, area) instead of re-running Dijkstra for every source on
every change.  Two effects are measured on a fat-tree:

1. the O(1) *unaffected-source* check (most sources never touch a
   failed edge-of-the-fabric link), and
2. the bounded re-settling for affected sources (only the orphaned
   region is re-explored).
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.controlplane.ispf import DynamicSpf
from repro.controlplane.ospf import build_ospf_state
from repro.controlplane.spf import dijkstra
from repro.workloads.scenarios import fat_tree_ospf


def test_f11_ispf_ablation():
    table = Table(
        "F11: SPF maintenance per link flap (all sources)",
        ["sources", "dynamic_ms", "full_dijkstra_ms", "speedup"],
    )
    for k in (4, 6, 8):
        scenario = fat_tree_ospf(k)
        state = build_ospf_state(scenario.snapshot)
        graph = state.graphs[0]
        sources = graph.nodes()
        dynamics = {source: DynamicSpf(graph, source) for source in sources}

        # Flap a pod-edge uplink: few sources lose paths through it.
        edge_router = scenario.fabric.routers_with_role("edge")[0]
        agg_router = scenario.fabric.routers_with_role("agg")[0]
        cost = graph.cost(edge_router, agg_router)
        attachments = graph.attachments[(edge_router, agg_router)]
        reverse_cost = graph.cost(agg_router, edge_router)
        reverse_attachments = graph.attachments[(agg_router, edge_router)]

        def dynamic_flap():
            graph.remove_edge(edge_router, agg_router)
            graph.remove_edge(agg_router, edge_router)
            for dynamic in dynamics.values():
                dynamic.edge_increased(edge_router, agg_router)
                dynamic.edge_increased(agg_router, edge_router)
            graph.set_edge(edge_router, agg_router, int(cost), attachments)
            graph.set_edge(agg_router, edge_router, int(reverse_cost), reverse_attachments)
            for dynamic in dynamics.values():
                dynamic.edge_decreased(edge_router, agg_router)
                dynamic.edge_decreased(agg_router, edge_router)

        dynamic_seconds, _ = time_call(dynamic_flap, repeat=2)

        def full_flap():
            graph.remove_edge(edge_router, agg_router)
            graph.remove_edge(agg_router, edge_router)
            for source in sources:
                dijkstra(graph, source)
            graph.set_edge(edge_router, agg_router, int(cost), attachments)
            graph.set_edge(agg_router, edge_router, int(reverse_cost), reverse_attachments)
            for source in sources:
                dijkstra(graph, source)

        full_seconds, _ = time_call(full_flap, repeat=2)

        # Consistency: dynamic state equals fresh Dijkstra afterwards.
        for source in sources[:3]:
            dist, _parents = dijkstra(graph, source)
            assert dict(dynamics[source].dist) == dist

        table.add(
            f"fat-tree k={k}",
            sources=len(sources),
            dynamic_ms=dynamic_seconds * 1e3,
            full_dijkstra_ms=full_seconds * 1e3,
            speedup=full_seconds / max(dynamic_seconds, 1e-9),
        )
    table.emit()
