"""F5 — phase breakdown of the incremental analyzer.

Reproduces the time-breakdown figure: where each change kind spends
its time inside DNA (edit handling + SPF surgery, IGP route refresh,
BGP re-solving, FIB recomposition, differential reachability), read
from the spans of a recording tracer.
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.obs import Tracer
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf, internet2_bgp

PHASES = {
    "edits": "analyze.edits",
    "igp": "pipeline.igp",
    "bgp": "pipeline.bgp",
    "fib": "pipeline.fib",
    "reachability": "pipeline.reachability",
}


def _row(table: Table, label: str, analyzer, change) -> None:
    analyzer.tracer.reset()
    analyzer.analyze(change)
    batch = analyzer.tracer.find("analyze.batch")
    values = {
        phase: batch.find(span).duration * 1e3
        for phase, span in PHASES.items()
    }
    values["total_ms"] = batch.duration * 1e3
    table.add(label, **values)


def test_f5_phase_breakdown():
    table = Table(
        "F5: DNA phase breakdown (milliseconds)",
        list(PHASES) + ["total_ms"],
    )

    fabric = fat_tree_ospf(6)
    analyzer = DifferentialNetworkAnalyzer(fabric.snapshot, tracer=Tracer())
    generator = ChangeGenerator(fabric, seed=500)

    down, up = generator.random_link_failure()
    _row(table, "link failure (k=6)", analyzer, down)
    _row(table, "link recovery (k=6)", analyzer, up)

    add, remove = generator.random_static_route()
    _row(table, "static add (k=6)", analyzer, add)
    analyzer.analyze(remove)

    block, unblock = generator.random_acl_block()
    _row(table, "acl block (k=6)", analyzer, block)
    analyzer.analyze(unblock)

    wan = internet2_bgp()
    wan_analyzer = DifferentialNetworkAnalyzer(wan.snapshot, tracer=Tracer())
    wan_generator = ChangeGenerator(wan, seed=501)
    flip = wan_generator.dual_homed_pref_flip(100, 200)
    _row(table, "local-pref flip (wan)", wan_analyzer, flip)
    wan_analyzer.analyze(wan_generator.dual_homed_pref_flip(200, 100))

    table.emit()
