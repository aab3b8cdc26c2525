"""F5 — phase breakdown of the incremental analyzer.

Reproduces the time-breakdown figure: where each change kind spends
its time inside DNA (edit handling + SPF surgery, IGP route refresh,
BGP re-solving, FIB recomposition, differential reachability).
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf, internet2_bgp

PHASES = ("edits", "igp", "bgp", "fib", "reachability")


def _row(table: Table, label: str, report) -> None:
    values = {phase: report.timings[phase] * 1e3 for phase in PHASES}
    values["total_ms"] = report.timings["total"] * 1e3
    table.add(label, **values)


def test_f5_phase_breakdown():
    table = Table(
        "F5: DNA phase breakdown (milliseconds)",
        list(PHASES) + ["total_ms"],
    )

    fabric = fat_tree_ospf(6)
    analyzer = DifferentialNetworkAnalyzer(fabric.snapshot)
    generator = ChangeGenerator(fabric, seed=500)

    down, up = generator.random_link_failure()
    _row(table, "link failure (k=6)", analyzer.analyze(down))
    _row(table, "link recovery (k=6)", analyzer.analyze(up))

    add, remove = generator.random_static_route()
    _row(table, "static add (k=6)", analyzer.analyze(add))
    analyzer.analyze(remove)

    block, unblock = generator.random_acl_block()
    _row(table, "acl block (k=6)", analyzer.analyze(block))
    analyzer.analyze(unblock)

    wan = internet2_bgp()
    wan_analyzer = DifferentialNetworkAnalyzer(wan.snapshot)
    wan_generator = ChangeGenerator(wan, seed=501)
    flip = wan_generator.dual_homed_pref_flip(100, 200)
    _row(table, "local-pref flip (wan)", wan_analyzer.analyze(flip))
    wan_analyzer.analyze(wan_generator.dual_homed_pref_flip(200, 100))

    table.emit()
