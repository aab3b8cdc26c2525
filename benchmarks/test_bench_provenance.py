"""Provenance must not widen what the pipeline recomputes.

Attribution rides the existing dirty-set machinery: handlers already
compute the per-edit footprints, so provenance mode only adds origin
stamping on merge, cause-set lookups per delta, and event-log appends.
The gate is on work counters of the k=8 mixed batch: provenance on
recomputes exactly the SPF sources, atoms, FIB entries and BGP
prefixes provenance off does, and reports the same behaviour.  (That
an attached event log stays silent with provenance off is asserted in
``tests/test_provenance.py``.)  Wall time is printed, not gated.
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.bench.workloads import mixed_k8_batch
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.obs import EventLog
from repro.workloads.scenarios import fat_tree_ospf

WORK = (
    "spf_sources_recomputed",
    "atoms_analyzed",
    "fib_entries_updated",
    "bgp_prefixes_resolved",
)


def test_provenance_does_the_same_recompute_work():
    table = Table(
        "Provenance on vs off on the k=8 mixed batch "
        "(fat-tree k=4, 20 routers)",
        ["ms", *WORK],
    )
    scenario = fat_tree_ospf(4)
    changes, _recovery = mixed_k8_batch(scenario)
    analyzer = DifferentialNetworkAnalyzer(
        scenario.snapshot.clone(), events=EventLog()
    )

    reports = {}
    for flag in (False, True):
        seconds, report = time_call(
            lambda: analyzer.what_if_batch(changes, provenance=flag),
            repeat=3,
        )
        reports[flag] = report
        table.add(
            f"provenance {'on' if flag else 'off'}",
            ms=seconds * 1e3,
            **{key: report.counters[key] for key in WORK},
        )
    table.emit()

    off, on = reports[False], reports[True]
    assert off.provenance is None and on.provenance is not None
    assert on.behavior_signature() == off.behavior_signature()
    for key in WORK:
        assert on.counters[key] == off.counters[key], key
