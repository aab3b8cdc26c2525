"""F10 — ablation: generic differential Datalog vs specialized engines.

Two design choices the DESIGN calls out get quantified:

1. **Reachability maintenance**: the generic incremental-Datalog view
   (DRed over the per-atom `fwd`/`delivers` facts) versus the
   specialized per-atom reverse-BFS recompute DNA actually ships —
   justifying the substitution noted in DESIGN.md ("incremental
   datalog performance suffers" in Python).
2. **Deletions vs insertions** in the Datalog engine itself: DRed's
   overdelete/rederive makes deletions more expensive than counting
   insertions; the asymmetry is the figure's second series.
"""

from __future__ import annotations

import random

from repro.bench.harness import Table, time_call
from repro.controlplane.datalog_model import DatalogReachability
from repro.datalog.ast import Program, Rule, Variable, atom
from repro.datalog.database import Database
from repro.datalog.incremental import IncrementalProgram
from repro.workloads.scenarios import fat_tree_ospf

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
TC = [
    Rule(atom("path", X, Y), [atom("edge", X, Y)]),
    Rule(atom("path", X, Z), [atom("path", X, Y), atom("edge", Y, Z)]),
]


def test_f10_dred_ablation():
    # Part 1: reachability maintenance, specialized vs datalog-backed,
    # on identical inputs (the per-atom fwd/delivers facts of a
    # fat-tree k=4).
    from repro.controlplane.simulation import simulate
    from repro.dataplane.reachability import compute_atom_reachability

    scenario = fat_tree_ospf(4)
    state = simulate(scenario.snapshot)
    atoms = list(state.dataplane.atom_table.atoms())

    def specialized_full():
        return [compute_atom_reachability(state.dataplane, a) for a in atoms]

    specialized_full_seconds, _ = time_call(specialized_full, repeat=1)

    datalog_full_seconds, model = time_call(
        lambda: DatalogReachability(state.dataplane), repeat=1
    )

    # Incremental step: retract one forwarding edge of a busy atom.
    probe = next(row for row in model._fwd)
    probe_atom = next(a for a in atoms if (a.lo, a.hi) == probe[0])

    def specialized_one_atom():
        return compute_atom_reachability(state.dataplane, probe_atom)

    specialized_inc_seconds, _ = time_call(specialized_one_atom, repeat=2)

    def datalog_one_edge():
        model.incremental.apply(deletes={"fwd": {probe}})
        model.incremental.apply(inserts={"fwd": {probe}})

    datalog_inc_seconds, _ = time_call(datalog_one_edge, repeat=1)

    table = Table(
        "F10a: reachability maintenance (fat-tree k=4)",
        ["full_ms", "one_update_ms"],
    )
    table.add(
        "specialized per-atom reverse-BFS (DNA)",
        full_ms=specialized_full_seconds * 1e3,
        one_update_ms=specialized_inc_seconds * 1e3,
    )
    table.add(
        "generic incremental datalog (DRed)",
        full_ms=datalog_full_seconds * 1e3,
        one_update_ms=datalog_inc_seconds * 1e3 / 2,
    )
    table.emit()

    # Part 2: insertion/deletion asymmetry in the Datalog engine.
    rng = random.Random(10)
    nodes = 40
    edges = set()
    while len(edges) < 100:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            edges.add((u, v))
    probes = rng.sample(sorted(edges), 10)

    db = Database()
    db.relation("edge", 2).load(edges)
    incremental = IncrementalProgram(Program(TC), db)

    def deletions():
        for probe in probes:
            incremental.apply(deletes={"edge": {probe}})
        for probe in probes:
            incremental.apply(inserts={"edge": {probe}})

    total_seconds, _ = time_call(deletions, repeat=1)

    delete_seconds = 0.0
    insert_seconds = 0.0
    for probe in probes:
        seconds, _ = time_call(
            lambda: incremental.apply(deletes={"edge": {probe}}), repeat=1
        )
        delete_seconds += seconds
        seconds, _ = time_call(
            lambda: incremental.apply(inserts={"edge": {probe}}), repeat=1
        )
        insert_seconds += seconds

    table = Table(
        "F10b: DRed deletion vs counting insertion (TC, n=40, m=100)",
        ["total_ms", "per_op_ms"],
    )
    table.add(
        "deletions (overdelete + rederive)",
        total_ms=delete_seconds * 1e3,
        per_op_ms=delete_seconds * 1e2,
    )
    table.add(
        "insertions (semi-naive)",
        total_ms=insert_seconds * 1e3,
        per_op_ms=insert_seconds * 1e2,
    )
    table.emit()
