"""F7 — incremental Datalog micro-benchmark.

Reproduces the runtime-layer figure: maintaining a recursive view
(transitive closure) under single-edge updates with the incremental
engine (counting + DRed) versus re-evaluating from scratch, across
graph sizes.  This quantifies the substrate the paper builds on — and
the Python tax the reproduction band warns about.
"""

from __future__ import annotations

import random

from repro.bench.harness import Table, time_call
from repro.datalog.ast import Program, Rule, Variable, atom
from repro.datalog.database import Database
from repro.datalog.engine import evaluate_program
from repro.datalog.incremental import IncrementalProgram

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
TC = [
    Rule(atom("path", X, Y), [atom("edge", X, Y)]),
    Rule(atom("path", X, Z), [atom("path", X, Y), atom("edge", Y, Z)]),
]


def random_edges(n: int, m: int, seed: int) -> set[tuple[int, int]]:
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return edges


def test_f7_incremental_datalog():
    table = Table(
        "F7: transitive closure maintenance (single-edge update)",
        ["edges", "full_ms", "inc_insert_ms", "inc_delete_ms", "speedup_ins"],
    )
    for n, m in ((20, 40), (40, 90), (60, 150)):
        edges = random_edges(n, m, seed=n)
        probe = next(iter(edges))

        def full_eval() -> Database:
            db = Database()
            db.relation("edge", 2).load(edges)
            evaluate_program(Program(TC), db)
            return db

        full_seconds, _ = time_call(full_eval, repeat=2)

        db = Database()
        db.relation("edge", 2).load(edges - {probe})
        incremental = IncrementalProgram(Program(TC), db)
        insert_seconds, _ = time_call(
            lambda: incremental.apply(inserts={"edge": {probe}}), repeat=1
        )
        delete_seconds, _ = time_call(
            lambda: incremental.apply(deletes={"edge": {probe}}), repeat=1
        )
        table.add(
            f"n={n}",
            edges=m,
            full_ms=full_seconds * 1e3,
            inc_insert_ms=insert_seconds * 1e3,
            inc_delete_ms=delete_seconds * 1e3,
            speedup_ins=full_seconds / max(insert_seconds, 1e-9),
        )
    table.emit()
