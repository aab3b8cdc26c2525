#!/usr/bin/env python3
"""Quickstart: differential analysis of one link failure.

Builds a small OSPF ring, wraps it in the `repro.api.Network` session
facade (one full convergence), then asks: *what exactly happens if the
r0--r1 link fails?* — first as a non-committing `preview`, then as a
committed `apply`, with the Batfish-style snapshot-diff baseline run
alongside to show the agreement and the work saved.

Run:  python examples/quickstart.py
"""

from repro.api import ChangeSet, Network
from repro.core.snapshot_diff import SnapshotDiff


def main() -> None:
    net = Network.generate("ring", size=8)
    print(f"scenario: {net.summary()}")

    print("\nconverging the network once (the session's warm state)...")
    atoms = net.state.dataplane.atom_table.num_atoms()
    print(f"converged: {atoms} packet-equivalence atoms")

    failure = ChangeSet("fail r0--r1").link_down("r0", "r1")
    print(f"\npreviewing change: {failure.describe()}")

    preview = net.preview(failure)           # fork-backed, non-committing
    print("\n" + preview.summary())

    # Committing gives the identical report; the baseline agrees.
    baseline = SnapshotDiff(net.snapshot.clone())
    reference = baseline.analyze(failure.build())
    report = net.apply(failure)

    agree = (
        report.behavior_signature() == reference.behavior_signature()
        and report.behavior_signature() == preview.behavior_signature()
    )
    print(f"\npreview, commit, and snapshot-diff baseline agree: {agree}")
    print(
        f"atoms analyzed: differential {report.counters['atoms_analyzed']}, "
        f"baseline {reference.counters['atoms_analyzed']}"
    )

    # Show a concrete rerouted FIB entry.
    for router, changes in sorted(report.fib_changes.items()):
        for prefix, (before, after) in sorted(changes.items(), key=lambda kv: kv[0]):
            if before is not None and after is not None:
                print(f"\nexample reroute on {router}:")
                print(f"  before: {before}")
                print(f"  after:  {after}")
                break
        else:
            continue
        break

    # Every outcome serializes to versioned JSON, byte-stably.
    document = report.to_dict()
    print(f"\nreport serializes as schema v{document['schema_version']} "
          f"({document['kind']})")

    print("\nrecovering the link...")
    recovery = net.apply(ChangeSet("recover").link_up("r0", "r1"))
    print(f"recovery impact mirrors the failure: {not recovery.is_empty()}")


if __name__ == "__main__":
    main()
