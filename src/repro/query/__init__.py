"""User-facing queries over converged network state.

- :mod:`~repro.query.trace` — packet-level forwarding traces: inject a
  concrete packet at a router and follow every ECMP branch through
  FIB lookups and exact (4-field) ACL evaluation to its fates
  (delivered / dropped / blackholed / looping).
- :mod:`~repro.query.paths` — differential path queries: how did the
  forwarding DAG between two routers change across a delta report?

The supported entry points are :meth:`repro.api.Network.trace`,
:meth:`~repro.api.Network.paths`, and
:meth:`~repro.api.Network.path_diff`.
"""

from repro.query.trace import Hop, PacketTrace, TraceOutcome
from repro.query.paths import ForwardingPaths, PathDiff

__all__ = [
    "ForwardingPaths",
    "Hop",
    "PacketTrace",
    "PathDiff",
    "TraceOutcome",
]
