"""The paper's primary contribution: differential network analysis.

- :mod:`~repro.core.snapshot` — a network snapshot (topology +
  configs) with on-disk round-tripping.
- :mod:`~repro.core.change` — the primitive configuration edits and
  the :class:`~repro.core.change.Change` batch container.
- :mod:`~repro.core.analyzer` — the incremental analyzer
  (:class:`~repro.core.analyzer.DifferentialNetworkAnalyzer`): change
  in, control-plane/forwarding/reachability deltas out, without
  re-simulating the network.  ``analyze_batch`` converges a whole
  sequence of changes in one recompute pass.
- :mod:`~repro.core.handlers` — the change-handler registry (stage 1
  of the pipeline): per-edit-type extraction functions, extensible via
  :func:`~repro.core.handlers.register_change_handler`.
- :mod:`~repro.core.pipeline` — the
  :class:`~repro.core.pipeline.DirtySet` intermediate representation
  and the runner of the scoped recompute + differential data plane
  stages, which live in :mod:`~repro.core.stages`.
- :mod:`~repro.core.forking` — the undo journal behind the analyzer's
  ``what_if`` / ``fork()`` speculative-analysis API.
- :mod:`~repro.core.snapshot_diff` — the Batfish-style baseline:
  simulate both snapshots fully and diff.
- :mod:`~repro.core.delta` — the common delta report both produce.
- :mod:`~repro.core.invariants` — invariant checks evaluated over
  deltas (reachability, isolation, loops, blackholes).
"""

from typing import Any

__all__ = [
    "Change",
    "DeltaReport",
    "DifferentialNetworkAnalyzer",
    "DirtySet",
    "Snapshot",
    "SnapshotDiff",
    "register_change_handler",
    "registered_change_handlers",
]

_LAZY = {
    "Change": ("repro.core.change", "Change"),
    "DeltaReport": ("repro.core.delta", "DeltaReport"),
    "DifferentialNetworkAnalyzer": ("repro.core.analyzer", "DifferentialNetworkAnalyzer"),
    "DirtySet": ("repro.core.pipeline", "DirtySet"),
    "Snapshot": ("repro.core.snapshot", "Snapshot"),
    "SnapshotDiff": ("repro.core.snapshot_diff", "SnapshotDiff"),
    "register_change_handler": ("repro.core.handlers", "register_change_handler"),
    "registered_change_handlers": ("repro.core.handlers", "registered_change_handlers"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value
