"""Differential Network Analysis (DNA).

A reproduction of the NSDI 2022 system for *incremental* network
configuration verification.  Given a network snapshot (topology +
device configurations) and a configuration change, DNA computes the
delta in control-plane routes, forwarding state, and reachability
directly — without re-simulating the whole network — and compares
against a Batfish-style full snapshot-diff baseline.

The supported entry point is the :mod:`repro.api` session facade::

    from repro import Network, ChangeSet

    net = Network.generate("fat_tree", size=4)
    report = net.preview(ChangeSet().link_down("agg0_0", "core0"))

Top-level convenience re-exports also cover the engine-level API::

    from repro import (
        Snapshot, DifferentialNetworkAnalyzer, SnapshotDiff,
        LinkDown, fat_tree, internet2,
    )

Attributes are resolved lazily (PEP 562) so ``import repro`` stays
cheap and subpackages can be used independently.  See ``DESIGN.md``
for the system inventory and ``EXPERIMENTS.md`` for the reproduced
evaluation.
"""

from typing import Any

__version__ = "1.0.0"

# name -> (module, attribute)
_EXPORTS = {
    "Network": ("repro.api", "Network"),
    "ChangeSet": ("repro.api", "ChangeSet"),
    "Tracer": ("repro.obs", "Tracer"),
    "NullTracer": ("repro.obs", "NullTracer"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "SchemaError": ("repro.core.serialize", "SchemaError"),
    "Invariant": ("repro.core.invariants", "Invariant"),
    "Violation": ("repro.core.invariants", "Violation"),
    "register_invariant": ("repro.core.invariants", "register_invariant"),
    "make_invariant": ("repro.core.invariants", "make_invariant"),
    "registered_invariants": (
        "repro.core.invariants",
        "registered_invariants",
    ),
    "IPv4Address": ("repro.net.addr", "IPv4Address"),
    "Prefix": ("repro.net.addr", "Prefix"),
    "Topology": ("repro.topology.model", "Topology"),
    "fat_tree": ("repro.topology.generators", "fat_tree"),
    "grid": ("repro.topology.generators", "grid"),
    "internet2": ("repro.topology.generators", "internet2"),
    "line": ("repro.topology.generators", "line"),
    "random_gnm": ("repro.topology.generators", "random_gnm"),
    "ring": ("repro.topology.generators", "ring"),
    "star": ("repro.topology.generators", "star"),
    "DeviceConfig": ("repro.config.device", "DeviceConfig"),
    "Snapshot": ("repro.core.snapshot", "Snapshot"),
    "DifferentialNetworkAnalyzer": ("repro.core.analyzer", "DifferentialNetworkAnalyzer"),
    "SnapshotDiff": ("repro.core.snapshot_diff", "SnapshotDiff"),
    "DeltaReport": ("repro.core.delta", "DeltaReport"),
    "Change": ("repro.core.change", "Change"),
    "AddAclRule": ("repro.core.change", "AddAclRule"),
    "AddBgpNeighbor": ("repro.core.change", "AddBgpNeighbor"),
    "AddRouteMapClause": ("repro.core.change", "AddRouteMapClause"),
    "AddStaticRoute": ("repro.core.change", "AddStaticRoute"),
    "AnnouncePrefix": ("repro.core.change", "AnnouncePrefix"),
    "DisableOspfInterface": ("repro.core.change", "DisableOspfInterface"),
    "EnableOspfInterface": ("repro.core.change", "EnableOspfInterface"),
    "LinkDown": ("repro.core.change", "LinkDown"),
    "LinkUp": ("repro.core.change", "LinkUp"),
    "RemoveAclRule": ("repro.core.change", "RemoveAclRule"),
    "RemoveBgpNeighbor": ("repro.core.change", "RemoveBgpNeighbor"),
    "RemoveRouteMapClause": ("repro.core.change", "RemoveRouteMapClause"),
    "RemoveStaticRoute": ("repro.core.change", "RemoveStaticRoute"),
    "SetLocalPref": ("repro.core.change", "SetLocalPref"),
    "SetOspfCost": ("repro.core.change", "SetOspfCost"),
    "ShutdownInterface": ("repro.core.change", "ShutdownInterface"),
    "EnableInterface": ("repro.core.change", "EnableInterface"),
    "WithdrawPrefix": ("repro.core.change", "WithdrawPrefix"),
    "parse_change": ("repro.core.change_text", "parse_change"),
    "parse_change_batch": ("repro.core.change_text", "parse_change_batch"),
    "serialize_change": ("repro.core.change_text", "serialize_change"),
    "serialize_change_batch": (
        "repro.core.change_text",
        "serialize_change_batch",
    ),
    "DirtySet": ("repro.core.pipeline", "DirtySet"),
    "register_change_handler": (
        "repro.core.handlers",
        "register_change_handler",
    ),
    "registered_change_handlers": (
        "repro.core.handlers",
        "registered_change_handlers",
    ),
    "compose_reports": ("repro.core.delta", "compose_reports"),
    "EquivalenceOracle": ("repro.core.oracle", "EquivalenceOracle"),
    "simulate": ("repro.controlplane.simulation", "simulate"),
    "CampaignReport": ("repro.campaign.report", "CampaignReport"),
    "CampaignRunner": ("repro.campaign.runner", "CampaignRunner"),
    "ScenarioOutcome": ("repro.campaign.report", "ScenarioOutcome"),
    "WhatIfScenario": ("repro.campaign.scenarios", "WhatIfScenario"),
    "acl_block_sweep": ("repro.campaign.scenarios", "acl_block_sweep"),
    "all_single_link_failures": (
        "repro.campaign.scenarios",
        "all_single_link_failures",
    ),
    "bgp_policy_sweep": ("repro.campaign.scenarios", "bgp_policy_sweep"),
    "sampled_k_link_failures": (
        "repro.campaign.scenarios",
        "sampled_k_link_failures",
    ),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value  # cache for next access
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
