"""Shared benchmark workloads.

One definition of the measured change batches, imported by both the
pytest benchmarks (``benchmarks/test_bench_batch.py``) and the
end-to-end benchmark (``benchmarks/e2e``), so the tracked numbers
always measure the same shape the acceptance assertions enforce.
"""

from __future__ import annotations

from repro.core.change import Change, SetOspfCost
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import Scenario


def _ospf_cost_sites(
    scenario: Scenario, count: int
) -> list[tuple[str, str, int]]:
    """The first ``count`` active OSPF interfaces (router, iface,
    current cost), in deterministic config order."""
    sites: list[tuple[str, str, int]] = []
    for router in sorted(scenario.snapshot.configs):
        config = scenario.snapshot.configs[router]
        if config.ospf is None:
            continue
        for interface, settings in sorted(config.ospf.interfaces.items()):
            if settings.enabled and not settings.passive:
                sites.append((router, interface, settings.cost))
                break
        if len(sites) == count:
            break
    return sites


def _cost_changes(
    sites: list[tuple[str, str, int]], bump: int
) -> tuple[list[Change], list[Change]]:
    """(bumped, restored) OSPF cost changes over ``sites``."""
    costs = [
        Change.of(
            SetOspfCost(r, i, c + bump), label=f"{r}[{i}] cost {c + bump}"
        )
        for r, i, c in sites
    ]
    uncosts = [
        Change.of(SetOspfCost(r, i, c), label=f"{r}[{i}] cost {c}")
        for r, i, c in sites
    ]
    return costs, uncosts


def mixed_k8_batch(
    scenario: Scenario, seed: int = 77
) -> tuple[list[Change], list[Change]]:
    """A k=8 mixed change batch and its exact inverse (for restores).

    2 link failures + 4 static-route adds + 2 OSPF cost changes — the
    PR-5 acceptance-criteria shape, spanning IGP topology, local
    routes, and SPF cost dirt.
    """
    gen = ChangeGenerator(scenario, seed=seed)
    down1, up1 = gen.random_link_failure()
    down2, up2 = gen.random_link_failure()
    while down2.label == down1.label:
        down2, up2 = gen.random_link_failure()
    statics = [gen.random_static_route() for _ in range(4)]
    costs, uncosts = _cost_changes(_ospf_cost_sites(scenario, 2), 13)
    changes = [down1, down2] + [add for add, _ in statics] + costs
    recovery = list(
        reversed(uncosts + [remove for _, remove in statics] + [up2, up1])
    )
    assert sum(len(change.edits) for change in changes) == 8
    return changes, recovery


def wan_k8_batch(
    scenario: Scenario, seed: int = 78
) -> tuple[list[Change], list[Change]]:
    """A k=8 WAN change batch and its exact inverse (for restores).

    1 BGP session teardown + 1 dual-homed local-pref flip (2 edits) +
    2 prefix announces + 1 link failure + 2 OSPF cost changes — every
    BGP dirty-set axis (sessions, adj-RIB, prefixes) plus IGP dirt
    that feeds the fingerprint/liveness diffs, converging in one pass.

    Requires a BGP scenario with customers and a dual-homed customer
    (:func:`~repro.workloads.scenarios.internet2_bgp`).
    """
    gen = ChangeGenerator(scenario, seed=seed)
    teardown, restore = gen.random_session_flap()
    flip = gen.dual_homed_pref_flip(100, 200)
    unflip = gen.dual_homed_pref_flip(200, 100)
    announce1, withdraw1 = gen.random_prefix_flap()
    announce2, withdraw2 = gen.random_prefix_flap()
    down, up = gen.random_link_failure()
    costs, uncosts = _cost_changes(_ospf_cost_sites(scenario, 2), 13)
    changes = [teardown, flip, announce1, announce2, down] + costs
    recovery = list(
        reversed(
            uncosts + [up, withdraw2, withdraw1, unflip, restore]
        )
    )
    assert sum(len(change.edits) for change in changes) == 8
    return changes, recovery
