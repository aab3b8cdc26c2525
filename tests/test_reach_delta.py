"""Per-atom reachability oracle for the delta-driven reach stage.

The reach stage moves each dirty atom's cached
:class:`AtomReachability` along the (router, atom) actions that FIB
writes changed, and rebuilds it from scratch only where the support
counts cannot be trusted.  Here seeded Hypothesis draws of change
sequences check, after every ``what_if`` pass (inside the fork), after
every rollback (of one change, and of a change batched with its
inverse) and after every commit, that each cached entry equals a
from-scratch analysis of every live atom it covers — and that the
per-(router, atom) action cache equals a fresh derivation.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.config.routing import StaticRouteConfig
from repro.core.change import (
    AddStaticRoute,
    Change,
    LinkDown,
    LinkUp,
    RemoveStaticRoute,
    ShutdownInterface,
)
from repro.core.stages import reach as reach_stage
from repro.dataplane.atoms import Atom
from repro.dataplane.forwarding import Action, Target, TargetKind
from repro.dataplane.reachability import (
    AtomReachability,
    compute_atom_reachability,
    update_atom_reachability,
)
from repro.net.addr import Prefix
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import fat_tree_ospf, line_static, ring_ospf

KINDS = ("link", "iface", "static", "cost", "acl")

_FIELDS = ("owners", "sources", "loop_routers", "blackhole_routers", "mixed_routers")


def _changes(generator: ChangeGenerator, kind: str) -> list[Change]:
    if kind == "link":
        return list(generator.random_link_failure())
    if kind == "iface":
        return list(generator.random_interface_flap())
    if kind == "static":
        return list(generator.random_static_route())
    if kind == "cost":
        return [generator.random_ospf_cost()]
    return list(generator.random_acl_block())


def _fields(reach: AtomReachability) -> tuple:
    return tuple(getattr(reach, name) for name in _FIELDS)


def check_reach_cache(analyzer: DifferentialNetworkAnalyzer, where: str) -> None:
    """Every cached action and reachability entry equals a fresh one."""
    dataplane = analyzer.state.dataplane
    index = analyzer.state.reachability
    live = list(dataplane.atom_table.atoms())
    cached_actions = dataplane._actions
    for atom in live:
        for router, action in cached_actions.get(atom, {}).items():
            fresh = dataplane._compute_action(router, atom)
            assert action == fresh, f"{where}: action {router} on {atom}"
    entries = sorted(index.entries_overlapping([(0, 2**32)]), key=lambda e: e[0])
    # Entries are disjoint; each stands for every live atom inside it.
    for lo, hi, entry in entries:
        for atom in dataplane.atom_table.atoms_overlapping(lo, hi):
            assert lo <= atom.lo and atom.hi <= hi, f"{where}: {atom} straddles {entry.atom}"
            dataplane._actions = {}  # derive every action afresh
            try:
                fresh = compute_atom_reachability(dataplane, atom)
            finally:
                dataplane._actions = cached_actions
            assert _fields(entry) == _fields(fresh), f"{where}: reach of {atom}"
    for (lo, hi, _), (next_lo, _, _) in zip(entries, entries[1:]):
        assert hi <= next_lo, f"{where}: overlapping entries at {next_lo}"


class _Paths(Counter):
    """Counts the reach stage's per-atom paths while patched in."""

    def __enter__(self) -> "_Paths":
        real_update = reach_stage.update_atom_reachability
        real_compute = reach_stage.compute_atom_reachability
        real_recompute = reach_stage._recompute_reachability

        def update(*args):
            result = real_update(*args)
            self["delta" if result is not None else "declined"] += 1
            return result

        def compute(*args):
            self["rebuilt"] += 1
            return real_compute(*args)

        def recompute(ctx):
            result = real_recompute(ctx)
            check_reach_cache(self.analyzer, "in pass")
            return result

        self._patches = [
            mock.patch.object(reach_stage, "update_atom_reachability", update),
            mock.patch.object(reach_stage, "compute_atom_reachability", compute),
            mock.patch.object(reach_stage, "_recompute_reachability", recompute),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc) -> None:
        for patch in reversed(self._patches):
            patch.stop()


def _drive(paths: _Paths, scenario, kinds: list[str], seed: int) -> None:
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    paths.analyzer = analyzer
    analyzer.state.reachability.compute_all()
    generator = ChangeGenerator(scenario, seed=seed)
    for kind in kinds:
        changes = _changes(generator, kind)
        # One fork over a change and its inverse: atoms merged during
        # the fork are split again before it rolls back.
        analyzer.what_if_batch(changes)
        check_reach_cache(analyzer, f"after rollback of {changes}")
        for change in changes:
            analyzer.what_if(change)
            check_reach_cache(analyzer, f"after rollback of {change}")
            analyzer.analyze(change)
            check_reach_cache(analyzer, f"after commit of {change}")


def _property(scenario, max_examples: int, kinds=KINDS):
    @settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kinds=st.lists(st.sampled_from(kinds), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def streams(kinds, seed):
        _drive(paths, scenario, kinds, seed)

    with _Paths() as paths:
        streams()
    return paths


def test_fat_tree_reach_cache_matches_scratch():
    paths = _property(fat_tree_ospf(4), max_examples=10)
    assert paths["delta"] > 0 and paths["rebuilt"] > 0, paths


def test_ring_reach_cache_matches_scratch():
    paths = _property(ring_ospf(5), max_examples=10)
    assert paths["delta"] > 0 and paths["rebuilt"] > 0, paths


def test_static_chain_reach_cache_matches_scratch():
    # A static chain runs no OSPF: no cost edits.
    paths = _property(
        line_static(4), max_examples=10, kinds=("link", "iface", "static", "acl")
    )
    assert paths["delta"] > 0 and paths["rebuilt"] > 0, paths


def test_rollback_reinstates_the_action_cache():
    """A rollback puts back the fork's first old actions, so the next
    request re-derives none, not even on the failed link's own subnet
    atom, which the fork merged away and rollback splits back."""
    scenario = fat_tree_ospf(4)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    analyzer.state.reachability.compute_all()
    dataplane = analyzer.state.dataplane
    real = dataplane._compute_action
    derived: Counter = Counter()

    def counting(router, atom):
        derived[(router, atom)] += 1
        return real(router, atom)

    with mock.patch.object(dataplane, "_compute_action", counting):
        for link in scenario.topology.links():
            (r1, i1), (r2, i2) = link.side_a, link.side_b
            for change in (
                Change.of(LinkDown(r1, r2, i1, i2)),
                Change.of(ShutdownInterface(r1, i1)),
            ):
                derived.clear()
                report = analyzer.what_if(change)
                assert report.counters["reach_actions_changed"] > 100
                assert sum(derived.values()) == 0, (change, derived)


def test_rollback_skips_actions_first_changed_on_fork_created_atoms():
    """Withdrawing a prefix merges its atom away, and re-adding it
    splits atoms back that equal the base ones.  r4's action on them
    moves twice: on the merged atom when r3--r4 fails, then on the
    split ones when it recovers.  That second old action is a
    fork-time value, not a before-image, so rollback must not
    reinstate it."""
    scenario = ring_ospf(6)
    subnet = scenario.fabric.host_subnets["r2"][0]
    _interface, next_hop = ChangeGenerator(scenario, seed=5)._random_neighbor_hop(
        "r1"
    )
    route = StaticRouteConfig(prefix=Prefix(subnet.first + 64, 26), next_hop=next_hop)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    analyzer.analyze(Change.of(AddStaticRoute("r1", route)))
    analyzer.state.reachability.compute_all()
    with analyzer.fork():
        analyzer.analyze(Change.of(RemoveStaticRoute("r1", route)))
        analyzer.analyze(Change.of(LinkDown("r3", "r4")))
        analyzer.analyze(Change.of(AddStaticRoute("r1", route)))
        analyzer.analyze(Change.of(LinkUp("r3", "r4")))
    check_reach_cache(analyzer, "after rollback")


def test_rollback_skips_actions_retired_from_fork_created_atoms():
    """r3 splits r1's /26 atom and merges it back, so the atom is
    fork-created.  r1 then null-routes the /26 and withdraws both of
    its routes: the merge retires r1's null action on that atom, a
    fork-time value that rollback must not reinstate."""
    scenario = ring_ospf(6)
    subnet = scenario.fabric.host_subnets["r2"][0]
    _interface, next_hop = ChangeGenerator(scenario, seed=5)._random_neighbor_hop(
        "r1"
    )
    route = StaticRouteConfig(prefix=Prefix(subnet.first + 64, 26), next_hop=next_hop)
    null = StaticRouteConfig(prefix=route.prefix, drop=True, admin_distance=1)
    inner = StaticRouteConfig(prefix=Prefix(subnet.first + 64, 27), drop=True)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    analyzer.analyze(Change.of(AddStaticRoute("r1", route)))
    analyzer.state.reachability.compute_all()
    with analyzer.fork():
        analyzer.analyze(Change.of(AddStaticRoute("r3", inner)))
        analyzer.analyze(Change.of(RemoveStaticRoute("r3", inner)))
        analyzer.analyze(Change.of(AddStaticRoute("r1", null)))
        analyzer.analyze(Change.of(RemoveStaticRoute("r1", route)))
        analyzer.analyze(Change.of(RemoveStaticRoute("r1", null)))
    check_reach_cache(analyzer, "after rollback")


class _Graph:
    """A one-atom stand-in for a DataPlane: router -> action."""

    def __init__(self, actions: dict[str, Action]) -> None:
        self.actions = actions

    def actions_for_atom(self, atom: Atom) -> dict[str, Action]:
        return self.actions


def _random_action(rng: random.Random, below: list[str]) -> Action:
    """Forward to some of ``below`` (ECMP), deliver, drop or match nothing."""
    roll = rng.random()
    if roll < 0.1:
        return Action(frozenset())  # blackhole
    if roll < 0.15:
        return Action(frozenset({Target(TargetKind.DROP)}))
    targets = {
        Target(TargetKind.FORWARD, neighbor=n, interface=n)
        for n in rng.sample(below, min(len(below), rng.randint(1, 3)))
    }
    if roll < 0.3 or not targets:
        targets.add(Target(TargetKind.DELIVER, interface="lo"))
    return Action(frozenset(targets), mixed=rng.random() < 0.1)


@pytest.mark.parametrize("seed", range(6))
def test_update_matches_rebuild_on_random_graphs(seed):
    """Support-count retraction and the upstream walk agree with a
    rebuild on random forwarding graphs whenever the update does not
    decline; a declined update is the counted fallback."""
    rng = random.Random(seed)
    atom = Atom(0, 1)
    outcomes = Counter()
    for _ in range(300):
        routers = [f"r{i}" for i in range(rng.randint(3, 12))]
        # Edges mostly point to lower indices, so most base graphs are
        # acyclic; the rest may loop.
        cyclic = rng.random() < 0.2
        old = {
            r: _random_action(rng, routers if cyclic else routers[:i])
            for i, r in enumerate(routers)
        }
        base = compute_atom_reachability(_Graph(old), atom)
        changed = set(rng.sample(routers, rng.randint(1, 3)))
        new = dict(old)
        for router in sorted(changed):
            others = [r for r in routers if r != router]
            if rng.random() < 0.8:  # mostly keep it acyclic
                others = routers[: routers.index(router)]
            new[router] = _random_action(rng, others)
        updated = update_atom_reachability(_Graph(new), atom, base, changed)
        if updated is None:
            outcomes["declined"] += 1
            continue
        outcomes["updated"] += 1
        rebuilt = compute_atom_reachability(_Graph(new), atom)
        assert _fields(updated) == _fields(rebuilt), (old, new, changed)
    assert outcomes["updated"] > 50 and outcomes["declined"] > 10, outcomes
