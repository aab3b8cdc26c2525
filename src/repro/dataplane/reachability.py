"""Per-atom reachability, loop, and blackhole analysis.

For one atom, the data plane induces a directed graph over routers
(the union of ECMP forward legs).  The questions answered here:

- **Reachability**: for each *owner* (router that delivers the atom
  locally), which source routers have some path to it?  Computed with
  one reverse BFS per owner — O(E) per owner per atom.
- **Loops**: routers sitting on a forwarding cycle (non-trivial SCCs
  or self-loops of the forward graph).
- **Blackholes**: routers with no matching FIB entry for the atom.

:func:`update_atom_reachability` moves a cached result along the
routers whose actions changed, without a rebuild, where that is exact.
:class:`ReachabilityIndex` caches per-atom results, sorted by atom, and
exposes the interval queries the incremental layer needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Iterable

from repro.dataplane.atoms import Atom
from repro.dataplane.forwarding import Action, DataPlane


@dataclass(frozen=True)
class AtomReachability:
    """Converged data-plane behaviour of one atom."""

    atom: Atom
    owners: frozenset[str]
    # owner -> all routers with some forwarding path to it (owner incl.)
    sources: dict[str, frozenset[str]]
    loop_routers: frozenset[str]
    blackhole_routers: frozenset[str]
    mixed_routers: frozenset[str]

    def reaches(self, source: str, owner: str) -> bool:
        """True if ``source`` can reach delivery at ``owner``."""
        return source in self.sources.get(owner, frozenset())

    def pair_set(self) -> frozenset[tuple[str, str]]:
        """All (source, owner) reachable pairs, for diffing."""
        return frozenset(
            (source, owner)
            for owner, sources in self.sources.items()
            for source in sources
        )


def compute_atom_reachability(dataplane: DataPlane, atom: Atom) -> AtomReachability:
    """Analyse one atom from scratch."""
    actions = dataplane.actions_for_atom(atom)
    forward: dict[str, frozenset[str]] = {}
    owners: set[str] = set()
    blackholes: set[str] = set()
    mixed: set[str] = set()
    for router, action in actions.items():
        forward[router] = action.forward
        if action.delivers():
            owners.add(router)
        if action.is_blackhole():
            blackholes.add(router)
        if action.mixed:
            mixed.add(router)

    reverse: dict[str, set[str]] = {router: set() for router in forward}
    for router, neighbors in forward.items():
        for neighbor in neighbors:
            if neighbor in reverse:
                reverse[neighbor].add(router)

    sources: dict[str, frozenset[str]] = {}
    for owner in owners:
        seen = {owner}
        stack = [owner]
        while stack:
            node = stack.pop()
            for predecessor in reverse[node]:
                if predecessor not in seen:
                    seen.add(predecessor)
                    stack.append(predecessor)
        sources[owner] = frozenset(seen)

    loop_routers = _cycle_routers(forward)
    return AtomReachability(
        atom=atom,
        owners=frozenset(owners),
        sources=sources,
        loop_routers=loop_routers,
        blackhole_routers=frozenset(blackholes),
        mixed_routers=frozenset(mixed),
    )


def update_atom_reachability(
    dataplane: DataPlane,
    atom: Atom,
    base: AtomReachability,
    changed: set[str],
) -> AtomReachability | None:
    """``base`` moved to the atom's current actions, or None.

    ``base`` is the result for a forwarding graph that differs from the
    current one only in the out-edges of routers in ``changed`` (a
    superset is fine).  Per owner, a router leaves the source set when
    none of its successors is left in it — the retraction spreads to
    predecessors only when that support count drops to zero — and
    routers that gained a successor in the set join it together with
    everything upstream of them.  Counting support is exact only on an
    acyclic graph, so this returns None (the caller rebuilds) when the
    old graph had loops, when a changed router now sits on a cycle, or
    when the owner set moved.
    """
    if base.loop_routers:
        return None
    actions = dataplane.actions_for_atom(atom)
    changed = changed & actions.keys()
    owners = set(base.owners)
    blackholes = set(base.blackhole_routers)
    mixed = set(base.mixed_routers)
    for router in changed:
        action = actions[router]
        for members, member in (
            (owners, action.delivers()),
            (blackholes, action.is_blackhole()),
            (mixed, action.mixed),
        ):
            if member:
                members.add(router)
            else:
                members.discard(router)
    if owners != base.owners or _on_cycle(actions, changed):
        return None

    reverse: dict[str, list[str]] = {}

    def predecessors(node: str) -> list[str]:
        if not reverse:
            for router in actions:
                reverse[router] = []
            for router, action in actions.items():
                for neighbor in action.forward:
                    if neighbor in reverse:
                        reverse[neighbor].append(router)
        return reverse[node]

    sources: dict[str, frozenset[str]] = {}
    for owner, old_sources in base.sources.items():
        reach = set(old_sources)
        stack = [r for r in changed if r in reach and r != owner]
        while stack:
            node = stack.pop()
            if node not in reach or node == owner:
                continue
            if not actions[node].forward.isdisjoint(reach):
                continue  # still supported
            reach.discard(node)
            stack.extend(p for p in predecessors(node) if p in reach)
        stack = [
            r
            for r in changed
            if r not in reach and not actions[r].forward.isdisjoint(reach)
        ]
        reach.update(stack)
        while stack:
            for predecessor in predecessors(stack.pop()):
                if predecessor not in reach:
                    reach.add(predecessor)
                    stack.append(predecessor)
        sources[owner] = old_sources if reach == old_sources else frozenset(reach)
    return AtomReachability(
        atom=atom,
        owners=base.owners,
        sources=sources,
        loop_routers=base.loop_routers,
        blackhole_routers=frozenset(blackholes),
        mixed_routers=frozenset(mixed),
    )


def _on_cycle(actions: dict[str, Action], starts: Iterable[str]) -> bool:
    """True if a forwarding cycle is reachable from ``starts``."""
    done: set[str] = set()
    for start in starts:
        if start in done:
            continue
        path = {start}
        work = [(start, iter(actions[start].forward))]
        while work:
            node, edges = work[-1]
            for succ in edges:
                if succ in path:
                    return True
                if succ in actions and succ not in done:
                    path.add(succ)
                    work.append((succ, iter(actions[succ].forward)))
                    break
            else:
                work.pop()
                path.discard(node)
                done.add(node)
    return False


def _cycle_routers(forward: dict[str, frozenset[str]]) -> frozenset[str]:
    """Routers on a forwarding cycle (iterative Tarjan SCC)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cyclic: set[str] = set()

    for start in forward:
        if start in index:
            continue
        work: list[tuple[str, Iterable[str]]] = [(start, iter(forward[start]))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                if succ not in forward:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(forward[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cyclic.update(component)
                elif component and component[0] in forward[component[0]]:
                    cyclic.add(component[0])  # self-loop
    return frozenset(cyclic)


class ReachabilityIndex:
    """Cached per-atom reachability over a :class:`DataPlane`.

    Entries are disjoint and kept sorted by ``atom.lo``, so interval
    queries bisect instead of scanning the cache.  An entry may be keyed
    by a *stale* atom (one a behaviour-neutral split has since cut);
    it then stands for every live atom inside it.
    """

    def __init__(self, dataplane: DataPlane) -> None:
        self.dataplane = dataplane
        self._entries: list[AtomReachability] = []
        self._los: list[int] = []  # entry.atom.lo, same order

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_los"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._los = [reach.atom.lo for reach in self._entries]

    def _find(self, atom: Atom) -> AtomReachability | None:
        index = bisect_left(self._los, atom.lo)
        if index < len(self._los) and self._entries[index].atom == atom:
            return self._entries[index]
        return None

    def _range(self, lo: int, hi: int) -> tuple[int, int]:
        """Index range of the entries overlapping ``[lo, hi)``."""
        start = bisect_right(self._los, lo) - 1
        if start < 0 or self._entries[start].atom.hi <= lo:
            start += 1
        return start, max(start, bisect_left(self._los, hi))

    def for_atom(self, atom: Atom) -> AtomReachability:
        """Reachability of one live atom (cached where it fits)."""
        cached = self._find(atom)
        if cached is None:
            cached = compute_atom_reachability(self.dataplane, atom)
            start, end = self._range(atom.lo, atom.hi)
            if start == end:  # never shadow a stale entry's coverage
                self._entries.insert(start, cached)
                self._los.insert(start, atom.lo)
        return cached

    def compute_all(self) -> dict[Atom, AtomReachability]:
        """Analyse every live atom (the baseline's full pass)."""
        return {
            atom: self.for_atom(atom) for atom in self.dataplane.atom_table.atoms()
        }

    def restore(self, entries: Iterable[AtomReachability]) -> None:
        """Insert results into a purged region, keyed by their atoms.

        Used by the reach stage and by fork rollback: the region the
        entries cover holds no other entry.
        """
        for reach in entries:
            index = bisect_left(self._los, reach.atom.lo)
            self._entries.insert(index, reach)
            self._los.insert(index, reach.atom.lo)

    def cached_atoms(self) -> set[Atom]:
        """Atoms currently analysed."""
        return {reach.atom for reach in self._entries}

    def entries_overlapping(
        self, spans: Iterable[tuple[int, int]]
    ) -> list[tuple[int, int, AtomReachability]]:
        """Cached results whose atom overlaps any of ``spans``.

        Keys may be *stale* atoms (from before a structural change);
        that is exactly what the incremental differ needs: the
        pre-change behaviour of the dirty region.
        """
        indices: set[int] = set()
        for lo, hi in spans:
            if lo < hi:
                indices.update(range(*self._range(lo, hi)))
        return [
            (reach.atom.lo, reach.atom.hi, reach)
            for reach in (self._entries[i] for i in sorted(indices))
        ]

    def purge_overlapping(self, spans: Iterable[tuple[int, int]]) -> None:
        """Drop every cached result overlapping any of ``spans``
        (including stale keys left behind by splits/merges)."""
        for lo, hi in spans:
            if lo < hi:
                start, end = self._range(lo, hi)
                del self._entries[start:end]
                del self._los[start:end]

    def reaches(self, source: str, owner: str, address: int) -> bool:
        """Point query: can ``source`` reach ``owner`` for ``address``?"""
        atom = self.dataplane.atom_table.atom_containing(address)
        return self.for_atom(atom).reaches(source, owner)
