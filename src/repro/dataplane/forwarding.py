"""Per-atom forwarding behaviour, with ACLs applied.

:class:`DataPlane` owns the atom table and a lazy cache of per-atom,
per-router :class:`Action` values.  An action is what one router does
with packets of one atom: forward to neighbours (ECMP), deliver onto a
connected subnet, drop explicitly (null route or ACL deny), or have no
matching entry at all (an implicit drop — a *blackhole* in reports).

ACL handling: ACLs bound to interfaces contribute their rules'
destination boundaries to the atom table, so within one atom each
bound ACL is constant (PERMIT, DENY, or MIXED — the latter when the
decision depends on non-destination fields).  An egress ACL denying
the atom kills the corresponding forward target; a MIXED verdict keeps
the target but marks the action, and reports surface the ambiguity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.config.acl import Acl, AclAction
from repro.dataplane.atoms import Atom, AtomTable
from repro.dataplane.fib import Fib, FibEntry
from repro.net.addr import Prefix


class TargetKind(enum.Enum):
    """What happens to a packet on one path out of a router."""

    FORWARD = "forward"
    DELIVER = "deliver"
    DROP = "drop"


@dataclass(frozen=True, order=True)
class Target:
    """One outcome of a router's action (one ECMP leg)."""

    kind: TargetKind
    neighbor: str | None = None
    interface: str | None = None

    def __str__(self) -> str:
        if self.kind is TargetKind.FORWARD:
            return f"->{self.neighbor}[{self.interface}]"
        return self.kind.value


@dataclass(frozen=True)
class Action:
    """A router's complete behaviour for one atom."""

    targets: frozenset[Target]
    mixed: bool = False  # some ACL verdict depended on non-dst fields
    # Neighbours on some forwarding leg: derived from ``targets``
    # (outside __eq__/__hash__/__reduce__), read by every reachability
    # update.
    forward: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "forward",
            frozenset(
                t.neighbor
                for t in self.targets
                if t.kind is TargetKind.FORWARD and t.neighbor is not None
            ),
        )

    def __reduce__(self) -> tuple:
        # Pickle the fields only; the constructor re-derives ``forward``.
        return (Action, (self.targets, self.mixed))

    def forward_neighbors(self) -> frozenset[str]:
        """Neighbours reachable on some ECMP leg."""
        return self.forward

    def delivers(self) -> bool:
        """True if some leg delivers locally."""
        return any(t.kind is TargetKind.DELIVER for t in self.targets)

    def is_blackhole(self) -> bool:
        """True if no entry matched at all (implicit drop)."""
        return not self.targets

    def drops_everything(self) -> bool:
        """True if every leg (if any) discards."""
        return bool(self.targets) and all(
            t.kind is TargetKind.DROP for t in self.targets
        )


NO_MATCH = Action(frozenset())

ActionKey = tuple[str, Atom]


@dataclass
class ActionDelta:
    """What FIB writes did to the per-(router, atom) action cache.

    ``changed`` maps each pair whose action moved to its (first old,
    last new) action; old is None when the pair was not cached.
    ``created`` holds the atoms a cut-point change created.
    ``invalidated`` holds header-space spans whose actions were
    dropped wholesale (ACL verdict changes): no old action is known
    there, so reachability rebuilds the atoms under them.
    ``retired`` holds the writer's own actions on the atoms the
    cut-point change removed (None where uncached); only a rollback,
    which brings those atoms back, reads them, so :meth:`merge` does
    not carry them.
    """

    changed: dict[ActionKey, tuple[Action | None, Action]] = field(
        default_factory=dict
    )
    created: set[Atom] = field(default_factory=set)
    invalidated: list[tuple[int, int]] = field(default_factory=list)
    retired: dict[ActionKey, Action | None] = field(default_factory=dict)

    def merge(self, other: "ActionDelta") -> None:
        """Fold a later delta in, collapsing first old -> last new."""
        for key, (old, new) in other.changed.items():
            earlier = self.changed.get(key)
            if earlier is not None:
                old = earlier[0]
            if old == new:
                self.changed.pop(key, None)
            else:
                self.changed[key] = (old, new)
        self.created |= other.created
        self.invalidated.extend(other.invalidated)


class DataPlane:
    """The atom-decomposed forwarding state of a whole snapshot."""

    def __init__(self, snapshot, fibs: dict[str, Fib]) -> None:
        self.snapshot = snapshot
        self.fibs = fibs
        self.atom_table = AtomTable()
        # Per-atom action cache: atom -> router -> Action.  Populated
        # lazily; routers absent from an atom's map are recomputed on
        # demand.
        self._actions: dict[Atom, dict[str, Action]] = {}
        # Equal actions share one object: most (router, atom) pairs
        # repeat a handful of ECMP sets.  Not pickled (the pickle memo
        # keeps the sharing); rebuilt as actions are derived.
        self._interned: dict[tuple[frozenset[Target], bool], Action] = {}
        self._register_initial_intervals()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_interned"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._interned = {}

    # -- construction -------------------------------------------------------

    def _register_initial_intervals(self) -> None:
        for fib in self.fibs.values():
            for entry in fib.entries():
                self.atom_table.register_prefix(entry.prefix)
        for router, interface, _direction, acl in self._acl_bindings():
            for rule in acl.rules:
                lo, hi = rule.dst.interval()
                self.atom_table.register(lo, hi)

    def _acl_bindings(self):
        """(router, interface, direction, Acl) for every live binding."""
        for router, config in self.snapshot.configs.items():
            for interface_name, settings in config.interfaces.items():
                for direction, name in (
                    ("in", settings.acl_in),
                    ("out", settings.acl_out),
                ):
                    if name is None:
                        continue
                    acl = config.acls.get(name)
                    if acl is None:
                        continue  # dangling binding: treated as absent
                    yield router, interface_name, direction, acl

    # -- action computation ----------------------------------------------------

    def action(self, router: str, atom: Atom) -> Action:
        """The (cached) behaviour of ``router`` for ``atom``."""
        per_atom = self._actions.setdefault(atom, {})
        cached = per_atom.get(router)
        if cached is None:
            cached = self._compute_action(router, atom)
            per_atom[router] = cached
        return cached

    def actions_for_atom(self, atom: Atom) -> dict[str, Action]:
        """Behaviour of every router for one atom."""
        per_atom = self._actions.setdefault(atom, {})
        actions: dict[str, Action] = {}
        for router in self.snapshot.topology.router_names():
            action = per_atom.get(router)
            if action is None:
                action = per_atom[router] = self._compute_action(router, atom)
            actions[router] = action
        return actions

    def _acl_verdict(self, router: str, acl_name: str | None, atom: Atom) -> AclAction:
        """A bound ACL's verdict for the atom (PERMIT if unbound)."""
        if acl_name is None:
            return AclAction.PERMIT
        config = self.snapshot.configs.get(router)
        if config is None:
            return AclAction.PERMIT
        acl = config.acls.get(acl_name)
        if acl is None:
            return AclAction.PERMIT
        return acl_verdict_for_interval(acl, atom.representative)

    def _compute_action(self, router: str, atom: Atom) -> Action:
        fib = self.fibs.get(router)
        if fib is None:
            return NO_MATCH
        return self._entry_action(router, fib.lookup(atom.representative), atom)

    def _entry_action(
        self, router: str, entry: FibEntry | None, atom: Atom
    ) -> Action:
        """The action of ``router``'s longest match ``entry`` on ``atom``."""
        if entry is None:
            return NO_MATCH
        topology = self.snapshot.topology
        config = self.snapshot.configs.get(router)
        targets: set[Target] = set()
        mixed = False
        for hop in entry.next_hops:
            if hop.drop:
                targets.add(Target(TargetKind.DROP))
                continue
            if hop.neighbor is None:
                targets.add(Target(TargetKind.DELIVER, interface=hop.interface))
                continue
            # Egress ACL on our side.
            out_verdict = AclAction.PERMIT
            if config is not None:
                settings = config.interface_config(hop.interface)
                out_verdict = self._acl_verdict(router, settings.acl_out, atom)
            if out_verdict is AclAction.DENY:
                targets.add(Target(TargetKind.DROP, interface=hop.interface))
                continue
            if out_verdict is AclAction.MIXED:
                mixed = True
            # Ingress ACL on the neighbour's receiving interface.
            in_verdict = AclAction.PERMIT
            peer = topology.interface_peer(router, hop.interface)
            if peer is not None:
                peer_config = self.snapshot.configs.get(peer.router)
                if peer_config is not None:
                    peer_settings = peer_config.interface_config(peer.name)
                    in_verdict = self._acl_verdict(
                        peer.router, peer_settings.acl_in, atom
                    )
            if in_verdict is AclAction.DENY:
                targets.add(Target(TargetKind.DROP, interface=hop.interface))
                continue
            if in_verdict is AclAction.MIXED:
                mixed = True
            targets.add(
                Target(
                    TargetKind.FORWARD,
                    neighbor=hop.neighbor,
                    interface=hop.interface,
                )
            )
        key = (frozenset(targets), mixed)
        action = self._interned.get(key)
        if action is None:
            action = self._interned[key] = Action(*key)
        return action

    # -- incremental maintenance ---------------------------------------------

    def _apply_structure(
        self,
        splits: list[tuple[Atom, list[Atom]]],
        merges: list[tuple[Atom, list[Atom]]],
    ) -> set[Atom]:
        """Propagate atom splits/merges through the action cache.

        Sub-atoms of a split inherit the parent's cached actions (the
        parent was uniform, so any router whose FIB/ACLs did not change
        behaves identically on the halves).  A merged atom keeps each
        action its sub-atoms agree on: with the cut point gone no FIB or
        ACL boundary separates them, so only a router written right now
        can differ, and its caller re-derives it.  Returns the set of
        structurally new atoms.
        """
        structural: set[Atom] = set()
        for parent, subs in splits:
            inherited = self._actions.pop(parent, None)
            for sub in subs:
                structural.add(sub)
                if inherited is not None:
                    self._actions[sub] = dict(inherited)
        for merged, subs in merges:
            first, *rest = [self._actions.pop(sub, None) for sub in subs]
            if first is not None and all(m is not None for m in rest):
                self._actions[merged] = {
                    router: action
                    for router, action in first.items()
                    if all(m.get(router) == action for m in rest)
                }
            structural.add(merged)
        return structural

    def update_fib_entry(
        self,
        router: str,
        prefix: Prefix,
        entry: FibEntry | None,
        derive: bool = True,
    ) -> ActionDelta:
        """Install/replace/remove one FIB entry; returns the action delta.

        The router's action is re-derived, eagerly, on each atom under
        ``prefix`` that the prefix decides there (its longest match is
        ``prefix`` or, after a removal, shorter).  The delta holds the
        pairs whose action changed, the atoms the cut-point change
        created, and the router's actions on the atoms it removed.
        With ``derive`` off (rollback) those actions are dropped
        instead, for the caller to reinstate or re-derive.
        """
        fib = self.fibs.setdefault(router, Fib(router))
        had = prefix in fib
        delta = ActionDelta()
        splits: list[tuple[Atom, list[Atom]]] = []
        merges: list[tuple[Atom, list[Atom]]] = []
        if entry is None:
            if not had:
                return delta
            fib.remove(prefix)
            merges = self.atom_table.unregister_prefix(prefix)
        else:
            fib.install(entry)
            if not had:
                splits = self.atom_table.register_prefix(prefix)
        retired = [parent for parent, _subs in splits]
        retired += [sub for _merged, subs in merges for sub in subs]
        for atom in retired:
            delta.retired[(router, atom)] = self._actions.get(atom, {}).get(router)
        delta.created = self._apply_structure(splits, merges)
        lo, hi = prefix.interval()
        for atom in self.atom_table.atoms_overlapping(lo, hi):
            match = fib.lookup(atom.representative)
            if match is not None and match.prefix.length > prefix.length:
                continue  # a longer prefix decides this atom here
            if not derive:
                per_atom = self._actions.get(atom)
                if per_atom is not None:
                    per_atom.pop(router, None)
                continue
            per_atom = self._actions.setdefault(atom, {})
            old = per_atom.get(router)
            new = per_atom[router] = self._entry_action(router, match, atom)
            if old != new:
                delta.changed[(router, atom)] = (old, new)
        return delta

    def restore_actions(self, saved: dict[ActionKey, Action | None]) -> None:
        """Reinstate saved actions on the atoms that are live again
        (None drops the pair, which is then re-derived on demand)."""
        by_atom: dict[Atom, list[tuple[str, Action | None]]] = {}
        for (router, atom), action in saved.items():
            by_atom.setdefault(atom, []).append((router, action))
        atom_table = self.atom_table
        for atom, pairs in by_atom.items():
            if atom_table.atom_containing(atom.lo) != atom:
                continue
            per_atom = self._actions.setdefault(atom, {})
            for router, action in pairs:
                if action is None:
                    per_atom.pop(router, None)
                else:
                    per_atom[router] = action

    def acl_interval_structure(
        self, lo: int, hi: int, register: bool
    ) -> set[Atom]:
        """Maintain atom *boundaries* for one ACL rule interval.

        Registers/unregisters the interval's cut points so atoms stay
        aligned with the ACL's verdict boundaries.  Split sub-atoms
        inherit their parent's actions (the boundary itself does not
        change behaviour); only structurally new atoms are returned.
        Behaviour invalidation is separate — see
        :meth:`invalidate_span` — because a permit rule's boundaries
        must not dirty regions whose verdict did not change.
        """
        if register:
            splits = self.atom_table.register(lo, hi)
            return self._apply_structure(splits, [])
        merges = self.atom_table.unregister(lo, hi)
        return self._apply_structure([], merges)

    def invalidate_span(self, lo: int, hi: int) -> set[Atom]:
        """Drop all cached actions in ``[lo, hi)``; returns the atoms.

        Used for ACL verdict changes, which can affect both ends of a
        link (egress ACL here, ingress ACL on the peer) — per-router
        surgery is not worth the bookkeeping.
        """
        dirty = set(self.atom_table.atoms_overlapping(lo, hi))
        for atom in dirty:
            self._actions.pop(atom, None)
        return dirty

    def stats(self) -> dict[str, int]:
        """Counters for reports and benchmarks."""
        return {
            "atoms": self.atom_table.num_atoms(),
            "fib_entries": sum(len(fib) for fib in self.fibs.values()),
            "routers": len(self.fibs),
        }


def acl_verdict_for_interval(acl: Acl, representative: int) -> AclAction:
    """The ACL's projected verdict at one destination address.

    Valid for a whole atom when the atom table contains the ACL's rule
    boundaries (the projection is constant between boundaries).
    """
    for interval_set, action in acl.project_dst():
        if interval_set.contains(representative):
            return action
    return AclAction.DENY  # unreachable: projection covers the space
