"""Stage 1 of the change-propagation pipeline: the handler registry.

Every primitive edit kind has a **change handler** — a function that
applies the edit to the analyzer's snapshot, surgically updates the
control-plane/data-plane structures the edit touches, and folds dirty
markers into a :class:`~repro.core.pipeline.DirtySet`.  Handlers are
looked up through a registry keyed by edit type, so workloads can add
new change kinds without editing the analyzer::

    from repro.core.handlers import register_change_handler
    from repro.core.change import Edit

    class FailRouter(Edit):
        ...

    @register_change_handler(FailRouter)
    def _handle_fail_router(analyzer, edit, dirty):
        edit.apply(analyzer.snapshot)
        dirty.touched_routers.add(edit.router)
        dirty.ospf.merge(analyzer._ospf.refresh_router_adverts(edit.router))
        ...

Lookup walks the edit type's MRO, so a registration covers subclasses
unless they register their own (``LinkUp`` rides on ``LinkDown``'s
entry this way).  Handlers run with the fork journal already primed
(:meth:`UndoJournal.before_edit` has captured the snapshot-level
before-images).  OSPF reconciled through ``analyzer._ospf`` needs
nothing more: a fork rollback re-derives it from the restored
snapshot at the routers and links those before-images name, so a
custom kind is rolled back through its journaled snapshot writes,
with no list to join.  Handlers that mutate other *converged* state
beyond the snapshot must record their own undo hooks, exactly like
the built-in ACL handlers below.

**Provenance contract**: handlers never see edit ids.  Under
``provenance=True`` the analyzer runs each handler against a *fresh*
:class:`DirtySet` and stamps everything the handler deposited with
the edit's id (:meth:`DirtySet.attribute`) before merging into the
batch set — so every dirty marker a handler produces is automatically
tagged with the edit that produced it, and custom handlers registered
by workloads participate in attribution without any extra code.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, TypeVar

from repro.config.acl import Acl, AclAction
from repro.controlplane.bgp import neighbors_using_map, pairs_involving
from repro.core.change import (
    AddAclRule,
    AddBgpNeighbor,
    AddRouteMapClause,
    AddStaticRoute,
    AnnouncePrefix,
    BindAcl,
    DisableOspfInterface,
    Edit,
    EnableInterface,
    EnableOspfInterface,
    LinkDown,
    LinkUp,
    RemoveAclRule,
    RemoveBgpNeighbor,
    RemoveRouteMapClause,
    RemoveStaticRoute,
    SetLocalPref,
    SetOspfCost,
    ShutdownInterface,
    WithdrawPrefix,
)
from repro.core.pipeline import DirtySet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.analyzer import DifferentialNetworkAnalyzer

ChangeHandler = Callable[["DifferentialNetworkAnalyzer", Edit, DirtySet], None]
_H = TypeVar("_H", bound=ChangeHandler)


@dataclass(frozen=True)
class HandlerEntry:
    """One registry row: the edit type and its extraction function."""

    edit_type: type[Edit]
    fn: ChangeHandler

    def __call__(
        self,
        analyzer: "DifferentialNetworkAnalyzer",
        edit: Edit,
        dirty: DirtySet,
    ) -> None:
        self.fn(analyzer, edit, dirty)

    def __repr__(self) -> str:
        return (
            f"<change-handler {self.edit_type.__name__} -> "
            f"{self.fn.__module__}.{self.fn.__qualname__}>"
        )


_HANDLERS: dict[type[Edit], HandlerEntry] = {}


def register_change_handler(
    edit_type: type[Edit],
) -> Callable[[_H], _H]:
    """Register the extraction handler for an edit type (decorator).

    Re-registering an edit type replaces its handler, which is how a
    workload can override built-in extraction behaviour.
    """

    def decorator(fn: _H) -> _H:
        _HANDLERS[edit_type] = HandlerEntry(edit_type, fn)
        return fn

    return decorator


def handler_for(edit_type: type[Edit]) -> HandlerEntry:
    """The registered handler for ``edit_type`` (walking its MRO).

    Raises ``TypeError`` for edit types with no registered handler —
    the batch fails before any recompute runs.
    """
    for base in edit_type.__mro__:
        if not (isinstance(base, type) and issubclass(base, Edit)):
            continue
        entry = _HANDLERS.get(base)
        if entry is not None:
            return entry
    raise TypeError(
        f"no change handler registered for edit type {edit_type.__name__}; "
        "use repro.core.handlers.register_change_handler"
    )


def registered_change_handlers() -> Mapping[type[Edit], HandlerEntry]:
    """Read-only view of the registry (edit type -> handler entry)."""
    return MappingProxyType(_HANDLERS)


# ---------------------------------------------------------------------------
# Built-in handlers (one per primitive edit family)
# ---------------------------------------------------------------------------


@register_change_handler(LinkDown)  # covers LinkUp (subclass)
def _handle_link(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (LinkDown, LinkUp))
    edit.apply(analyzer.snapshot)
    r1, r2 = edit.router1, edit.router2
    dirty.touched_routers.update((r1, r2))
    dirty.ospf.merge(analyzer._ospf.refresh_router_adverts(r1))
    dirty.ospf.merge(analyzer._ospf.refresh_router_adverts(r2))
    dirty.ospf.merge(analyzer._ospf.refresh_pair(r1, r2))
    # A link flap can only kill/revive direct sessions between its own
    # endpoints; multihop liveness is the adj-RIB stage's job.
    dirty.bgp_sessions.update({(r1, r2), (r2, r1)})


@register_change_handler(ShutdownInterface)
@register_change_handler(EnableInterface)
def _handle_interface_flap(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (ShutdownInterface, EnableInterface))
    edit.apply(analyzer.snapshot)
    dirty.touched_routers.add(edit.router)
    dirty.ospf.merge(analyzer._ospf.refresh_router_adverts(edit.router))
    link = analyzer.snapshot.topology.link_of_interface(
        edit.router, edit.interface
    )
    if link is not None:
        peer_router = link.other_end(edit.router)[0]
        dirty.touched_routers.add(peer_router)
        dirty.ospf.merge(analyzer._ospf.refresh_router_adverts(peer_router))
        dirty.ospf.merge(analyzer._ospf.refresh_pair(edit.router, peer_router))
        # A cabled interface drops carrier for both ends: only direct
        # sessions between the two link endpoints can flap.
        dirty.bgp_sessions.update(
            {(edit.router, peer_router), (peer_router, edit.router)}
        )
    else:
        # Uncabled (e.g. loopback): any session touching this router
        # could be affected — dirty every configured pair involving it.
        dirty.bgp_sessions.update(
            pairs_involving(
                analyzer.snapshot, analyzer.state.address_index, edit.router
            )
        )


@register_change_handler(AddStaticRoute)
@register_change_handler(RemoveStaticRoute)
def _handle_static_route(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (AddStaticRoute, RemoveStaticRoute))
    edit.apply(analyzer.snapshot)
    dirty.touched_routers.add(edit.router)


@register_change_handler(SetOspfCost)
@register_change_handler(EnableOspfInterface)
@register_change_handler(DisableOspfInterface)
def _handle_ospf_interface(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(
        edit, (SetOspfCost, EnableOspfInterface, DisableOspfInterface)
    )
    edit.apply(analyzer.snapshot)
    dirty.ospf.merge(analyzer._ospf.refresh_router_adverts(edit.router))
    peer = analyzer.snapshot.topology.interface_peer(
        edit.router, edit.interface
    )
    if peer is not None:
        dirty.ospf.merge(analyzer._ospf.refresh_pair(edit.router, peer.router))


@register_change_handler(AnnouncePrefix)
@register_change_handler(WithdrawPrefix)
def _handle_bgp_origination(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (AnnouncePrefix, WithdrawPrefix))
    edit.apply(analyzer.snapshot)
    dirty.bgp_prefixes.add(edit.prefix)


@register_change_handler(AddBgpNeighbor)
@register_change_handler(RemoveBgpNeighbor)
def _handle_bgp_session(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (AddBgpNeighbor, RemoveBgpNeighbor))
    edit.apply(analyzer.snapshot)
    peer_ip = (
        edit.neighbor.peer_ip
        if isinstance(edit, AddBgpNeighbor)
        else edit.peer_ip
    )
    owner = analyzer.state.address_index.owner(peer_ip)
    if owner is not None and owner.router != edit.router:
        # The edited entry is one direction of the pair and possibly
        # the reverse entry completing the other — dirty both; the
        # session stage escalates to all-dirty only if a session
        # actually appears.
        dirty.bgp_sessions.update(
            {(edit.router, owner.router), (owner.router, edit.router)}
        )
    # An entry pointing at an unowned address can neither form a
    # session nor complete someone else's reverse lookup: no dirt.


@register_change_handler(SetLocalPref)
def _handle_bgp_pref(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, SetLocalPref)
    edit.apply(analyzer.snapshot)
    # Attribute-only edit: cannot flip a permit/deny, so the blast
    # radius is exactly the adj-RIB entries flowing over the sessions
    # the edited map is bound to.
    config = analyzer.snapshot.configs.get(edit.router)
    if config is None:
        return
    for peer_ip, direction in neighbors_using_map(config, edit.route_map):
        owner = analyzer.state.address_index.owner(peer_ip)
        if owner is None or owner.router == edit.router:
            continue
        if direction == "import":
            # Import map transforms what edit.router receives.
            dirty.bgp_adj_rib.add((edit.router, owner.router))
        else:
            # Export map transforms what the peer receives from us.
            dirty.bgp_adj_rib.add((owner.router, edit.router))


@register_change_handler(AddRouteMapClause)
@register_change_handler(RemoveRouteMapClause)
def _handle_bgp_policy(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (AddRouteMapClause, RemoveRouteMapClause))
    edit.apply(analyzer.snapshot)
    # Structural policy change (can flip permit/deny): every prefix
    # flowing through — or originated by — the router is suspect.
    dirty.bgp_policy.add(edit.router)


# -- ACL handlers -----------------------------------------------------------


def _binding_count(
    analyzer: "DifferentialNetworkAnalyzer", router: str, acl_name: str
) -> int:
    config = analyzer.snapshot.configs.get(router)
    if config is None:
        return 0
    count = 0
    for settings in config.interfaces.values():
        if settings.acl_in == acl_name:
            count += 1
        if settings.acl_out == acl_name:
            count += 1
    return count


def _nonpermit_spans(acl: Acl) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    for interval_set, action in acl.project_dst():
        if action is AclAction.PERMIT:
            continue
        spans.extend(interval_set.pairs)
    return spans


@register_change_handler(AddAclRule)
@register_change_handler(RemoveAclRule)
def _handle_acl_rule(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, (AddAclRule, RemoveAclRule))
    bindings = _binding_count(analyzer, edit.router, edit.acl)
    edit.apply(analyzer.snapshot)
    if bindings == 0:
        return  # unbound ACL: no data-plane effect
    lo, hi = edit.rule.dst.interval()
    register = isinstance(edit, AddAclRule)
    dataplane = analyzer.state.dataplane
    for _ in range(bindings):
        created = dataplane.acl_interval_structure(lo, hi, register)
        if analyzer._journal is not None:
            analyzer._journal.record_acl_structure(lo, hi, register, created)
    dataplane.invalidate_span(lo, hi)
    if analyzer._journal is not None:
        analyzer._journal.record_acl_span(lo, hi)
    dirty.acl_spans.append((lo, hi))


@register_change_handler(BindAcl)
def _handle_bind_acl(
    analyzer: "DifferentialNetworkAnalyzer", edit: Edit, dirty: DirtySet
) -> None:
    assert isinstance(edit, BindAcl)
    config = analyzer.snapshot.config(edit.router)
    settings = config.ensure_interface(edit.interface)
    old_name = settings.acl_in if edit.direction == "in" else settings.acl_out
    edit.apply(analyzer.snapshot)
    if old_name == edit.acl:
        return  # rebinding the same ACL changes nothing
    dataplane = analyzer.state.dataplane
    for name, register in ((old_name, False), (edit.acl, True)):
        if name is None:
            continue
        acl = config.acls.get(name)
        if acl is None:
            continue
        for rule in acl.rules:
            lo, hi = rule.dst.interval()
            created = dataplane.acl_interval_structure(lo, hi, register)
            if analyzer._journal is not None:
                analyzer._journal.record_acl_structure(lo, hi, register, created)
        for lo, hi in _nonpermit_spans(acl):
            dataplane.invalidate_span(lo, hi)
            if analyzer._journal is not None:
                analyzer._journal.record_acl_span(lo, hi)
            dirty.acl_spans.append((lo, hi))
