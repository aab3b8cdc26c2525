"""Text format for change scripts.

Operators keep planned changes in files; this module parses a small
line-oriented script into a :class:`~repro.core.change.Change` (and
serializes back), so the CLI can review changes from disk::

    # drain the SEAT uplink
    link down SEAT LOSA
    interface shutdown SEAT eth1
    static add r0 10.99.0.0/24 next-hop 10.0.0.1
    static add r0 10.98.0.0/24 drop
    static remove r0 10.99.0.0/24 next-hop 10.0.0.1
    ospf cost SEAT eth0 50
    ospf enable r1 eth2 area 0 cost 10
    ospf disable r1 eth2
    bgp announce cust_seat0 10.254.9.0/24
    bgp withdraw cust_seat0 10.254.9.0/24
    acl add r3 FILTER deny dst 172.16.5.0/24
    acl add r3 FILTER permit dst 0.0.0.0/0
    acl remove r3 FILTER deny dst 172.16.5.0/24
    acl bind r3 eth1 out FILTER
    acl unbind r3 eth1 out
    route-map local-pref SEAT IMP_CUST 10 200

One statement per line; ``#`` comments; blank lines ignored.
"""

from __future__ import annotations

from repro.config.acl import AclAction, AclRule
from repro.config.routing import StaticRouteConfig
from repro.core.change import (
    AddAclRule,
    AddStaticRoute,
    AnnouncePrefix,
    BindAcl,
    Change,
    DisableOspfInterface,
    Edit,
    EnableInterface,
    EnableOspfInterface,
    LinkDown,
    LinkUp,
    RemoveAclRule,
    RemoveStaticRoute,
    SetLocalPref,
    SetOspfCost,
    ShutdownInterface,
    WithdrawPrefix,
)
from repro.core.errors import InvalidChangeError
from repro.net.addr import IPv4Address, Prefix


class ChangeParseError(InvalidChangeError):
    """Raised for malformed change scripts, with line context."""

    def __init__(self, line_number: int, line: str, message: str) -> None:
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.line_number = line_number


def _parse_static(tokens: list[str]) -> tuple[str, StaticRouteConfig]:
    # static (add|remove) <router> <prefix> (next-hop <ip> | interface <name> | drop)
    router, prefix_text = tokens[0], tokens[1]
    prefix = Prefix(prefix_text)
    rest = tokens[2:]
    if rest == ["drop"]:
        return router, StaticRouteConfig(prefix, drop=True)
    if len(rest) == 2 and rest[0] == "next-hop":
        return router, StaticRouteConfig(prefix, next_hop=IPv4Address(rest[1]))
    if len(rest) == 2 and rest[0] == "interface":
        return router, StaticRouteConfig(prefix, interface=rest[1])
    raise ValueError("bad static target")


def _parse_options(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    """``key value`` pairs, each key one of ``keys`` and given once."""
    options: dict[str, str] = {}
    for index in range(0, len(tokens), 2):
        key = tokens[index]
        if key not in keys or key in options:
            raise ValueError(
                f"bad option {key!r}; expected {' / '.join(keys)} once each"
            )
        if index + 1 == len(tokens):
            raise ValueError(f"option {key!r} needs a value")
        options[key] = tokens[index + 1]
    return options


def _parse_acl_rule(tokens: list[str]) -> AclRule:
    # (permit|deny) dst <prefix> [src <prefix>] [proto <n>] [dport lo-hi]
    actions = {"permit": AclAction.PERMIT, "deny": AclAction.DENY}
    if tokens[0] not in actions:
        raise ValueError(f"expected acl permit|deny, got {tokens[0]!r}")
    action = actions[tokens[0]]
    fields: dict = {}
    rest = tokens[1:]
    while rest:
        if len(rest) < 2:
            raise ValueError(f"acl field {rest[0]!r} needs a value")
        if rest[0] == "dst":
            fields["dst"] = Prefix(rest[1])
        elif rest[0] == "src":
            fields["src"] = Prefix(rest[1])
        elif rest[0] == "proto":
            fields["proto"] = int(rest[1])
        elif rest[0] == "dport":
            lo, _, hi = rest[1].partition("-")
            fields["dport_lo"] = int(lo)
            fields["dport_hi"] = int(hi or lo)
        else:
            raise ValueError(f"bad acl field {rest[0]!r}")
        rest = rest[2:]
    if "dst" not in fields:
        raise ValueError("acl rule needs a dst")
    return AclRule(action=action, **fields)


def _parse_edit(tokens: list[str]) -> Edit:
    head = tokens[0]
    if head == "link":
        if len(tokens) not in (4, 6):
            raise ValueError(f"link takes exactly 4 or 6 tokens, got {len(tokens)}")
        cls = {"down": LinkDown, "up": LinkUp}.get(tokens[1])
        if cls is None:
            raise ValueError("expected link down|up")
        return cls(*tokens[2:])
    if head == "interface" and len(tokens) == 4:
        cls = {"shutdown": ShutdownInterface, "enable": EnableInterface}.get(
            tokens[1]
        )
        if cls is None:
            raise ValueError("expected interface shutdown|enable")
        return cls(tokens[2], tokens[3])
    if head == "static" and len(tokens) >= 5:
        router, route = _parse_static(tokens[2:])
        if tokens[1] == "add":
            return AddStaticRoute(router, route)
        if tokens[1] == "remove":
            return RemoveStaticRoute(router, route)
        raise ValueError("expected static add|remove")
    if head == "ospf":
        if tokens[1] == "cost" and len(tokens) == 5:
            return SetOspfCost(tokens[2], tokens[3], int(tokens[4]))
        if tokens[1] == "enable" and len(tokens) >= 4:
            options = _parse_options(tokens[4:], ("area", "cost"))
            return EnableOspfInterface(
                tokens[2],
                tokens[3],
                area=int(options.get("area", 0)),
                cost=int(options.get("cost", 10)),
            )
        if tokens[1] == "disable" and len(tokens) == 4:
            return DisableOspfInterface(tokens[2], tokens[3])
        raise ValueError("bad ospf statement")
    if head == "bgp" and len(tokens) == 4:
        if tokens[1] == "announce":
            return AnnouncePrefix(tokens[2], Prefix(tokens[3]))
        if tokens[1] == "withdraw":
            return WithdrawPrefix(tokens[2], Prefix(tokens[3]))
        raise ValueError("expected bgp announce|withdraw")
    if head == "acl":
        if tokens[1] == "add" and len(tokens) >= 6:
            return AddAclRule(tokens[2], tokens[3], _parse_acl_rule(tokens[4:]))
        if tokens[1] == "remove" and len(tokens) >= 6:
            return RemoveAclRule(tokens[2], tokens[3], _parse_acl_rule(tokens[4:]))
        if tokens[1] == "bind" and len(tokens) == 6:
            return BindAcl(tokens[2], tokens[3], tokens[5], tokens[4])
        if tokens[1] == "unbind" and len(tokens) == 5:
            return BindAcl(tokens[2], tokens[3], None, tokens[4])
        raise ValueError("bad acl statement")
    if head == "route-map" and len(tokens) == 6 and tokens[1] == "local-pref":
        return SetLocalPref(tokens[2], tokens[3], int(tokens[4]), int(tokens[5]))
    raise ValueError(f"unknown statement {head!r}")


def parse_change(text: str, label: str = "") -> Change:
    """Parse a change script into an atomic :class:`Change`.

    The single-change form: ``---`` separators are rejected here (use
    :func:`parse_change_batch` for multi-change scripts).
    """
    edits: list[Edit] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == CHANGE_SEPARATOR:
            raise ChangeParseError(
                line_number,
                raw,
                "'---' separators need parse_change_batch",
            )
        try:
            edits.append(_parse_edit(line.split()))
        except (ValueError, IndexError) as error:
            raise ChangeParseError(line_number, raw, str(error)) from None
    return Change(edits=edits, label=label)


# A line holding only this token splits a script into multiple changes
# that the batch pipeline analyzes in one recompute pass.
CHANGE_SEPARATOR = "---"


def parse_change_batch(text: str, label: str = "") -> list[Change]:
    """Parse a change script into a batch of one or more changes.

    ``---`` on a line of its own closes the current change and starts
    the next; scripts without separators parse as a single-change
    batch, exactly like :func:`parse_change`.  Empty stanzas (leading,
    trailing, or doubled separators) are dropped, but an entirely
    empty script still yields one empty change so callers always get
    at least one element.  Stanza labels derive from ``label`` as
    ``label#1``, ``label#2``, ... when there is more than one stanza.
    """
    stanzas: list[list[Edit]] = [[]]
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == CHANGE_SEPARATOR:
            stanzas.append([])
            continue
        try:
            stanzas[-1].append(_parse_edit(line.split()))
        except (ValueError, IndexError) as error:
            raise ChangeParseError(line_number, raw, str(error)) from None
    parsed = [Change(edits=edits) for edits in stanzas if edits]
    if not parsed:
        return [Change(edits=[], label=label)]
    if len(parsed) == 1:
        parsed[0].label = label
    else:
        for index, change in enumerate(parsed, start=1):
            change.label = f"{label}#{index}" if label else f"change #{index}"
    return parsed


def serialize_change(change: Change) -> str:
    """Render a change back to script text (best-effort inverse)."""
    lines = []
    if change.label:
        lines.append(f"# {change.label}")
    for edit in change.edits:
        lines.append(_serialize_edit(edit))
    return "\n".join(lines) + "\n"


def serialize_change_batch(changes: list[Change]) -> str:
    """Render a batch back to script text with ``---`` separators."""
    return f"{CHANGE_SEPARATOR}\n".join(
        serialize_change(change) for change in changes
    )


def _serialize_edit(edit: Edit) -> str:
    if isinstance(edit, LinkUp):  # subclass of LinkDown: check first
        suffix = (
            f" {edit.interface1} {edit.interface2}"
            if edit.interface1 is not None
            else ""
        )
        return f"link up {edit.router1} {edit.router2}{suffix}"
    if isinstance(edit, LinkDown):
        suffix = (
            f" {edit.interface1} {edit.interface2}"
            if edit.interface1 is not None
            else ""
        )
        return f"link down {edit.router1} {edit.router2}{suffix}"
    if isinstance(edit, ShutdownInterface):
        return f"interface shutdown {edit.router} {edit.interface}"
    if isinstance(edit, EnableInterface):
        return f"interface enable {edit.router} {edit.interface}"
    if isinstance(edit, (AddStaticRoute, RemoveStaticRoute)):
        verb = "add" if isinstance(edit, AddStaticRoute) else "remove"
        route = edit.route
        if route.drop:
            target = "drop"
        elif route.next_hop is not None:
            target = f"next-hop {route.next_hop}"
        else:
            target = f"interface {route.interface}"
        return f"static {verb} {edit.router} {route.prefix} {target}"
    if isinstance(edit, SetOspfCost):
        return f"ospf cost {edit.router} {edit.interface} {edit.cost}"
    if isinstance(edit, EnableOspfInterface):
        if edit.passive:
            raise ValueError("cannot serialize a passive EnableOspfInterface")
        return (
            f"ospf enable {edit.router} {edit.interface} "
            f"area {edit.area} cost {edit.cost}"
        )
    if isinstance(edit, DisableOspfInterface):
        return f"ospf disable {edit.router} {edit.interface}"
    if isinstance(edit, AnnouncePrefix):
        return f"bgp announce {edit.router} {edit.prefix}"
    if isinstance(edit, WithdrawPrefix):
        return f"bgp withdraw {edit.router} {edit.prefix}"
    if isinstance(edit, AddAclRule):
        return f"acl add {edit.router} {edit.acl} {edit.rule}"
    if isinstance(edit, RemoveAclRule):
        return f"acl remove {edit.router} {edit.acl} {edit.rule}"
    if isinstance(edit, BindAcl):
        if edit.acl is None:
            return f"acl unbind {edit.router} {edit.interface} {edit.direction}"
        return f"acl bind {edit.router} {edit.interface} {edit.direction} {edit.acl}"
    if isinstance(edit, SetLocalPref):
        return (
            f"route-map local-pref {edit.router} {edit.route_map} "
            f"{edit.seq} {edit.local_pref}"
        )
    raise ValueError(f"cannot serialize edit {type(edit).__name__}")
