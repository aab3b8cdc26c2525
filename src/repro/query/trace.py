"""Packet-level forwarding traces.

Where the atom decomposition answers *set-level* questions on the
destination axis, the tracer answers the exact question for one
concrete packet — including source/protocol/port ACL matches that the
atom view treats conservatively (MIXED).  It follows every ECMP branch
breadth-first, so the result is the packet's full forwarding DAG with
one terminal fate per leaf.

Used by examples as a "traceroute", and by tests as an oracle: for
packets whose path crosses only destination-based ACLs, the trace's
delivery fate must agree with the atom-level reachability analysis.

The supported entry point is :meth:`repro.api.Network.trace`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.controlplane.simulation import NetworkState
from repro.core import serialize


class TraceOutcome(enum.Enum):
    """Terminal fate of one branch of a packet trace."""

    DELIVERED = "delivered"
    DROPPED_ACL = "dropped-acl"
    DROPPED_NULL = "dropped-null-route"
    NO_ROUTE = "no-route"
    LOOP = "loop"


@dataclass(frozen=True)
class Hop:
    """One step of the trace: a router and what it did."""

    router: str
    prefix: str | None  # matched FIB prefix, None when nothing matched
    action: str  # human-readable disposition

    def __str__(self) -> str:
        matched = f" [{self.prefix}]" if self.prefix else ""
        return f"{self.router}{matched}: {self.action}"


@dataclass
class PacketTrace:
    """The full multipath trace of one packet."""

    packet: dict[str, int]
    source: str
    hops: list[Hop] = field(default_factory=list)
    outcomes: dict[TraceOutcome, set[str]] = field(default_factory=dict)

    def record(self, outcome: TraceOutcome, router: str) -> None:
        self.outcomes.setdefault(outcome, set()).add(router)

    def delivered_at(self) -> set[str]:
        """Routers where some branch delivered the packet."""
        return self.outcomes.get(TraceOutcome.DELIVERED, set())

    def is_delivered(self) -> bool:
        """True if at least one ECMP branch delivers."""
        return bool(self.delivered_at())

    def fates(self) -> set[TraceOutcome]:
        """All terminal fates across branches."""
        return set(self.outcomes)

    def render(self) -> str:
        lines = [f"trace from {self.source} for {self.packet}:"]
        lines.extend(f"  {hop}" for hop in self.hops)
        for outcome, routers in sorted(
            self.outcomes.items(), key=lambda kv: kv[0].value
        ):
            lines.append(f"  => {outcome.value} at {sorted(routers)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        fates = ", ".join(sorted(fate.value for fate in self.outcomes))
        return (
            f"PacketTrace(from {self.source!r} for {self.packet}, "
            f"{len(self.hops)} hops, fates: {fates or 'none'})"
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document (see :mod:`repro.core.serialize`)."""
        return serialize.document(
            "packet-trace",
            {
                "packet": {key: self.packet[key] for key in sorted(self.packet)},
                "source": self.source,
                "hops": [
                    {
                        "router": hop.router,
                        "prefix": hop.prefix,
                        "action": hop.action,
                    }
                    for hop in self.hops
                ],
                "outcomes": {
                    outcome.value: sorted(routers)
                    for outcome, routers in sorted(
                        self.outcomes.items(), key=lambda kv: kv[0].value
                    )
                },
            },
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PacketTrace":
        """Rebuild a trace; raises SchemaError on unknown versions."""
        serialize.check_document(data, "packet-trace")
        # Restore the tracer's canonical field order (the JSON form is
        # key-sorted) so render() round-trips verbatim.
        fields = dict(data["packet"])
        packet = {
            key: fields.pop(key)
            for key in ("src", "proto", "dport", "dst")
            if key in fields
        }
        packet.update(fields)
        return cls(
            packet=packet,
            source=data["source"],
            hops=[
                Hop(
                    router=hop["router"],
                    prefix=hop["prefix"],
                    action=hop["action"],
                )
                for hop in data["hops"]
            ],
            outcomes={
                TraceOutcome(value): set(routers)
                for value, routers in data["outcomes"].items()
            },
        )


def _acl_permits(state: NetworkState, router: str, acl_name: str | None,
                 packet: Mapping[str, int]) -> bool:
    if acl_name is None:
        return True
    config = state.snapshot.configs.get(router)
    if config is None:
        return True
    acl = config.acls.get(acl_name)
    if acl is None:
        return True  # dangling binding treated as absent (matches atoms)
    return acl.permits_packet(packet)


def _trace_packet(
    state: NetworkState,
    source: str,
    packet: Mapping[str, int],
    max_hops: int = 64,
) -> PacketTrace:
    """Follow one packet from ``source`` through the network.

    ``packet`` maps header fields (``dst`` required; ``src``,
    ``proto``, ``dport`` defaulted to wildcard-ish values) to ints.
    Every ECMP branch is explored; a router revisited along one branch
    terminates that branch as a LOOP.
    """
    fields = {"src": 0, "proto": 0, "dport": 0}
    fields.update(packet)
    if "dst" not in fields:
        raise ValueError("packet needs a dst field")
    trace = PacketTrace(packet=fields, source=source)

    # BFS over (router, path-visited-set); visited sets are per branch
    # so diamond re-joins are not misreported as loops.
    frontier: list[tuple[str, frozenset[str]]] = [(source, frozenset())]
    seen_states: set[tuple[str, frozenset[str]]] = set()
    hop_count = 0
    while frontier and hop_count < max_hops * 4:
        router, visited = frontier.pop(0)
        if (router, visited) in seen_states:
            continue
        seen_states.add((router, visited))
        hop_count += 1
        if router in visited:
            trace.hops.append(Hop(router, None, "already visited: loop"))
            trace.record(TraceOutcome.LOOP, router)
            continue
        visited = visited | {router}
        fib = state.fibs.get(router)
        entry = fib.lookup(fields["dst"]) if fib is not None else None
        if entry is None:
            trace.hops.append(Hop(router, None, "no matching route"))
            trace.record(TraceOutcome.NO_ROUTE, router)
            continue
        config = state.snapshot.configs.get(router)
        for hop in sorted(entry.next_hops):
            if hop.drop:
                trace.hops.append(
                    Hop(router, str(entry.prefix), "null route: dropped")
                )
                trace.record(TraceOutcome.DROPPED_NULL, router)
                continue
            if hop.neighbor is None:
                trace.hops.append(
                    Hop(router, str(entry.prefix), f"delivered on {hop.interface}")
                )
                trace.record(TraceOutcome.DELIVERED, router)
                continue
            # Egress ACL here.
            acl_out = None
            if config is not None:
                acl_out = config.interface_config(hop.interface).acl_out
            if not _acl_permits(state, router, acl_out, fields):
                trace.hops.append(
                    Hop(router, str(entry.prefix),
                        f"denied by egress acl {acl_out} on {hop.interface}")
                )
                trace.record(TraceOutcome.DROPPED_ACL, router)
                continue
            # Ingress ACL on the far side.
            peer = state.snapshot.topology.interface_peer(router, hop.interface)
            if peer is not None:
                peer_config = state.snapshot.configs.get(peer.router)
                acl_in = (
                    peer_config.interface_config(peer.name).acl_in
                    if peer_config is not None
                    else None
                )
                if not _acl_permits(state, peer.router, acl_in, fields):
                    trace.hops.append(
                        Hop(router, str(entry.prefix),
                            f"denied by ingress acl {acl_in} at "
                            f"{peer.router}[{peer.name}]")
                    )
                    trace.record(TraceOutcome.DROPPED_ACL, router)
                    continue
            trace.hops.append(
                Hop(router, str(entry.prefix),
                    f"forward via {hop.interface} to {hop.neighbor}")
            )
            frontier.append((hop.neighbor, visited))
    return trace
