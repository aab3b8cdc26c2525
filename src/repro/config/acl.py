"""Access control lists.

An ACL is an ordered list of rules with first-match-wins semantics and
an implicit trailing deny.  Rules match on destination prefix and,
optionally, source prefix, IP protocol, and destination port range.

Two evaluation views are provided:

- :meth:`Acl.permits_packet` — exact evaluation of one concrete packet
  (used by the packet-level simulator and the oracle tests).
- :meth:`Acl.project_dst` — the destination-axis projection used by the
  atom decomposition: a list of disjoint destination interval sets,
  each labelled PERMIT, DENY, or MIXED.  An interval is MIXED when the
  ACL's decision inside it depends on non-destination fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.net.addr import Prefix
from repro.net.interval import IntervalSet


class AclAction(enum.Enum):
    """Terminal decision of an ACL rule (or projected interval)."""

    PERMIT = "permit"
    DENY = "deny"
    MIXED = "mixed"  # projection-only: decision depends on src/proto/port


@dataclass(frozen=True)
class AclRule:
    """One match-action rule.

    ``dst`` is mandatory (use ``0.0.0.0/0`` for any).  ``src``,
    ``proto`` and ``dport_lo``/``dport_hi`` default to wildcards.
    """

    action: AclAction
    dst: Prefix
    src: Prefix | None = None
    proto: int | None = None
    dport_lo: int | None = None
    dport_hi: int | None = None

    def __post_init__(self) -> None:
        if self.action is AclAction.MIXED:
            raise ValueError("MIXED is a projection label, not a rule action")
        if (self.dport_lo is None) != (self.dport_hi is None):
            raise ValueError("dport bounds must be given together")
        if self.dport_lo is not None and self.dport_lo > self.dport_hi:  # type: ignore[operator]
            raise ValueError("empty dport range")

    @property
    def dst_only(self) -> bool:
        """True if the rule matches on destination alone."""
        return self.src is None and self.proto is None and self.dport_lo is None

    def matches_packet(self, packet: Mapping[str, int]) -> bool:
        """Exact match against a concrete packet (field -> int)."""
        if not self.dst.contains_address(packet["dst"]):
            return False
        if self.src is not None and not self.src.contains_address(packet["src"]):
            return False
        if self.proto is not None and packet.get("proto") != self.proto:
            return False
        if self.dport_lo is not None:
            port = packet.get("dport")
            if port is None or not self.dport_lo <= port <= self.dport_hi:  # type: ignore[operator]
                return False
        return True

    def dst_intervals(self) -> IntervalSet:
        """The destination addresses this rule can match."""
        lo, hi = self.dst.interval()
        return IntervalSet.span(lo, hi)

    def __str__(self) -> str:
        parts = [self.action.value, f"dst {self.dst}"]
        if self.src is not None:
            parts.append(f"src {self.src}")
        if self.proto is not None:
            parts.append(f"proto {self.proto}")
        if self.dport_lo is not None:
            parts.append(f"dport {self.dport_lo}-{self.dport_hi}")
        return " ".join(parts)


@dataclass
class Acl:
    """An ordered rule list with an implicit trailing deny."""

    name: str
    rules: list[AclRule] = field(default_factory=list)

    def permits_packet(self, packet: Mapping[str, int]) -> bool:
        """First-match evaluation of one packet; default deny."""
        for rule in self.rules:
            if rule.matches_packet(packet):
                return rule.action is AclAction.PERMIT
        return False

    def project_dst(self) -> list[tuple[IntervalSet, AclAction]]:
        """Project onto the destination axis.

        Returns disjoint (interval set, action) pairs covering the full
        address space.  Sweeps rules in priority order; a dst-only rule
        definitively decides the part of its destination region not
        claimed by earlier rules.  A rule with non-destination
        constraints marks its unclaimed region MIXED (conservatively:
        inside it, whether the rule fires — and hence the decision —
        depends on src/proto/port).  Whatever no rule touches falls to
        the implicit deny.
        """
        remaining = IntervalSet.full()
        permit = IntervalSet.empty()
        deny = IntervalSet.empty()
        mixed = IntervalSet.empty()
        for rule in self.rules:
            claim = rule.dst_intervals().intersection(remaining)
            if claim.is_empty():
                continue
            if not rule.dst_only:
                mixed = mixed.union(claim)
            elif rule.action is AclAction.PERMIT:
                permit = permit.union(claim)
            else:
                deny = deny.union(claim)
            remaining = remaining.difference(claim)
        deny = deny.union(remaining)  # implicit deny
        result: list[tuple[IntervalSet, AclAction]] = []
        if not permit.is_empty():
            result.append((permit, AclAction.PERMIT))
        if not deny.is_empty():
            result.append((deny, AclAction.DENY))
        if not mixed.is_empty():
            result.append((mixed, AclAction.MIXED))
        return result

    def denied_dst(self) -> IntervalSet:
        """Destinations dropped for *every* packet (DENY projection)."""
        for interval_set, action in self.project_dst():
            if action is AclAction.DENY:
                return interval_set
        return IntervalSet.empty()

    def clone(self) -> "Acl":
        """An independent copy (rules are immutable and shared)."""
        return Acl(self.name, list(self.rules))

    def __str__(self) -> str:
        body = "; ".join(str(rule) for rule in self.rules)
        return f"acl {self.name} [{body}]"
