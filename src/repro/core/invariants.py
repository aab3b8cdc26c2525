"""Invariant checking over delta reports.

Operators do not read raw deltas; they ask whether a change broke a
*policy*.  An :class:`Invariant` is a predicate over network behaviour
that can be checked differentially: given a :class:`DeltaReport`, each
checker inspects only the changed segments and reports violations the
change introduced (and, symmetrically, violations it fixed).

Built-in invariants:

- :class:`ReachabilityInvariant` — source S must reach the owner of
  destination prefix P.
- :class:`IsolationInvariant` — source S must NOT reach the owner of
  destination prefix P.
- :class:`LoopFreedom` — no forwarding loops anywhere.
- :class:`BlackholeFreedom` — no implicit drops for destinations
  inside a monitored prefix.

Invariants self-register in a name -> class **registry**
(:func:`register_invariant`), so services and the CLI can be handed
invariant *names* instead of hard-coded lists, and users can plug in
their own checks.  The :class:`repro.api.Network` facade resolves
names through the registry in ``Network.check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core import serialize
from repro.core.delta import DeltaReport, ReachSegment
from repro.net.addr import Prefix


@dataclass(frozen=True)
class Violation:
    """One invariant violation introduced (or repaired) by a change."""

    invariant: str
    segment_lo: int
    segment_hi: int
    detail: str
    repaired: bool = False  # True when the change *fixed* a violation

    def __str__(self) -> str:
        verb = "repaired" if self.repaired else "introduced"
        return (
            f"[{self.invariant}] {verb} in [{self.segment_lo}, "
            f"{self.segment_hi}): {self.detail}"
        )

    def __repr__(self) -> str:
        return f"Violation({self})"

    def to_dict(self) -> dict[str, Any]:
        """Schema-versioned JSON document."""
        return serialize.document(
            "violation",
            {
                "invariant": self.invariant,
                "segment_lo": self.segment_lo,
                "segment_hi": self.segment_hi,
                "detail": self.detail,
                "repaired": self.repaired,
            },
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Violation":
        """Rebuild a violation; raises SchemaError on unknown versions."""
        serialize.check_document(data, "violation")
        return cls(
            invariant=data["invariant"],
            segment_lo=data["segment_lo"],
            segment_hi=data["segment_hi"],
            detail=data["detail"],
            repaired=data["repaired"],
        )


# -- registry ---------------------------------------------------------------
#
# name -> Invariant subclass.  Built-ins register at import; users add
# their own with ``register_invariant`` (usable as a decorator) and
# can then refer to invariants by name everywhere a suite is built —
# ``Network.check``, the campaign CLI's ``--invariant`` flag, config
# files.

_REGISTRY: dict[str, type["Invariant"]] = {}


def register_invariant(
    name: str, cls: type["Invariant"] | None = None
) -> Callable[[type["Invariant"]], type["Invariant"]] | type["Invariant"]:
    """Register an invariant class under ``name``.

    Direct call: ``register_invariant("loop-freedom", LoopFreedom)``.
    Decorator: ``@register_invariant("my-check")`` above the class.
    Re-registering a name with a *different* class is an error.
    """

    def _register(target: type["Invariant"]) -> type["Invariant"]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not target:
            raise ValueError(
                f"invariant name {name!r} is already registered "
                f"to {existing.__name__}"
            )
        _REGISTRY[name] = target
        return target

    if cls is None:
        return _register
    return _register(cls)


def invariant_class(name: str) -> type["Invariant"]:
    """Look up a registered invariant class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown invariant {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def make_invariant(name: str, **kwargs: Any) -> "Invariant":
    """Instantiate a registered invariant by name."""
    return invariant_class(name)(**kwargs)


def registered_invariants() -> dict[str, type["Invariant"]]:
    """A copy of the registry (name -> class)."""
    return dict(_REGISTRY)


class Invariant:
    """Base: a differential check over reachability segments."""

    name = "invariant"

    def relevant(self, segment: ReachSegment) -> bool:
        """Fast filter: does this segment matter to the invariant?"""
        return True

    def check_segment(self, segment: ReachSegment) -> list[Violation]:
        """Violations visible in one changed segment."""
        raise NotImplementedError

    def check(self, report: DeltaReport) -> list[Violation]:
        """All violations the change introduced or repaired."""
        violations: list[Violation] = []
        for segment in report.reach_segments:
            if self.relevant(segment):
                violations.extend(self.check_segment(segment))
        return violations


def _overlaps(segment: ReachSegment, prefix: Prefix) -> bool:
    lo, hi = prefix.interval()
    return segment.lo < hi and lo < segment.hi


@dataclass
class ReachabilityInvariant(Invariant):
    """``source`` must be able to reach the owner of ``prefix``."""

    source: str
    owner: str
    prefix: Prefix

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"reach({self.source} -> {self.owner} for {self.prefix})"

    def relevant(self, segment: ReachSegment) -> bool:
        return _overlaps(segment, self.prefix)

    def check_segment(self, segment: ReachSegment) -> list[Violation]:
        pair = (self.source, self.owner)
        violations = []
        if pair in segment.removed:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=max(segment.lo, self.prefix.first),
                    segment_hi=min(segment.hi, self.prefix.last + 1),
                    detail=f"{self.source} lost reachability to {self.owner}",
                )
            )
        if pair in segment.added:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=max(segment.lo, self.prefix.first),
                    segment_hi=min(segment.hi, self.prefix.last + 1),
                    detail=f"{self.source} regained reachability to {self.owner}",
                    repaired=True,
                )
            )
        return violations


@dataclass
class IsolationInvariant(Invariant):
    """``source`` must NOT reach the owner of ``prefix``."""

    source: str
    owner: str
    prefix: Prefix

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"isolate({self.source} x {self.owner} for {self.prefix})"

    def relevant(self, segment: ReachSegment) -> bool:
        return _overlaps(segment, self.prefix)

    def check_segment(self, segment: ReachSegment) -> list[Violation]:
        pair = (self.source, self.owner)
        violations = []
        if pair in segment.added:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=max(segment.lo, self.prefix.first),
                    segment_hi=min(segment.hi, self.prefix.last + 1),
                    detail=f"{self.source} can now reach {self.owner} (leak)",
                )
            )
        if pair in segment.removed:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=max(segment.lo, self.prefix.first),
                    segment_hi=min(segment.hi, self.prefix.last + 1),
                    detail=f"leak from {self.source} to {self.owner} closed",
                    repaired=True,
                )
            )
        return violations


@dataclass
class LoopFreedom(Invariant):
    """No router may sit on a forwarding loop."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return "loop-freedom"

    def check_segment(self, segment: ReachSegment) -> list[Violation]:
        violations = []
        if segment.loops_added:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=segment.lo,
                    segment_hi=segment.hi,
                    detail=f"loops through {sorted(segment.loops_added)}",
                )
            )
        if segment.loops_removed:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=segment.lo,
                    segment_hi=segment.hi,
                    detail=f"loops cleared at {sorted(segment.loops_removed)}",
                    repaired=True,
                )
            )
        return violations


@dataclass
class BlackholeFreedom(Invariant):
    """No implicit drops for destinations inside monitored prefixes.

    Routers named in ``allowed`` (e.g. edge routers of unused space)
    are exempt.
    """

    monitored: list[Prefix] = field(default_factory=list)
    allowed: frozenset[str] = frozenset()

    @property
    def name(self) -> str:  # type: ignore[override]
        return "blackhole-freedom"

    def relevant(self, segment: ReachSegment) -> bool:
        if not self.monitored:
            return True
        return any(_overlaps(segment, prefix) for prefix in self.monitored)

    def check_segment(self, segment: ReachSegment) -> list[Violation]:
        violations = []
        introduced = segment.blackholes_added - self.allowed
        repaired = segment.blackholes_removed - self.allowed
        if introduced:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=segment.lo,
                    segment_hi=segment.hi,
                    detail=f"new blackholes at {sorted(introduced)}",
                )
            )
        if repaired:
            violations.append(
                Violation(
                    invariant=self.name,
                    segment_lo=segment.lo,
                    segment_hi=segment.hi,
                    detail=f"blackholes cleared at {sorted(repaired)}",
                    repaired=True,
                )
            )
        return violations


register_invariant("reachability", ReachabilityInvariant)
register_invariant("isolation", IsolationInvariant)
register_invariant("loop-freedom", LoopFreedom)
register_invariant("blackhole-freedom", BlackholeFreedom)


def _check_invariants(
    report: DeltaReport, invariants: list[Invariant]
) -> dict[str, list[Violation]]:
    """Run a suite; returns {invariant name: violations} (non-empty
    entries only)."""
    results: dict[str, list[Violation]] = {}
    for invariant in invariants:
        violations = invariant.check(report)
        if violations:
            results[invariant.name] = violations
    return results
