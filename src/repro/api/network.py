"""The :class:`Network` session facade.

One object wraps the whole differential toolchain — a snapshot, the
converged analyzer state, what-if forking, campaigns, packet queries,
and invariant checking — behind a small typed surface::

    net = Network.generate("fat_tree", size=4)
    outage = ChangeSet("fail spine").link_down("agg0_0", "core0")

    report = net.preview(outage)          # fork-backed, non-committing
    violations = net.check(report, ["loop-freedom"])
    net.apply(outage)                     # commits; state advances

    trace = net.trace("edge0_0", "172.16.3.1")
    campaign = net.campaign(scenarios, jobs=4)

Every outcome object (:class:`~repro.core.delta.DeltaReport`,
:class:`~repro.campaign.report.CampaignReport`,
:class:`~repro.query.trace.PacketTrace`,
:class:`~repro.query.paths.PathDiff`,
:class:`~repro.core.invariants.Violation`) serializes through
``to_dict()/from_dict()`` with a ``schema_version`` field, so results
round-trip through JSON byte-stably across process and service
boundaries.

Convergence is lazy: constructing a ``Network`` is free, and the first
method that needs converged state pays for one simulation.  All later
calls reuse that warm state — including campaign workers, which fork
from it instead of re-simulating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence, Union

from repro.api.errors import ConvergenceError, InvalidChangeError, ReproError
from repro.campaign.report import CampaignReport
from repro.campaign.runner import CampaignRunner
from repro.campaign.scenarios import WhatIfScenario
from repro.controlplane.simulation import NetworkState
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import Change
from repro.core.delta import DeltaReport
from repro.core.invariants import (
    Invariant,
    Violation,
    _check_invariants,
    make_invariant,
)
from repro.core.snapshot import Snapshot
from repro.net.addr import IPv4Address, Prefix
from repro.obs import NULL_TRACER, EventLog, MetricsRegistry, Tracer
from repro.query.paths import ForwardingPaths, PathDiff, _forwarding_paths
from repro.query.trace import PacketTrace, _trace_packet
from repro.topology.model import Topology
from repro.workloads.scenarios import Scenario

from repro.api.changeset import ChangeSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.client import ServiceClient

ChangeLike = Union[Change, ChangeSet]
ChangesLike = Union[ChangeLike, Sequence[ChangeLike]]
InvariantLike = Union[Invariant, str]
DestinationLike = Union[IPv4Address, int, str]

TOPOLOGY_KINDS = ("fat_tree", "ring", "line", "random", "geant", "internet2")


def _as_change(change: ChangeLike) -> Change:
    if isinstance(change, ChangeSet):
        return change.build()
    return change


def _as_changes(changes: ChangesLike) -> list[Change]:
    if isinstance(changes, (Change, ChangeSet)):
        return [_as_change(changes)]
    return [_as_change(change) for change in changes]


def _as_dst(dst: DestinationLike) -> int:
    if isinstance(dst, int):
        return dst
    if isinstance(dst, str):
        return IPv4Address(dst).value
    return dst.value


def _resolve_invariants(
    invariants: Iterable[InvariantLike],
) -> list[Invariant]:
    resolved: list[Invariant] = []
    for invariant in invariants:
        if isinstance(invariant, str):
            resolved.append(make_invariant(invariant))
        else:
            resolved.append(invariant)
    return resolved


class Network:
    """Typed session facade over one converged network model.

    This is *the* supported entry point for analysis: construct it
    from a snapshot, topology, on-disk directory, or generator, then
    ask differential questions against the shared converged state.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        trace: "Tracer | bool" = False,
    ) -> None:
        self.snapshot = snapshot
        # Generator metadata (roles, host subnets) when built via
        # :meth:`generate`; the campaign enumerators consume it.
        self.scenario: Scenario | None = None
        self._analyzer: DifferentialNetworkAnalyzer | None = None
        # Observability: ``trace=True`` records a span tree for every
        # analysis on this session (``trace=`` also accepts a caller's
        # Tracer); the default null tracer records nothing.  The work
        # metrics registry is always on — it only counts.
        if isinstance(trace, Tracer):
            self._tracer = trace
        else:
            self._tracer = Tracer() if trace else NULL_TRACER
        self._metrics = MetricsRegistry()
        # Structured event log: provenance-enabled analyses append
        # span/metric/provenance records here under monotonic sequence
        # numbers.  Always attached, populated only on demand.
        self._events = EventLog()
        # The campaign runner (and its encoded base payload) is cached
        # across :meth:`campaign` calls with equal configuration, so a
        # service answering many campaign requests encodes the base
        # once; :meth:`close` releases it.
        self._runner: CampaignRunner | None = None
        self._runner_key: tuple[Any, ...] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls, snapshot: Snapshot, trace: "Tracer | bool" = False
    ) -> "Network":
        """Wrap an in-memory snapshot (topology + device configs)."""
        return cls(snapshot, trace=trace)

    @classmethod
    def from_topology(
        cls, topology: Topology, trace: "Tracer | bool" = False
    ) -> "Network":
        """Wrap a bare topology with empty device configurations."""
        return cls(Snapshot(topology=topology), trace=trace)

    @classmethod
    def from_analyzer(cls, analyzer: DifferentialNetworkAnalyzer) -> "Network":
        """Adopt an already-converged analyzer (no re-simulation).

        The analyzer's tracer and metrics registry are adopted too, so
        spans recorded before and after adoption land in one tree.
        """
        network = cls(analyzer.snapshot)
        network._analyzer = analyzer
        network._tracer = analyzer.tracer
        network._metrics = analyzer.metrics
        if analyzer.events is not None:
            network._events = analyzer.events
        else:
            analyzer.events = network._events
        return network

    @classmethod
    def load(cls, directory: str, trace: "Tracer | bool" = False) -> "Network":
        """Load a snapshot saved with :meth:`save` / ``Snapshot.save``."""
        return cls(Snapshot.load(directory), trace=trace)

    @classmethod
    def generate(
        cls,
        topology: str = "fat_tree",
        size: int = 4,
        seed: int = 0,
        edges: int | None = None,
        trace: "Tracer | bool" = False,
    ) -> "Network":
        """A configured built-in scenario network.

        ``topology`` is one of :data:`TOPOLOGY_KINDS`; ``size`` is the
        fat-tree arity or router count, ``seed``/``edges`` parameterize
        the random generator.  The generator metadata (roles, host
        subnets) stays available as :attr:`scenario` for the campaign
        enumerators.
        """
        from repro.workloads import scenarios as builders

        scenario: Scenario
        if topology == "fat_tree":
            scenario = builders.fat_tree_ospf(size)
        elif topology == "ring":
            scenario = builders.ring_ospf(size)
        elif topology == "line":
            scenario = builders.line_static(size)
        elif topology == "random":
            if edges is None:
                edges = size + size // 2
            scenario = builders.random_ospf(size, edges, seed=seed)
        elif topology == "geant":
            scenario = builders.geant_ospf()
        elif topology == "internet2":
            scenario = builders.internet2_bgp()
        else:
            raise InvalidChangeError(
                f"unknown topology {topology!r}; known: {TOPOLOGY_KINDS}"
            )
        network = cls(scenario.snapshot, trace=trace)
        network.scenario = scenario
        return network

    @staticmethod
    def connect(address: str) -> "ServiceClient":
        """A client session against a running what-if service.

        ``address`` is ``host:port`` (TCP) or a filesystem path (Unix
        socket) of a ``repro serve`` daemon.  The returned
        :class:`~repro.service.client.ServiceClient` speaks the
        newline-delimited versioned-JSON frame protocol and mirrors
        the facade's query surface — ``preview``/``campaign``/
        ``explain`` return the same result types this class does,
        decoded from the same versioned documents.  Use it
        as a context manager, like the in-process facade.
        """
        from repro.service.client import ServiceClient

        return ServiceClient.connect(address)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release everything the session holds beyond the snapshot.

        Drops the converged analyzer (and with it any fork journal),
        the cached campaign runner and its encoded base payload, and
        the recorded spans/events.  The facade stays usable — the next
        analysis re-converges — but a ``with Network...`` block exits
        with the heavy state gone.
        """
        if self._runner is not None:
            self._runner.close()
        self._runner = None
        self._runner_key = None
        self._analyzer = None
        self._events = EventLog()
        if self._tracer is not NULL_TRACER:
            self._tracer = Tracer()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- converged state -----------------------------------------------------

    @property
    def analyzer(self) -> DifferentialNetworkAnalyzer:
        """The underlying differential analyzer (converges on first use).

        A snapshot the simulator cannot converge raises
        :class:`~repro.api.errors.ConvergenceError` (chaining the
        underlying failure) instead of leaking engine internals.
        """
        if self._analyzer is None:
            try:
                self._analyzer = DifferentialNetworkAnalyzer(
                    self.snapshot,
                    tracer=self._tracer,
                    metrics=self._metrics,
                    events=self._events,
                )
            except ReproError:
                raise
            except Exception as error:
                raise ConvergenceError(
                    f"base network failed to converge: {error}"
                ) from error
        return self._analyzer

    # -- observability -------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The session tracer (the null tracer unless ``trace=`` set)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """Cumulative work metrics across every analysis on this session."""
        return self._metrics

    @property
    def events(self) -> EventLog:
        """The session's structured event log.

        Provenance-enabled analyses (``apply``/``preview`` with
        ``provenance=True``) append span, metric, and provenance
        records here; export with ``events.to_dict()`` (versioned
        JSON) or ``events.to_jsonl()``.
        """
        return self._events

    def profile(self) -> dict[str, Any]:
        """The recorded span tree as a versioned JSON document.

        Meaningful after analyses on a session constructed with
        ``trace=True`` (or an explicit tracer); the null tracer yields
        an empty span list.
        """
        return self._tracer.to_dict()

    @property
    def state(self) -> NetworkState:
        """The converged control/data-plane state."""
        return self.analyzer.state

    def converged(self) -> bool:
        """True once the one-time simulation has run."""
        return self._analyzer is not None

    def summary(self) -> str:
        """One-line description of the snapshot."""
        return self.snapshot.summary()

    def save(self, directory: str) -> None:
        """Write the (current) snapshot to a config directory."""
        self.snapshot.save(directory)

    # -- differential analysis -----------------------------------------------

    def changeset(self, label: str = "") -> ChangeSet:
        """A fresh fluent :class:`ChangeSet` builder (convenience)."""
        return ChangeSet(label)

    def apply(
        self,
        change: ChangesLike,
        label: str | None = None,
        provenance: bool = False,
    ) -> DeltaReport:
        """Commit a change — or a whole batch of changes — and return
        everything it (they) did.

        Accepts one :class:`Change`/:class:`ChangeSet` or a sequence of
        them.  A sequence is analyzed **batched**: every edit applies
        to control-plane state first, the per-change dirty sets are
        unioned, and scoped recomputation plus the differential data
        plane run exactly once — equal output to applying the changes
        sequentially (``counters["edits_batched"]`` records the batch
        size), at a fraction of the cost.  The network's converged
        state advances to the post-change network; subsequent queries
        see the change applied.

        ``provenance=True`` attributes every delta to the edits that
        (may have) caused it and streams structured records into
        :attr:`events` — see :meth:`DeltaReport.why`.
        """
        return self.analyzer.analyze_batch(
            _as_changes(change), label=label, provenance=provenance
        )

    def preview(
        self,
        change: ChangesLike,
        label: str | None = None,
        provenance: bool = False,
    ) -> DeltaReport:
        """Evaluate a change (or batch of changes) without committing.

        Fork-backed: the report is identical to :meth:`apply` of the
        same change(s), but the converged state rolls back afterwards —
        also when the change fails to apply.  Sequences run through the
        same single-recompute batch pipeline as :meth:`apply`.
        ``provenance=True`` behaves exactly as in :meth:`apply`; the
        provenance record and event-log records survive the rollback.
        """
        return self.analyzer.what_if_batch(
            _as_changes(change), label=label, provenance=provenance
        )

    def campaign(
        self,
        scenarios: Sequence[WhatIfScenario],
        jobs: int = 1,
        backend: str | None = None,
        invariants: Sequence[InvariantLike] | None = None,
        monitored: Sequence[Prefix] | None = None,
        with_signatures: bool = True,
        label: str = "",
        provenance: bool = False,
        with_spans: bool = False,
    ) -> CampaignReport:
        """Batch what-if analysis of many scenarios against this state.

        Workers fork the warm converged state per scenario (serial
        backend) or unpickle one replica each (``jobs > 1``); the
        report is byte-identical either way.  ``backend`` selects
        ``"serial"`` or ``"multiprocessing"`` explicitly; by default
        ``jobs`` decides.  Batches of one scenario always run serially
        (there is nothing to parallelize) — check ``report.backend``
        for what actually ran.  ``invariants`` accepts instances or
        registered names; ``monitored`` scopes blast-radius ranking to
        the given prefixes.  ``provenance=True`` attributes every
        scenario's deltas and violations to its edits (outcome
        ``causes``) and merges per-worker event logs into
        ``report.events``; ``with_spans=True`` records per-scenario
        span forests for ``report.chrome_trace()``.
        """
        if backend is not None:
            if backend == "serial":
                jobs = 1
            elif backend == "multiprocessing":
                jobs = max(jobs, 2)
            else:
                raise InvalidChangeError(
                    f"unknown backend {backend!r}; "
                    "expected 'serial' or 'multiprocessing'"
                )
        # Runner reuse: equal configuration means the runner (and its
        # cached encoded-base payload) can serve this call too — a
        # service answering many campaign requests encodes the base
        # once per generation instead of once per request.  Invariant
        # *instances* key by identity; the key holds the instances
        # themselves (not id()) so a dead invariant's recycled address
        # can never alias a live one into a stale runner.
        key = (
            tuple(invariants or []),
            with_signatures,
            label,
            tuple(str(p) for p in monitored) if monitored is not None else None,
            provenance,
            with_spans,
        )
        if self._runner is None or self._runner_key != key:
            self._runner = CampaignRunner.from_analyzer(
                self.analyzer,
                invariants=_resolve_invariants(invariants or []),
                with_signatures=with_signatures,
                label=label or self.snapshot.summary(),
                monitored=list(monitored) if monitored is not None else None,
                provenance=provenance,
                with_spans=with_spans,
            )
            self._runner_key = key
        return self._runner.run(list(scenarios), jobs=jobs)

    # -- queries -------------------------------------------------------------

    def trace(
        self,
        source: str,
        dst: DestinationLike,
        src: DestinationLike | None = None,
        proto: int | None = None,
        dport: int | None = None,
        max_hops: int = 64,
    ) -> PacketTrace:
        """Follow one concrete packet from ``source`` to its fates.

        ``dst``/``src`` accept dotted-quad strings, addresses, or raw
        ints; unset header fields are wildcard-ish zeros.
        """
        packet: dict[str, int] = {"dst": _as_dst(dst)}
        if src is not None:
            packet["src"] = _as_dst(src)
        if proto is not None:
            packet["proto"] = proto
        if dport is not None:
            packet["dport"] = dport
        return _trace_packet(self.state, source, packet, max_hops)

    def paths(
        self, source: str, dst: DestinationLike, max_hops: int = 64
    ) -> ForwardingPaths:
        """The forwarding DAG from ``source`` for one destination."""
        edges, delivered = _forwarding_paths(
            self.state, source, _as_dst(dst), max_hops
        )
        return ForwardingPaths(source=source, edges=edges, delivered=delivered)

    def path_diff(
        self, change: ChangeLike, source: str, dst: DestinationLike
    ) -> PathDiff:
        """How a change would move the (source, destination) DAG.

        Fork-backed like :meth:`preview`: the change is applied
        speculatively, the post-change DAG extracted, and the state
        rolled back.
        """
        address = _as_dst(dst)
        before = self.paths(source, address)
        analyzer = self.analyzer
        with analyzer.fork():
            analyzer.analyze(_as_change(change))
            after_edges, after_delivered = _forwarding_paths(
                analyzer.state, source, address
            )
        return PathDiff(
            added_edges=after_edges - before.edges,
            removed_edges=before.edges - after_edges,
            reachable_before=before.delivered,
            reachable_after=after_delivered,
        )

    # -- invariants ----------------------------------------------------------

    def check(
        self,
        report: DeltaReport,
        invariants: Sequence[InvariantLike],
    ) -> list[Violation]:
        """Violations a change introduced or repaired.

        ``invariants`` mixes instances and registered names (see
        :func:`repro.core.invariants.register_invariant`); verdicts
        come back flat, in invariant order.
        """
        violations: list[Violation] = []
        for invariant in _resolve_invariants(invariants):
            violations.extend(invariant.check(report))
        return violations

    def check_by_invariant(
        self,
        report: DeltaReport,
        invariants: Sequence[InvariantLike],
    ) -> Mapping[str, list[Violation]]:
        """Like :meth:`check`, grouped by invariant name (non-empty only)."""
        return _check_invariants(report, _resolve_invariants(invariants))

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        converged = "converged" if self.converged() else "not converged"
        return f"Network({self.snapshot.summary()}; {converged})"
