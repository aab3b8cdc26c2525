"""The six workloads: inputs, the request a user waits on, the checker.

Each workload drives the system from outside through public functions
only, generates every input from its seed, and knows how to verify
what it got back against an independent path (``SnapshotDiff``, the
in-process facade, or the serial campaign backend).  Requests are
closed-loop: ``measure.closed_loop`` calls :meth:`Workload.request`
again only after the previous call returned.

Why each workload exists is recorded in ``README.md`` and, in one
line, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from typing import Any

from repro.api import Network
from repro.bench.workloads import wan_k8_batch
from repro.campaign import CampaignRunner, all_single_link_failures
from repro.core import codec
from repro.core.change import Change, LinkDown, SetLocalPref, SetOspfCost, ShutdownInterface
from repro.core.change_text import parse_change_batch, serialize_change_batch
from repro.core.snapshot_diff import SnapshotDiff
from repro.obs import MetricsRegistry, Tracer
from repro.service import ServiceClient, protocol
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import Scenario, fat_tree_ospf, internet2_bgp

from measure import Measurement

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT = os.path.join(HERE, "out")

# Verify samples are drawn from the first slots of a pool, so that a
# full-length run is certain to have visited every one of them.
SAMPLE_WINDOW = 30
SAMPLE_SIZE = 5


def link_down(link: Any) -> LinkDown:
    (router1, interface1), (router2, interface2) = link.side_a, link.side_b
    return LinkDown(router1, router2, interface1, interface2)


def combined(changes: list[Change]) -> Change:
    """One change holding every edit of a batch, in order — the form
    ``SnapshotDiff.analyze`` takes."""
    return Change(
        edits=[edit for change in changes for edit in change.edits],
        label="combined",
    )


def flat(payload: dict[str, Any]) -> dict[str, float]:
    """Counters and gauges of a ``MetricsRegistry`` payload, by name."""
    return {**payload.get("counters", {}), **payload.get("gauges", {})}


def canonical(document: Any) -> str:
    """Canonical JSON with wall-clock fields zeroed: the form in which
    the service promises byte-identity."""
    return json.dumps(
        protocol.strip_timings(document), sort_keys=True, separators=(",", ":")
    )


class Workload:
    """One workload; subclasses fill in the hooks."""

    name = ""
    tail = 90  # the percentile reported as request_tail_ms
    clients = 1
    verdicts = 1  # delta reports delivered per request
    warmup = 3  # requests per client sent before timing starts
    # The timed phase is cut into this many slices and each end-to-end
    # number is that of its best slice: on a shared box interference
    # comes in bursts of seconds and only ever adds time, so the
    # quietest slice is the steadiest estimate of what the program
    # itself costs.
    slices = 5

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer
        # slot -> what the program answered, retained for verify().
        self.kept: dict[Any, Any] = {}
        self.sample: set[int] = set()

    def draw_sample(self, slots: int) -> None:
        window = range(min(slots, SAMPLE_WINDOW))
        self.sample = {0, *self.rng.sample(window, min(SAMPLE_SIZE, len(window)))}

    def setup(self) -> None:
        """Generate inputs and converge the base."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process and drop every file setup() created."""

    def daemon_pids(self) -> tuple[int, ...]:
        return ()

    def has_request(self, client: int, index: int) -> bool:
        return True

    def request(self, client: int, index: int) -> str:
        """Send request ``index`` of ``client``, wait for the answer,
        and return the request's kind (a label for the per-layer
        split, e.g. ``hit``/``miss``)."""
        raise NotImplementedError

    def verify(self, outcome: Measurement) -> None:
        """Untimed: check retained answers; ``outcome.fail`` each miss."""
        raise NotImplementedError

    def work_counters(self) -> dict[str, float]:
        """The program's own cumulative work counts and levels
        (``repro.obs`` counters and gauges, by name)."""
        raise NotImplementedError

    def local(self) -> Network:
        """A converged in-process ``Network`` over this workload's base."""
        raise NotImplementedError

    def examples(self, count: int) -> list[list[Change]]:
        """The change batches of the first ``count`` request inputs."""
        raise NotImplementedError

    def inject_fault(self) -> None:
        """Test hook: corrupt one retained answer so verify() must fail."""
        first, second = sorted(self.kept)[:2]
        self.kept[first] = self.kept[second]

    def tracers(self) -> list[Tracer]:
        return [self.tracer]


class InProcess(Workload):
    """A ``Network`` in this process over a generated scenario."""

    net: Network | None = None

    def build_scenario(self) -> Scenario:
        raise NotImplementedError

    def build_pool(self) -> list[tuple[str, Any]]:
        """(kind, request input) per slot; requests cycle the pool."""
        raise NotImplementedError

    def setup(self) -> None:
        with self.tracer.span("bench.generate"):
            self.scenario = self.build_scenario()
            self.pool = self.build_pool()
            self.draw_sample(len(self.pool))
        with self.tracer.span("bench.converge"):
            # The analyzer mutates its snapshot; the scenario keeps
            # the pristine copy the generators and the checker read.
            self.net = Network.from_snapshot(
                self.scenario.snapshot.clone(), trace=self.tracer
            )
            self.net.analyzer
        self.commits = 0

    def close(self) -> None:
        if self.net is not None:  # None when the first setup() raised
            self.net.close()

    def work_counters(self) -> dict[str, float]:
        return flat(self.net.metrics.to_payload())

    def local(self) -> Network:
        return self.net

    def examples(self, count: int) -> list[list[Change]]:
        return [changes for _, changes in self.pool[:count]]

    def verify_base_intact(self, outcome: Measurement) -> None:
        """Fork+rollback (or apply+revert) must leave the base exactly
        where it started."""
        analyzer = self.net.analyzer
        if codec.snapshot_digest(analyzer.snapshot) != codec.snapshot_digest(
            self.scenario.snapshot
        ):
            outcome.fail(f"{self.name}: base snapshot digest moved")
        if analyzer.generation != self.commits:
            outcome.fail(
                f"{self.name}: generation {analyzer.generation}, "
                f"expected {self.commits}"
            )


class Preview(InProcess):
    """Requests are fork-backed ``Network.preview`` calls."""

    def request(self, client: int, index: int) -> str:
        slot = index % len(self.pool)
        kind, changes = self.pool[slot]
        with self.tracer.span("bench.request", id=index, kind=kind):
            report = self.net.preview(changes)
        if slot in self.sample:
            self.kept[slot] = report
        return kind

    def verify(self, outcome: Measurement) -> None:
        reference = SnapshotDiff(self.scenario.snapshot.clone())
        for slot, report in sorted(self.kept.items()):
            expected = reference.analyze(combined(self.pool[slot][1]))
            if report.behavior_signature() != expected.behavior_signature():
                outcome.fail(f"{self.name}: slot {slot} differs from SnapshotDiff")
        self.verify_base_intact(outcome)


class DcLinkPreview(Preview):
    name = "dc_link_preview"
    tail = 80

    def build_scenario(self) -> Scenario:
        return fat_tree_ospf(6)

    def build_pool(self) -> list[tuple[str, Any]]:
        # Every fabric link once, in seeded order, so that runs of
        # different seeds cover the same mix of edge-agg and agg-core
        # failures and differ only in order and in the edit kind.
        links = list(self.scenario.topology.links())
        self.rng.shuffle(links)
        pool: list[tuple[str, Any]] = []
        for link in links:
            if self.rng.random() < 0.5:
                edit, kind = link_down(link), "link_down"
            else:
                router, interface = self.rng.choice([link.side_a, link.side_b])
                edit, kind = ShutdownInterface(router, interface), "if_shutdown"
            pool.append((kind, [Change.of(edit, label=f"{kind} {link}")]))
        return pool


class DcStaticPreview(Preview):
    name = "dc_static_preview"
    warmup = 50

    def build_scenario(self) -> Scenario:
        return fat_tree_ospf(6)

    def build_pool(self) -> list[tuple[str, Any]]:
        generator = ChangeGenerator(self.scenario, seed=self.rng.getrandbits(32))
        pool: list[tuple[str, Any]] = []
        for slot in range(1024):
            if slot % 4 == 3:
                pool.append(("acl_block", [generator.random_acl_block()[0]]))
            else:
                pool.append(("static_add", [generator.random_static_route()[0]]))
        return pool


def wan_scenario() -> Scenario:
    return internet2_bgp(customers_per_pop=2, prefixes_per_customer=3)


class WanPolicyPreview(Preview):
    name = "wan_policy_preview"
    warmup = 20

    def build_scenario(self) -> Scenario:
        return wan_scenario()

    def build_pool(self) -> list[tuple[str, Any]]:
        generator = ChangeGenerator(self.scenario, seed=self.rng.getrandbits(32))
        import_maps = [
            (router, name)
            for router, config in sorted(self.scenario.snapshot.configs.items())
            for name in sorted(config.route_maps)
        ]
        pool: list[tuple[str, Any]] = []
        for slot in range(512):
            if slot % 4 == 3:
                pool.append(("announce", [generator.random_prefix_flap()[0]]))
            else:
                router, name = self.rng.choice(import_maps)
                pref = self.rng.choice((50, 150, 250, 300))
                flip = Change.of(
                    SetLocalPref(router, name, 10, pref),
                    label=f"{router} {name} local-pref {pref}",
                )
                pool.append(("local_pref", [flip]))
        return pool


class WanCommitBatch(InProcess):
    """Each request commits a k=8 WAN batch, then its exact inverse."""

    name = "wan_commit_batch"
    tail = 80
    verdicts = 2

    def build_scenario(self) -> Scenario:
        return wan_scenario()

    def build_pool(self) -> list[tuple[str, Any]]:
        return [
            ("apply_revert", wan_k8_batch(self.scenario, seed=self.rng.getrandbits(32)))
            for _ in range(64)
        ]

    def examples(self, count: int) -> list[list[Change]]:
        return [batch for _, (batch, _inverse) in self.pool[:count]]

    def request(self, client: int, index: int) -> str:
        slot = index % len(self.pool)
        kind, (batch, inverse) = self.pool[slot]
        analyzer = self.net.analyzer
        with self.tracer.span("bench.request", id=index, kind=kind):
            applied = analyzer.analyze_batch(batch)
            reverted = analyzer.analyze_batch(inverse)
        self.commits += 2
        if slot in self.sample:
            self.kept[slot] = (applied, reverted)
        return kind

    def verify(self, outcome: Measurement) -> None:
        reference = SnapshotDiff(self.scenario.snapshot.clone())
        for slot, reports in sorted(self.kept.items()):
            batch, inverse = self.pool[slot][1]
            # Committing both sides walks the reference out and back,
            # so it is at the base again for the next sample.
            for report, changes in zip(reports, (batch, inverse)):
                expected = reference.analyze(combined(changes), commit=True)
                if report.behavior_signature() != expected.behavior_signature():
                    outcome.fail(f"{self.name}: slot {slot} differs from SnapshotDiff")
        self.verify_base_intact(outcome)


class CampaignCold(InProcess):
    """Each request is a fresh two-worker campaign over the warm base."""

    name = "campaign_cold_2j"
    tail = 80
    verdicts = 8
    warmup = 2

    def build_scenario(self) -> Scenario:
        return fat_tree_ospf(4)

    def build_pool(self) -> list[tuple[str, Any]]:
        failures = all_single_link_failures(self.scenario)
        return [("cold", self.rng.sample(failures, self.verdicts)) for _ in range(64)]

    def setup(self) -> None:
        super().setup()
        self.work = MetricsRegistry()  # merged over every request's report
        self.encodes = 0

    def examples(self, count: int) -> list[list[Change]]:
        return [list(scenario.batch()) for scenario in self.pool[0][1][:count]]

    def request(self, client: int, index: int) -> str:
        slot = index % len(self.pool)
        kind, scenarios = self.pool[slot]
        with self.tracer.span("bench.request", id=index, kind=kind):
            runner = CampaignRunner.from_analyzer(self.net.analyzer)
            report = runner.run(scenarios, jobs=2)
            runner.close()
        self.encodes += runner.pickle_count
        self.work.merge(report.metrics)
        if slot in self.sample:
            self.kept[slot] = report
        return kind

    def work_counters(self) -> dict[str, float]:
        return {**flat(self.work.to_payload()), "campaign.encodes": self.encodes}

    def verify(self, outcome: Measurement) -> None:
        serial = CampaignRunner.from_analyzer(self.net.analyzer)
        for slot, report in sorted(self.kept.items()):
            expected = serial.run(self.pool[slot][1], jobs=1)
            if report.failed():
                outcome.fail(f"{self.name}: slot {slot} has failed scenarios")
            if canonical(report.to_dict()["outcomes"]) != canonical(
                expected.to_dict()["outcomes"]
            ):
                outcome.fail(f"{self.name}: slot {slot} jobs=2 differs from serial")
        self.verify_base_intact(outcome)


class SvcMixed(Workload):
    """Two blocking clients against a ``python -m repro serve`` child."""

    name = "svc_mixed_2c"
    clients = 2
    warmup = 12  # per client: 8 hot-set first misses, then 4 mixed
    # One-second slices (~110 requests, half a round of cold sites):
    # every request here crosses threads and processes several times,
    # so a busy host disturbs this workload most, and short slices are
    # likelier to fall between two bursts.
    slices = 15
    HOT = 16
    CACHE = 64
    ROUNDS = 40  # of 64 cold scripts each: ~8500 requests, over a minute of load

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        # Tracer is single-threaded: one per client thread.
        self.client_tracers = [
            Tracer() if tracer.enabled else tracer for _ in range(self.clients)
        ]
        self.process: subprocess.Popen[str] | None = None
        self.connections: list[ServiceClient] = []
        self.network: Network | None = None
        self.directory = os.path.join(OUT, f"base-{os.getpid()}")

    def tracers(self) -> list[Tracer]:
        return [self.tracer, *self.client_tracers]

    def setup(self) -> None:
        with self.tracer.span("bench.generate"):
            self.scenario = fat_tree_ospf(4)
            links = list(self.scenario.topology.links())
            hot = [
                Change.of(link_down(link))
                for link in self.rng.sample(links, self.HOT)
            ]
            sites = [
                (router, interface)
                for router, config in sorted(self.scenario.snapshot.configs.items())
                for interface, settings in sorted(config.ospf.interfaces.items())
                if not settings.passive
            ]
            # script key -> text; hot keys are ints < HOT, cold keys follow.
            self.scripts = [serialize_change_batch([change]) for change in hot]
            # What a miss costs depends on the site (25-65 ms), not on
            # the cost written, so cold scripts come in rounds: every
            # site once, in seeded order, at a cost no earlier round
            # used.  Any stretch of the run then holds the same work.
            for cost in range(11, 11 + self.ROUNDS):
                self.rng.shuffle(sites)
                self.scripts += [
                    serialize_change_batch([Change.of(SetOspfCost(*site, cost))])
                    for site in sites
                ]
            self.schedule = [self._schedule(client) for client in range(self.clients)]
            self.draw_sample(self.HOT)  # hot keys to check against in-process
            self.cold_sample = {
                key
                for schedule in self.schedule
                for key in [k for kind, k in schedule if kind == "cold"][:SAMPLE_SIZE]
            }
            self.scenario.snapshot.save(self.directory)
        self.sent = [{"preview": 0, "ping": 0} for _ in range(self.clients)]
        with self.tracer.span("bench.converge"):
            self._spawn()

    def _schedule(self, client: int) -> list[tuple[str, int]]:
        share = self.HOT // self.clients
        schedule = [("hot", client * share + i) for i in range(share)]
        # Cold keys interleave, so no two clients ever share one and
        # each client visits half of the sites per round.
        cold = iter(range(self.HOT + client, len(self.scripts), self.clients))
        while True:
            # Blocks of ten, exactly three of them cold: the mix is
            # 70:30 over every stretch of the run, not only on average.
            block = [("hot", self.rng.randrange(self.HOT)) for _ in range(7)]
            block += [("cold", key) for key, _ in zip(cold, range(3))]
            if len(block) < 10:
                return schedule
            self.rng.shuffle(block)
            schedule += block

    def _spawn(self) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", self.directory,
            "--listen", "127.0.0.1:0", "--cache-size", str(self.CACHE),
        ]
        if self.tracer.enabled:
            command.append("--trace")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True
        )
        assert self.process.stdout is not None
        banner = self.process.stdout.readline()
        if "listening on" not in banner:
            self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            self.process = None
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.address = banner.split("listening on ", 1)[1].split()[0]
        self.connections = [
            ServiceClient.connect(self.address) for _ in range(self.clients)
        ]
        for client in range(self.clients):
            self.ping(client)

    def ping(self, client: int) -> None:
        self.connections[client].ping()
        self.sent[client]["ping"] += 1

    def local(self) -> Network:
        if self.network is None:
            self.network = Network.from_snapshot(self.scenario.snapshot.clone())
            self.network.analyzer
        return self.network

    def examples(self, count: int) -> list[list[Change]]:
        return [parse_change_batch(script) for script in self.scripts[:count]]

    def close(self) -> None:
        if self.network is not None:
            self.network.close()
            self.network = None
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.process is not None:
            try:
                with ServiceClient.connect(self.address) as last:
                    last.shutdown()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
            assert self.process.stdout is not None
            self.process.stdout.close()
            self.process = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def daemon_pids(self) -> tuple[int, ...]:
        return (self.process.pid,) if self.process is not None else ()

    def has_request(self, client: int, index: int) -> bool:
        return index < len(self.schedule[client])

    def preview(self, client: int, key: int) -> dict[str, Any]:
        self.sent[client]["preview"] += 1
        return self.connections[client].request("preview", script=self.scripts[key])

    def request(self, client: int, index: int) -> str:
        kind, key = self.schedule[client][index]
        with self.client_tracers[client].span("bench.request", id=index, kind=kind):
            result = self.preview(client, key)
        if kind == "hot":
            # Every answer for a hot script must equal its first one.
            first = self.kept.setdefault(key, result)
            if first is not result and first != result:
                raise AssertionError(f"hot script {key}: hit differs from first miss")
        elif key in self.cold_sample:
            self.kept[key] = result
        return self.connections[client].last_cache or "none"

    def stats(self) -> dict[str, Any]:
        return self.connections[0].stats()

    def work_counters(self) -> dict[str, float]:
        return flat(self.stats()["metrics"])

    def verify(self, outcome: Measurement) -> None:
        for key, result in sorted(self.kept.items()):
            if key < self.HOT and key not in self.sample:
                continue
            # Exactly what the daemon does with the script.
            changes = parse_change_batch(self.scripts[key], label="request")
            expected = self.local().preview(changes, label=None).to_dict()
            if canonical(result) != canonical(expected):
                outcome.fail(f"{self.name}: script {key} differs from in-process")
        served = self.stats()["requests"]
        for op in ("preview", "ping"):
            sent = sum(counts[op] for counts in self.sent)
            if served.get(op, 0) != sent:
                outcome.fail(
                    f"{self.name}: daemon served {served.get(op, 0)} {op}, sent {sent}"
                )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        DcLinkPreview,
        DcStaticPreview,
        WanCommitBatch,
        WanPolicyPreview,
        SvcMixed,
        CampaignCold,
    )
}
