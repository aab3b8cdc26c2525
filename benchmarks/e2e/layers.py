"""Per-layer numbers of a traced run.

Three sources, all read from outside the program:

- the span forest: the benchmark's ``bench.*`` spans around each
  public call, with the spans ``repro.obs.Tracer`` records beneath
  them when the ``Network`` is built with tracing on.  A layer's time
  is its spans' *self* time (duration minus children), summed per
  request, median over requests;
- the program's work counters (``repro.obs.MetricsRegistry``, or the
  daemon's ``stats`` op), read before and after the traced loop;
- probes: direct timed calls of one public function (codec, planner,
  change text, an empty fork, ``SnapshotDiff``, a warm campaign
  runner, a lone service client), for layers no span isolates.

Every metric named under ``per_layer`` in ``BENCHMARK.json`` is
emitted for every workload; one a workload's requests never reach
stays 0.  Setting a name the file does not list is a ``KeyError``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

from repro.campaign import CampaignRunner
from repro.core import codec
from repro.core.change import Change
from repro.core.change_text import parse_change_batch, serialize_change_batch
from repro.core.delta import DeltaReport
from repro.core.snapshot_diff import SnapshotDiff
from repro.obs.trace import SpanRecord
from repro.service import ResultCache, change_digest, options_digest
from repro.workloads.scenarios import fat_tree_ospf

from measure import Measurement, median
from workloads import (
    OUT,
    CampaignCold,
    DcLinkPreview,
    SvcMixed,
    Workload,
    canonical,
    combined,
    link_down,
)

# span name -> per-layer metric fed by that span's self time (ms).
SPAN_METRICS = {
    "analyze.edits": "handlers.apply_edits_ms",
    "analyze.epoch": "handlers.epoch_ms",
    "pipeline.igp": "pipeline.igp_ms",
    "pipeline.fib": "pipeline.fib_ms",
    "pipeline.reachability": "pipeline.reachability_ms",
    "pipeline.bgp.sessions": "pipeline.bgp.sessions_ms",
    "pipeline.bgp.policy": "pipeline.bgp.policy_ms",
    "pipeline.bgp.adjrib": "pipeline.bgp.adjrib_ms",
    "pipeline.bgp.decision": "pipeline.bgp.decision_ms",
    # analyze.batch's own time plus pipeline.bgp's (origin collection
    # between its four stages): pipeline work no stage span claims.
    "analyze.batch": "pipeline.unattributed_ms",
    "pipeline.bgp": "pipeline.unattributed_ms",
    "fork.rollback": "forking.rollback_ms",
}

# work counter -> per-layer metric reported as count per request.
COUNT_METRICS = {
    "pipeline.spf_sources_recomputed": "pipeline.spf_sources_recomputed",
    "pipeline.bgp_sessions_rescanned": "pipeline.bgp_sessions_rescanned",
    "pipeline.bgp_prefixes_resolved": "pipeline.bgp_prefixes_resolved",
    "pipeline.fib_entries_updated": "pipeline.fib_entries_updated",
    "fork.rib_prefixes_restored": "forking.rib_prefixes_restored",
    "fork.fib_entries_restored": "forking.fib_entries_restored",
    "campaign.encodes": "campaign.encodes",
}


class Layers:
    """The per-layer result: every named metric, 0 until measured."""

    def __init__(self, named: list[dict[str, str]]) -> None:
        self.values = {entry["name"]: 0.0 for entry in named}
        self.units = {entry["name"]: entry["unit"] for entry in named}

    def __setitem__(self, name: str, value: float) -> None:
        if name not in self.values:
            raise KeyError(f"{name} is not a per_layer metric of BENCHMARK.json")
        self.values[name] = float(value)

    def result(self) -> dict[str, tuple[float, str]]:
        return {name: (value, self.units[name]) for name, value in self.values.items()}


def timed(call: Callable[[], Any], repeat: int) -> tuple[float, Any]:
    """(median seconds, last result) of ``repeat`` calls."""
    samples = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - start)
    return median(samples), result


# -- spans -------------------------------------------------------------------


def request_roots(workload: Workload) -> list[SpanRecord]:
    """The ``bench.request`` spans of the timed phase (warm-up dropped)."""
    return [
        root
        for tracer in workload.tracers()
        for root in tracer.roots
        if root.name == "bench.request" and root.labels["id"] >= workload.warmup
    ]


def from_spans(workload: Workload, layers: Layers) -> None:
    for root in workload.tracer.roots:
        if root.name == "bench.generate":
            layers["workloads.generate_ms"] = root.duration * 1e3
        elif root.name == "bench.converge":
            layers["controlplane.converge_ms"] = root.duration * 1e3
    roots = request_roots(workload)
    if not roots:
        return
    per_request: dict[str, list[float]] = {name: [] for name in set(SPAN_METRICS.values())}
    coverage = []
    plans = []
    for root in roots:
        sums = dict.fromkeys(per_request, 0.0)
        for record in root.walk():
            metric = SPAN_METRICS.get(record.name)
            if metric is not None:
                sums[metric] += record.duration - record.child_time()
            if record.name == "analyze.batch":
                plans.append(record.labels.get("plan"))
        for metric, total in sums.items():
            per_request[metric].append(total)
        coverage.append(root.child_time() / root.duration)
    for metric, samples in per_request.items():
        layers[metric] = median(samples) * 1e3
    layers["trace.coverage_share"] = median(coverage)
    if plans:
        layers["planner.full_share"] = plans.count("full") / len(plans)


def write_trace(workload: Workload, layers: Layers, counts: dict[str, float]) -> str:
    """Chrome trace-event JSON, the shape ``Tracer.to_chrome_trace``
    uses, plus each span's parent and request id and the counts."""
    events: list[dict[str, Any]] = []

    def visit(record: SpanRecord, parent: str | None, request: Any, tid: int) -> None:
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {**record.labels, "parent": parent, "request": request},
            }
        )
        for child in record.children:
            visit(child, record.name, request, tid)

    for tid, tracer in enumerate(workload.tracers()):
        for root in tracer.roots:
            visit(root, None, root.labels.get("id"), tid)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload.name}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {
                    "workload": workload.name,
                    "counts": counts,
                    "per_layer": layers.values,
                },
            },
            handle,
        )
    return path


# -- counters ----------------------------------------------------------------


def from_counters(
    layers: Layers, before: dict[str, float], after: dict[str, float], requests: int
) -> dict[str, float]:
    delta = {
        name: after[name] - before.get(name, 0)
        for name in after
        if isinstance(after[name], (int, float))
    }
    for counter, metric in COUNT_METRICS.items():
        layers[metric] = delta.get(counter, 0) / requests
    analysed = delta.get("pipeline.atoms_analyzed", 0)
    total = after.get("pipeline.atoms_total") or 0
    passes = delta.get("pipeline.passes", 0)
    if total and passes:
        layers["pipeline.atoms_dirty_share"] = analysed / (passes * total)
    return delta


# -- probes ------------------------------------------------------------------


def probe_common(workload: Workload, layers: Layers, reps: Callable[[int], int]) -> None:
    """Layers every workload has: change text, planner, fork journal,
    report serialization, codec, and the full-recompute reference."""
    local = workload.local()
    analyzer = local.analyzer
    batches = workload.examples(reps(20))
    # Script text has no form for every edit kind (a BGP neighbor
    # removal has none); batches holding one are not timed here.
    texts = []
    for batch in batches:
        try:
            texts.append(timed(lambda b=batch: serialize_change_batch(b), 3))
        except ValueError:
            continue
    if texts:
        layers["change_text.serialize_us"] = 1e6 * median([s for s, _ in texts])
        layers["change_text.parse_us"] = 1e6 * median(
            [timed(lambda t=text: parse_change_batch(t), 3)[0] for _, text in texts]
        )

    plans = [timed(lambda b=batch: analyzer.planner.plan(b), 3) for batch in batches]
    layers["planner.plan_us"] = 1e6 * median([seconds for seconds, _ in plans])
    layers["planner.estimated_dirty_fraction"] = median(
        [
            plan.estimated_prefixes / plan.total_prefixes if plan.total_prefixes else 0.0
            for _, plan in plans
        ]
    )

    def empty_fork() -> None:
        with analyzer.fork():
            pass

    layers["forking.empty_fork_us"] = 1e6 * timed(empty_fork, reps(200))[0]

    few = batches[: reps(3)]
    previews = [timed(lambda b=batch: local.preview(b), 1) for batch in few]
    reports = [report for _, report in previews]
    documents = [report.to_dict() for report in reports]
    layers["serialize.report_to_dict_ms"] = 1e3 * median(
        [timed(report.to_dict, 3)[0] for report in reports]
    )
    layers["serialize.report_from_dict_ms"] = 1e3 * median(
        [timed(lambda d=document: DeltaReport.from_dict(d), 3)[0] for document in documents]
    )
    layers["serialize.report_json_bytes"] = median(
        [len(canonical(document)) for document in documents]
    )
    layers["delta.behavior_signature_ms"] = 1e3 * median(
        [timed(report.behavior_signature, 3)[0] for report in reports]
    )

    snapshot = analyzer.snapshot
    seconds, payload = timed(lambda: codec.dumps_base(analyzer), reps(2))
    layers["codec.dumps_base_ms"] = seconds * 1e3
    layers["codec.base_payload_bytes"] = len(payload)
    loads_base = timed(lambda: codec.loads_base(payload), reps(2))[0]
    layers["codec.loads_base_ms"] = loads_base * 1e3
    seconds, packed = timed(lambda: codec.dumps(snapshot), reps(5))
    layers["codec.snapshot_dumps_ms"] = seconds * 1e3
    layers["codec.snapshot_loads_ms"] = 1e3 * timed(lambda: codec.loads(packed), reps(5))[0]
    layers["codec.snapshot_digest_ms"] = 1e3 * timed(
        lambda: codec.snapshot_digest(snapshot), reps(5)
    )[0]

    # The reference path: simulate both snapshots in full, then diff.
    reference = SnapshotDiff(snapshot.clone())
    simulate = timed(reference.base_state, 1)[0]
    layers["codec.loads_vs_converge_ratio"] = loads_base / simulate
    after = median(
        [timed(lambda b=batch: reference.analyze(combined(b)), 1)[0] for batch in few]
    )
    layers["snapshot_diff.analyze_ms"] = (simulate + after) * 1e3
    layers["snapshot_diff.speedup"] = (simulate + after) / median(
        [seconds for seconds, _ in previews]
    )


def probe_scale(
    workload: DcLinkPreview, layers: Layers, reps: Callable[[int], int], budget: float
) -> None:
    """The same single-link preview on smaller and larger fat-trees.
    The k=8 point alone costs about four seconds, so a run whose probe
    budget is smaller leaves it 0."""
    for k, previews in ((4, 6), (8, 2)) if budget >= 4.0 else ((4, 6),):
        scenario = fat_tree_ospf(k)
        links = workload.rng.sample(list(scenario.topology.links()), reps(previews))
        with scenario.network() as network:
            network.analyzer
            runs = [
                timed(lambda l=link: network.preview(Change.of(link_down(l))), 1)
                for link in links
            ]
        layers[f"scale.link_preview_ms.k{k}"] = 1e3 * median([s for s, _ in runs])
        layers[f"scale.atoms_dirty_share.k{k}"] = median(
            [r.counters["atoms_analyzed"] / r.counters["atoms_total"] for _, r in runs]
        )


def probe_service(
    workload: SvcMixed, layers: Layers, outcome: Measurement, reps: Callable[[int], int]
) -> None:
    by_kind: dict[str, list[float]] = {"hit": [], "miss": []}
    for kind, latency in zip(outcome.kinds, outcome.latencies):
        by_kind.setdefault(kind, []).append(latency)
    if by_kind["hit"]:
        layers["service.hit_ms"] = 1e3 * median(by_kind["hit"])
    if by_kind["miss"]:
        layers["service.miss_ms.c2"] = 1e3 * median(by_kind["miss"])
    layers["service.ping_rtt_ms"] = 1e3 * timed(lambda: workload.ping(0), reps(50))[0]
    # Misses with the second client idle: never-used scripts, taken
    # from the far end of the cold list.
    alone = [
        timed(lambda k=key: workload.preview(0, k), 1)[0]
        for key in range(len(workload.scripts) - reps(12), len(workload.scripts))
    ]
    layers["service.miss_ms.c1"] = 1e3 * median(alone)
    layers["service.queue_wait_ms"] = (
        layers.values["service.miss_ms.c2"] - layers.values["service.miss_ms.c1"]
    )
    layers["service.response_bytes"] = median(
        [len(canonical(result)) for result in workload.kept.values()]
    )
    stats = workload.stats()
    cache = stats["cache"]
    layers["service.cache.hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    layers["service.cache.evictions"] = cache["evictions"]
    layers["service.errors"] = stats["metrics"]["counters"].get("service.errors", 0)

    # The cache's three steps, on the daemon's own classes in this process.
    batches = workload.examples(reps(20))
    options = {"op": "preview", "label": None, "provenance": False}
    layers["service.cache.key_us"] = 1e6 * median(
        [
            timed(lambda b=batch: (change_digest(b), options_digest(options)), 3)[0]
            for batch in batches
        ]
    )
    cache_probe = ResultCache(workload.CACHE)
    values = [canonical(result) for result in list(workload.kept.values())[:8]]
    keys = [("base", f"{i}", "options") for i in range(256)]
    puts, gets = [], []
    for i, key in enumerate(keys):
        puts.append(timed(lambda: cache_probe.put(key, values[i % len(values)]), 1)[0])
        gets.append(timed(lambda: cache_probe.get(key), 1)[0])
    layers["service.cache.put_us"] = 1e6 * median(puts)
    layers["service.cache.get_us"] = 1e6 * median(gets)


def probe_campaign(
    workload: CampaignCold, layers: Layers, cold_p50: float, reps: Callable[[int], int]
) -> None:
    scenarios = workload.pool[0][1]
    with CampaignRunner.from_analyzer(workload.net.analyzer) as runner:
        serial, report = timed(lambda: runner.run(scenarios, jobs=1), reps(3))
        runner.run(scenarios, jobs=2)  # encodes the base once
        warm = timed(lambda: runner.run(scenarios, jobs=2), reps(3))[0]
    layers["campaign.serial_run_ms"] = serial * 1e3
    layers["campaign.parallel_run_ms"] = warm * 1e3
    layers["campaign.parallel_speedup"] = serial / warm
    layers["campaign.cold_overhead_ms"] = (cold_p50 - warm) * 1e3
    layers["campaign.report_to_dict_ms"] = 1e3 * timed(report.to_dict, reps(5))[0]


def collect(
    workload: Workload,
    outcome: Measurement,
    before: dict[str, float],
    named: list[dict[str, str]],
    untraced_p50: float,
    budget: float,
) -> tuple[Layers, dict[str, float]]:
    """Every per-layer metric of one traced run, and the raw count deltas."""
    scale = min(1.0, budget / 4.0)

    def reps(full: int) -> int:
        return max(1, round(full * scale))

    layers = Layers(named)
    from_spans(workload, layers)
    requests = outcome.attempted + workload.warmup * workload.clients
    counts = from_counters(layers, before, workload.work_counters(), requests)
    traced_p50 = median(outcome.latencies)
    layers["obs.trace_overhead_share"] = traced_p50 / untraced_p50 - 1.0
    with workload.tracer.span("bench.probes"):
        probe_common(workload, layers, reps)
        if isinstance(workload, DcLinkPreview):
            layers["scale.link_preview_ms.k6"] = traced_p50 * 1e3
            layers["scale.atoms_dirty_share.k6"] = layers.values["pipeline.atoms_dirty_share"]
            probe_scale(workload, layers, reps, budget)
        if isinstance(workload, SvcMixed):
            layers["service.startup_s"] = layers.values["controlplane.converge_ms"] / 1e3
            probe_service(workload, layers, outcome, reps)
        if isinstance(workload, CampaignCold):
            probe_campaign(workload, layers, traced_p50, reps)
    return layers, counts
