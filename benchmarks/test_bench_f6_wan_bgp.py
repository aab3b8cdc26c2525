"""F6 — WAN/BGP changes on Internet2: DNA vs snapshot-diff.

Reproduces the WAN portion of the evaluation: policy changes
(local-pref flips), route churn (announce/withdraw), customer session
loss, and backbone link failures — the change mix of an ISP.  The BGP
work is per-dirty-prefix in DNA, so prefix-scoped changes beat the
baseline by the prefix count of the network.
"""

from __future__ import annotations

from repro.bench.harness import Table, median, time_call
from repro.bench.workloads import wan_k8_batch
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import Change, LinkDown, LinkUp
from repro.core.planner import PlannerConfig
from repro.core.snapshot_diff import SnapshotDiff
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import internet2_bgp

MAX_SCOPED_FRACTION = 0.5


def _measure(analyzer, forward, backward, table, label):
    baseline = SnapshotDiff(analyzer.snapshot.clone())
    base_seconds, reference = time_call(lambda: baseline.analyze(forward), repeat=1)
    dna_seconds, report = time_call(lambda: analyzer.analyze(forward), repeat=1)
    assert report.behavior_signature() == reference.behavior_signature()
    analyzer.analyze(backward)
    table.add(
        label,
        dna_ms=dna_seconds * 1e3,
        baseline_ms=base_seconds * 1e3,
        speedup=base_seconds / dna_seconds,
        prefixes_resolved=report.counters.get("bgp_prefixes_resolved", 0),
    )


def test_f6_wan_bgp_changes():
    scenario = internet2_bgp(customers_per_pop=2, prefixes_per_customer=3)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot)
    generator = ChangeGenerator(scenario, seed=600)
    total_prefixes = len(analyzer.state.bgp_solutions)

    table = Table(
        f"F6: Internet2 BGP changes ({total_prefixes} prefixes)",
        ["dna_ms", "baseline_ms", "speedup", "prefixes_resolved"],
    )

    flip = generator.dual_homed_pref_flip(100, 200)
    flip_back = generator.dual_homed_pref_flip(200, 100)
    _measure(analyzer, flip, flip_back, table, "local-pref flip")

    announce, withdraw = generator.random_prefix_flap()
    _measure(analyzer, announce, withdraw, table, "announce one prefix")

    # Customer uplink failure: takes the whole session (and its
    # prefixes) down.
    customer = "cust_seat0"
    _measure(
        analyzer,
        Change.of(LinkDown(customer, "SEAT"), label="customer uplink down"),
        Change.of(LinkUp(customer, "SEAT"), label="customer uplink up"),
        table,
        "customer uplink down",
    )

    down, up = generator.random_link_failure()
    _measure(analyzer, down, up, table, "backbone link failure")

    cost = generator.random_ospf_cost()
    cost_again = generator.random_ospf_cost()
    _measure(analyzer, cost, cost_again, table, "igp cost change")

    table.emit()


def test_f6_wan_batch_runs_the_bgp_stages():
    """Committing the k=8 WAN batch resolves BGP prefixes and rescans
    sessions: a refactor that silently stopped either stage would
    otherwise read as a speedup."""
    scenario = internet2_bgp()
    changes, _recovery = wan_k8_batch(scenario)
    analyzer = DifferentialNetworkAnalyzer(scenario.snapshot.clone())
    report = analyzer.analyze_batch(changes)
    assert report.counters["bgp_prefixes_resolved"] > 0
    assert report.counters["bgp_sessions_rescanned"] > 0


def test_f6_session_edit_scoped_rescan():
    """A single-session edit revalidates a fraction of the session table.

    The staged BGP pipeline restricts session discovery to the dirty
    (router, peer) pairs; ``scope_sessions=False`` is the pre-staging
    behaviour (every directed neighbor statement revalidated each
    pass).  Both analyzers pin ``full_scope_ratio`` above 1 so the
    batch planner can never short-circuit to full resimulation: on a
    scenario this small the default crossover fires even for
    one-session edits (a teardown dirties every prefix via the
    liveness diff — see EXPERIMENTS.md), which would make the mode,
    not the session stage, the thing under test.

    The acceptance gate is on the deterministic work counter, not on
    wall-clock: scoped must rescan at least one directed session but
    at most half of what the full rescan touches.  Timings are printed
    for the table only.
    """
    scenario = internet2_bgp(customers_per_pop=2, prefixes_per_customer=3)
    teardown, restore = ChangeGenerator(
        scenario, seed=601
    ).random_session_flap()

    scoped = DifferentialNetworkAnalyzer(
        scenario.snapshot.clone(),
        planner=PlannerConfig(full_scope_ratio=1.1),
    )
    full = DifferentialNetworkAnalyzer(
        scenario.snapshot.clone(),
        planner=PlannerConfig(full_scope_ratio=1.1, scope_sessions=False),
    )

    scoped_times: list[float] = []
    full_times: list[float] = []
    for _ in range(3):
        seconds, scoped_report = time_call(
            lambda: scoped.what_if(teardown), repeat=1
        )
        scoped_times.append(seconds)
        seconds, full_report = time_call(
            lambda: full.what_if(teardown), repeat=1
        )
        full_times.append(seconds)

    # Scoping must not change the answer.
    assert (
        scoped_report.behavior_signature()
        == full_report.behavior_signature()
    )

    scoped_rescanned = scoped_report.counters["bgp_sessions_rescanned"]
    full_rescanned = full_report.counters["bgp_sessions_rescanned"]
    table = Table(
        "F6: single-session teardown — scoped session discovery "
        "vs full rescan",
        ["rescanned", "prefixes_resolved", "median_ms"],
    )
    table.add(
        "full rescan (scope_sessions=False)",
        rescanned=full_rescanned,
        prefixes_resolved=full_report.counters["bgp_prefixes_resolved"],
        median_ms=median(full_times) * 1e3,
    )
    table.add(
        "scoped (dirty pairs only)",
        rescanned=scoped_rescanned,
        prefixes_resolved=scoped_report.counters["bgp_prefixes_resolved"],
        median_ms=median(scoped_times) * 1e3,
    )
    table.emit()

    assert scoped_rescanned > 0, "session stage never ran scoped"
    assert scoped_rescanned <= MAX_SCOPED_FRACTION * full_rescanned, (
        f"scoped rescan touched {scoped_rescanned} of "
        f"{full_rescanned} directed sessions; expected <= "
        f"{MAX_SCOPED_FRACTION:.0%}"
    )
