"""Campaign engine: enumeration, execution backends, aggregation.

The load-bearing property is backend equivalence: the multiprocessing
backend must produce per-scenario reports identical to the serial one
(same signatures, same order) because both evaluate forks of the same
converged base state.
"""

from __future__ import annotations

import pickle

import pytest

from repro.campaign import (
    CampaignRunner,
    ScenarioOutcome,
    WhatIfScenario,
    acl_block_sweep,
    all_single_link_failures,
    bgp_policy_sweep,
    sampled_k_link_failures,
)
from repro.core.change import Change, LinkDown
from repro.core.invariants import LoopFreedom, ReachabilityInvariant
from repro.workloads.scenarios import ring_ospf


class TestScenarioEnumeration:
    def test_all_single_link_failures_cover_every_link(self, ring8_scenario):
        batch = all_single_link_failures(ring8_scenario)
        assert len(batch) == ring8_scenario.topology.num_links()
        assert len({s.name for s in batch}) == len(batch)
        assert all(s.kind == "link-failure" for s in batch)

    def test_customer_links_excluded_by_default(self, internet2_scenario):
        with_customers = all_single_link_failures(
            internet2_scenario, include_customer_links=True
        )
        without = all_single_link_failures(internet2_scenario)
        assert len(with_customers) > len(without)

    def test_sampled_k_link_failures_deterministic_and_distinct(
        self, ring8_scenario
    ):
        first = sampled_k_link_failures(ring8_scenario, k=2, samples=8, seed=4)
        second = sampled_k_link_failures(ring8_scenario, k=2, samples=8, seed=4)
        assert [s.name for s in first] == [s.name for s in second]
        assert len({s.name for s in first}) == len(first)
        other_seed = sampled_k_link_failures(
            ring8_scenario, k=2, samples=8, seed=5
        )
        assert [s.name for s in first] != [s.name for s in other_seed]
        assert all(len(s.change.edits) == 2 for s in first)

    def test_acl_block_sweep_shape(self, ring8_scenario):
        batch = acl_block_sweep(ring8_scenario)
        subnets = ring8_scenario.fabric.all_host_subnets()
        routers = ring8_scenario.topology.num_routers()
        assert len(batch) == routers * len(subnets)
        capped = acl_block_sweep(ring8_scenario, max_scenarios=3)
        assert len(capped) == 3

    def test_bgp_policy_sweep_skips_current_pref(self, internet2_scenario):
        batch = bgp_policy_sweep(internet2_scenario, local_prefs=(100, 300))
        assert batch
        # Clauses already at pref 100 only get the 300 candidate.
        for scenario in batch:
            assert scenario.kind == "bgp-policy"
            assert "->" in scenario.name

    def test_scenarios_pickle(self, ring8_scenario):
        batch = all_single_link_failures(ring8_scenario)
        assert pickle.loads(pickle.dumps(batch))[0].name == batch[0].name


class TestCampaignRunner:
    @pytest.fixture(scope="class")
    def ring6(self):
        return ring_ospf(6)

    def test_serial_outcomes(self, ring6):
        batch = all_single_link_failures(ring6)
        runner = CampaignRunner(ring6.snapshot.clone(), label="ring6")
        report = runner.run(batch, jobs=1)
        assert len(report) == len(batch)
        assert [o.name for o in report.outcomes] == [s.name for s in batch]
        assert all(o.ok for o in report.outcomes)
        # A ring survives any single link failure by rerouting, so
        # every scenario must churn FIBs.
        assert all(o.fib_changes > 0 for o in report.outcomes)

    def test_parallel_matches_serial(self, ring6):
        batch = all_single_link_failures(ring6)
        runner = CampaignRunner(ring6.snapshot.clone(), label="ring6")
        serial = runner.run(batch, jobs=1)
        parallel = runner.run(batch, jobs=2)
        assert parallel.backend == "multiprocessing"
        assert [o.name for o in parallel.outcomes] == [
            o.name for o in serial.outcomes
        ]
        assert parallel.signatures() == serial.signatures()

    def test_invalid_jobs_falls_back_to_serial(self, ring6):
        """jobs=0 or negative is a config mistake, not a crash."""
        batch = all_single_link_failures(ring6)
        runner = CampaignRunner(ring6.snapshot.clone(), label="ring6")
        reference = runner.run(batch, jobs=1)
        for bad_jobs in (0, -3):
            with pytest.warns(RuntimeWarning, match="falling back"):
                report = runner.run(batch, jobs=bad_jobs)
            assert report.backend == "serial"
            assert report.jobs == 1
            assert report.signatures() == reference.signatures()

    def test_runner_reusable_after_campaign(self, ring6):
        """Campaigns must not advance the base state."""
        batch = all_single_link_failures(ring6)
        runner = CampaignRunner(ring6.snapshot.clone())
        first = runner.run(batch)
        second = runner.run(batch)
        assert first.signatures() == second.signatures()

    def test_base_pickled_once_across_parallel_runs(self, ring6):
        """The pickled base payload is hoisted: scenarios (and runs)
        share one converged base, so the runner pickles it exactly
        once until the base actually changes."""
        batch = all_single_link_failures(ring6)[:2]
        runner = CampaignRunner(ring6.snapshot.clone(), label="ring6")
        assert runner.pickle_count == 0
        first = runner.run(batch, jobs=2)
        second = runner.run(batch, jobs=2)
        assert runner.pickle_count == 1
        assert second.signatures() == first.signatures()
        # Serial runs never pickle at all.
        runner.run(batch, jobs=1)
        assert runner.pickle_count == 1

    def test_pickle_cache_invalidated_by_committed_change(self, ring6):
        batch = all_single_link_failures(ring6)[:2]
        runner = CampaignRunner(ring6.snapshot.clone(), label="ring6")
        runner.run(batch, jobs=2)
        assert runner.pickle_count == 1
        # Committing on the shared base moves `generation`; the stale
        # payload must not be reused.
        runner.analyzer.analyze(batch[0].change)
        rerun = runner.run([batch[1]] * 2, jobs=2)
        assert runner.pickle_count == 2
        assert len(rerun) == 2
        # What-if evaluation inside campaigns rolls back and must NOT
        # invalidate the cache.
        runner.run([batch[1]] * 2, jobs=2)
        assert runner.pickle_count == 2

    def test_k_link_scenarios_evaluate_batched(self, ring6):
        """k-link scenarios carry per-link changes and the runner
        batches them — outcomes equal the combined-change evaluation."""
        from repro.core.analyzer import DifferentialNetworkAnalyzer

        batch = sampled_k_link_failures(ring6, k=2, samples=4, seed=9)
        assert all(len(s.changes) == 2 for s in batch)
        assert all(len(s.batch()) == 2 for s in batch)
        runner = CampaignRunner(ring6.snapshot.clone())
        report = runner.run(batch)
        analyzer = DifferentialNetworkAnalyzer(ring6.snapshot.clone())
        for scenario, outcome in zip(batch, report.outcomes):
            combined = analyzer.what_if(scenario.change)
            assert outcome.signature == combined.behavior_signature()

    def test_invariant_violations_flagged_and_ranked(self, ring6):
        # Failing both links of r0 isolates it: reachability to r0's
        # host subnet must be reported violated, and the partition must
        # outrank single-link reroutes.
        subnet = ring6.fabric.host_subnets["r0"][0]
        invariants = [
            LoopFreedom(),
            ReachabilityInvariant(source="r3", owner="r0", prefix=subnet),
        ]
        batch = all_single_link_failures(ring6)
        batch.append(
            WhatIfScenario(
                name="isolate r0",
                change=Change.of(
                    LinkDown("r0", "r1"),
                    LinkDown("r0", "r5"),
                    label="isolate r0",
                ),
                kind="partition",
            )
        )
        runner = CampaignRunner(ring6.snapshot.clone(), invariants=invariants)
        report = runner.run(batch)
        violating = report.violating()
        assert [o.name for o in violating] == ["isolate r0"]
        assert violating[0].num_violations() >= 1
        assert report.ranked()[0].name == "isolate r0"

    def test_failed_scenarios_do_not_poison_the_batch(self, ring6):
        from repro.core.change import ShutdownInterface

        batch = [
            # ChangeError path: no link between these routers.
            WhatIfScenario(
                name="bogus",
                change=Change.of(LinkDown("r0", "nope"), label="bogus"),
            ),
            # TopologyError path: the router itself does not exist.
            WhatIfScenario(
                name="ghost",
                change=Change.of(
                    ShutdownInterface("no_such", "eth0"), label="ghost"
                ),
            ),
            *all_single_link_failures(ring6),
        ]
        runner = CampaignRunner(ring6.snapshot.clone())
        report = runner.run(batch)
        assert {o.name for o in report.failed()} == {"bogus", "ghost"}
        good = [o for o in report.outcomes if o.ok]
        assert len(good) == len(batch) - 2
        # Bad scenarios must not abort the worker pool either.
        parallel = runner.run(batch, jobs=2)
        assert {o.name for o in parallel.failed()} == {"bogus", "ghost"}
        # The failed applies were rolled back: rerunning the good ones
        # gives identical behaviour.
        again = runner.run(batch[2:])
        assert again.signatures() == [o.signature for o in good]

    def test_monitored_prefixes_scope_blast_radius(self, ring6):
        """With host subnets monitored, a tolerant ring's single-link
        failures rank as pure reroutes: the failed link's own /31
        vanishing is not an outage."""
        batch = all_single_link_failures(ring6)
        monitored = ring6.fabric.all_host_subnets()
        runner = CampaignRunner(ring6.snapshot.clone(), monitored=monitored)
        report = runner.run(batch)
        for outcome in report.outcomes:
            assert outcome.monitored_pairs_lost == 0
            assert outcome.blast_radius() == 0
            assert outcome.pairs_lost > 0  # the /31 churn is still visible
            assert outcome.fib_changes > 0
        assert len(report.harmless()) == 0  # reroutes are not "harmless"
        assert "reroute-only: 6" in report.summary()
        # Parallel backend computes the same monitored counts.
        parallel = runner.run(batch, jobs=2)
        assert [
            (o.monitored_pairs_lost, o.monitored_pairs_gained)
            for o in parallel.outcomes
        ] == [
            (o.monitored_pairs_lost, o.monitored_pairs_gained)
            for o in report.outcomes
        ]

    def test_outcome_blast_radius_and_summary(self, ring6):
        batch = all_single_link_failures(ring6)[:3]
        runner = CampaignRunner(ring6.snapshot.clone(), label="ring6")
        report = runner.run(batch)
        outcome = report.outcomes[0]
        assert outcome.blast_radius() == (
            outcome.pairs_lost + outcome.pairs_gained
        )
        text = report.summary(top=2)
        assert "3 scenarios" in text
        assert "serial" in text

    def test_from_analyzer_shares_warm_state(self, ring6):
        from repro.core.analyzer import DifferentialNetworkAnalyzer

        analyzer = DifferentialNetworkAnalyzer(ring6.snapshot.clone())
        runner = CampaignRunner.from_analyzer(analyzer, label="warm")
        assert runner.analyzer is analyzer
        report = runner.run(all_single_link_failures(ring6)[:2])
        assert all(o.ok for o in report.outcomes)


class TestCampaignCli:
    def test_campaign_command_runs(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "links",
                "--scenario",
                "ring",
                "--size",
                "5",
                "--jobs",
                "2",
                "--top",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "5 links scenarios" in out
        assert "multiprocessing" in out

    def test_demo_seed_reproducible(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.snapshot import Snapshot, serialize_topology

        for directory in ("a", "b"):
            code = main(
                [
                    "demo",
                    str(tmp_path / directory),
                    "--topology",
                    "random",
                    "--size",
                    "8",
                    "--seed",
                    "7",
                ]
            )
            assert code == 0
        capsys.readouterr()
        first = Snapshot.load(str(tmp_path / "a"))
        second = Snapshot.load(str(tmp_path / "b"))
        assert serialize_topology(first.topology) == serialize_topology(
            second.topology
        )


class TestCampaignProvenanceMerge:
    """Serial vs multiprocessing equality of the merged event log.

    Per-scenario event-log slices travel back with the outcomes and
    the parent merges them in enumeration order, so ``jobs=N`` must be
    invisible in the provenance artifacts too — byte-identical JSONL.
    """

    @pytest.fixture(scope="class")
    def ring6(self):
        return ring_ospf(6)

    def test_event_log_merge_serial_equals_parallel(self, ring6):
        batch = all_single_link_failures(ring6)
        runner = CampaignRunner(
            ring6.snapshot.clone(), label="ring6", provenance=True
        )
        serial = runner.run(batch, jobs=1)
        parallel = runner.run(batch, jobs=2)
        assert len(serial.events) > 0
        assert serial.events.to_jsonl() == parallel.events.to_jsonl()
        assert [outcome.causes for outcome in serial.outcomes] == [
            outcome.causes for outcome in parallel.outcomes
        ]
        serial_doc = serial.to_dict()
        parallel_doc = parallel.to_dict()
        for document in (serial_doc, parallel_doc):
            document.pop("backend")
            document.pop("jobs")
        assert serial_doc == parallel_doc

    def test_invariant_causes_survive_the_pool(self, ring6):
        subnet = ring6.fabric.host_subnets["r0"][0]
        invariants = [
            LoopFreedom(),
            ReachabilityInvariant(source="r3", owner="r0", prefix=subnet),
        ]
        batch = all_single_link_failures(ring6)
        batch.append(
            WhatIfScenario(
                name="isolate r0",
                change=Change.of(
                    LinkDown("r0", "r1"),
                    LinkDown("r0", "r5"),
                    label="isolate r0",
                ),
                kind="partition",
            )
        )
        runner = CampaignRunner(
            ring6.snapshot.clone(),
            invariants=invariants,
            provenance=True,
        )
        serial = runner.run(batch, jobs=1)
        parallel = runner.run(batch, jobs=2)
        attributed = 0
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.causes == right.causes
            if left.violations:
                assert left.causes is not None
                assert left.causes["violations"]
                for violation in left.causes["violations"]:
                    assert violation["edits"]
                    attributed += 1
        assert attributed >= 1  # the partition scenario violates
