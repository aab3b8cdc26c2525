"""Property-based end-to-end oracle.

Hypothesis drives the whole stack: random change sequences (drawn by
kind and seed) over small scenarios, every step checked for exact
agreement between the incremental analyzer and the snapshot-diff
baseline.  Shrinking then minimizes any counterexample to the shortest
disagreeing change sequence — the most valuable debugging artifact
this repository has.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import Change
from repro.core.oracle import EquivalenceOracle
from repro.core.snapshot_diff import SnapshotDiff
from repro.workloads.changes import ChangeGenerator
from repro.workloads.scenarios import Scenario, internet2_bgp, line_static, ring_ospf

IGP_KINDS = ("link", "iface", "static", "cost")

_sequences = st.lists(
    st.sampled_from(IGP_KINDS), min_size=1, max_size=4
)


def _changes(generator: ChangeGenerator, kind: str) -> list[Change]:
    """The changes one drawn kind stands for, in the order they apply."""
    if kind == "link":
        return list(generator.random_link_failure())
    if kind == "iface":
        return list(generator.random_interface_flap())
    if kind == "static":
        return list(generator.random_static_route())
    if kind == "cost":
        return [generator.random_ospf_cost()]
    if kind == "session":
        return list(generator.random_session_flap())
    if kind == "prefix":
        return list(generator.random_prefix_flap())
    return [generator.dual_homed_pref_flip()]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kinds=_sequences, seed=st.integers(min_value=0, max_value=2**16))
def test_ospf_ring_streams_agree(kinds, seed):
    scenario = ring_ospf(5)
    oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
    generator = ChangeGenerator(scenario, seed=seed)
    for kind in kinds:
        for change in _changes(generator, kind):
            oracle.step(change)
    assert oracle.stats.pass_rate == 1.0


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kinds=st.lists(st.sampled_from(("link", "iface", "static")), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_static_chain_streams_agree(kinds, seed):
    scenario = line_static(4)
    oracle = EquivalenceOracle(DifferentialNetworkAnalyzer(scenario.snapshot))
    generator = ChangeGenerator(scenario, seed=seed)
    for kind in kinds:
        for change in _changes(generator, kind):
            oracle.step(change)
    assert oracle.stats.pass_rate == 1.0


# BGP kinds next to the IGP ones whose drift BGP must follow.
BGP_KINDS = ("link", "cost", "session", "prefix", "pref")


@pytest.fixture(scope="module")
def small_wan() -> Scenario:
    return internet2_bgp(customers_per_pop=1, prefixes_per_customer=1)


# No shrink phase: a failing draw took minutes to shrink, and with
# ``derandomize`` the same draw already fails on every run.
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kinds=st.lists(st.sampled_from(BGP_KINDS), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_internet2_bgp_streams_agree(small_wan, kinds, seed):
    """Every step agrees with SnapshotDiff twice: previewed through
    ``what_if`` (fork and rollback), then committed by the oracle."""
    analyzer = DifferentialNetworkAnalyzer(small_wan.snapshot.clone())
    oracle = EquivalenceOracle(analyzer)
    generator = ChangeGenerator(small_wan, seed=seed)
    for kind in kinds:
        for change in _changes(generator, kind):
            expected = SnapshotDiff(analyzer.snapshot.clone()).analyze(change)
            previewed = analyzer.what_if(change)
            assert previewed.behavior_signature() == expected.behavior_signature()
            oracle.step(change)
    assert oracle.stats.pass_rate == 1.0
