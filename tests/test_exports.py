"""Top-level lazy exports and package hygiene."""

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__

    def test_core_symbols_resolve(self):
        for name in (
            "Network",
            "ChangeSet",
            "SchemaError",
            "Violation",
            "register_invariant",
            "make_invariant",
            "Snapshot",
            "DifferentialNetworkAnalyzer",
            "SnapshotDiff",
            "LinkDown",
            "ShutdownInterface",
            "fat_tree",
            "internet2",
            "Prefix",
            "IPv4Address",
            "parse_change",
            "parse_change_batch",
            "simulate",
            "EquivalenceOracle",
            "DirtySet",
            "register_change_handler",
            "registered_change_handlers",
            "compose_reports",
        ):
            assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist  # noqa: B018

    def test_dir_lists_exports(self):
        listing = dir(repro)
        assert "DifferentialNetworkAnalyzer" in listing
        assert "__version__" in listing

    def test_export_map_is_accurate(self):
        # Every advertised export must resolve (guards against typos
        # in the lazy table).
        for name in repro._EXPORTS:
            assert getattr(repro, name) is not None

    def test_end_to_end_via_top_level_api(self):
        snapshot_cls = repro.Snapshot
        analyzer_cls = repro.DifferentialNetworkAnalyzer
        from repro.workloads.scenarios import ring_ospf

        scenario = ring_ospf(4)
        assert isinstance(scenario.snapshot, snapshot_cls)
        analyzer = analyzer_cls(scenario.snapshot)
        report = analyzer.analyze(
            repro.Change.of(repro.LinkDown("r0", "r1"), label="x")
        )
        assert not report.is_empty()
