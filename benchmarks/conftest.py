"""Shared benchmark fixtures.

Scenario states are expensive to build (full simulation), so they are
session-cached.
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.workloads.scenarios import fat_tree_ospf


@pytest.fixture(scope="session")
def fat_tree6_analyzer() -> DifferentialNetworkAnalyzer:
    return DifferentialNetworkAnalyzer(fat_tree_ospf(6).snapshot)
