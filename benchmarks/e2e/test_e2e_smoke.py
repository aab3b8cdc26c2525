"""Tier-1 smoke of the benchmark: names, units, finiteness, correctness.

Runs every workload once at tiny N, traced (a traced run measures an
untraced loop too, so it yields both metric families), and checks the
result against ``BENCHMARK.json``.  No wall-clock assertion anywhere:
the numbers themselves are the benchmark's business, not tier-1's.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run as e2e

SPEC = e2e.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = 0.3  # seconds; every loop still sends at least one request


@pytest.fixture(scope="module", autouse=True)
def one_verify_sample():
    """Each verify sample costs a full simulation of the base; one (plus
    request 0) is enough to know the checker runs."""
    import workloads

    saved, workloads.SAMPLE_SIZE = workloads.SAMPLE_SIZE, 1
    yield
    workloads.SAMPLE_SIZE = saved


@pytest.fixture(scope="module", params=WORKLOADS)
def document(request):
    return e2e.run_workload(request.param, seed=11, seconds=TINY, trace=True, setups=1)


def test_every_named_metric_is_emitted_and_nothing_else(document):
    for family in ("end_to_end", "per_layer"):
        named = {entry["name"]: entry["unit"] for entry in SPEC[family]}
        emitted = document[family]
        assert set(emitted) == set(named)
        for name, (value, unit) in emitted.items():
            assert NAME.match(name), name
            assert unit == named[name], name
            assert isinstance(value, float) and math.isfinite(value), name
    # End-to-end metrics gate later PRs by ratio: none may be 0.
    assert all(value > 0 for value, _ in document["end_to_end"].values())


def test_no_request_failed(document):
    assert document["attempted"] >= 1
    assert document["failed"] == 0, document["errors"]


def test_traced_run_writes_a_chrome_trace(document):
    with open(document["trace_file"]) as handle:
        trace = json.load(handle)
    requests = [e for e in trace["traceEvents"] if e["name"] == "bench.request"]
    assert requests and all(e["ph"] == "X" for e in trace["traceEvents"])
    assert trace["otherData"]["workload"] == document["workload"]


def test_spec_names_are_well_formed():
    names = [
        entry["name"]
        for family in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[family]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(SPEC["per_layer"]) <= 128


def test_verify_phase_catches_a_corrupted_response():
    document = e2e.run_workload(
        "svc_mixed_2c", seed=11, seconds=TINY, trace=False, setups=1, inject_fault=True
    )
    assert document["failed"] >= 1


def run_cli(directory: str, *extra: str) -> subprocess.CompletedProcess:
    command = [
        sys.executable, os.path.join(directory, "benchmarks", "e2e", "run.py"),
        "--workload", "wan_policy_preview", "--seed", "11",
        "--seconds", str(TINY), "--trace", "0", *extra,
    ]
    return subprocess.run(command, capture_output=True, text=True, timeout=120)


def test_command_exits_nonzero_on_a_corrupted_report():
    bad = run_cli(e2e.ROOT, "--inject-fault")
    assert bad.returncode == 1, bad.stdout + bad.stderr
    assert json.loads(bad.stdout.splitlines()[-1])["correct"] is False


def test_command_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(e2e.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        e2e.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    bare = run_cli(str(tmp_path))
    assert bare.returncode == 2
    assert bare.stdout == ""
