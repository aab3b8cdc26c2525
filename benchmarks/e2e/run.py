"""The repo's benchmark: one command, six workloads, checked outputs.

Two ways in, both documented in ``README.md``:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``
    names).  Prints human-readable lines, then, as the last line of
    standard output, one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the end-to-end metrics with
    ``--trace 0``, the per-layer metrics with ``--trace 1``.

``run.py [--workload W]... [--seed S] [--traced] [--repeat-check]``
    The suite: each named workload (default all) in fresh
    subprocesses, three runs each, median and quartiles per metric.
    ``--repeat-check`` measures two sets back to back and fails when
    any end-to-end median moved by more than its bound.

Exits non-zero when any request failed or any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUPS = 5  # set-ups per run; setup_s is their median
TRACED_SHARE = 0.35  # of --seconds, for each of the two loops of a traced run
REPEATS = 3  # suite: runs per workload, each in a fresh process


def load_spec() -> dict[str, Any]:
    with open(SPEC) as handle:
        return json.load(handle)


def git_sha() -> str:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stderr=subprocess.DEVNULL, text=True
        ).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = SETUPS,
    inject_fault: bool = False,
) -> dict[str, Any]:
    """One run: set up, warm up, closed loop, verify.  Returns the
    result document; ``per_layer`` is present only when ``trace``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.obs import NULL_TRACER, Tracer

    import layers
    from measure import Measurement, closed_loop, median, percentile
    from workloads import WORKLOADS

    def measure(workload: Any, span: float) -> Measurement:
        closed_loop(workload, float("inf"), limit=workload.warmup)
        outcome = closed_loop(workload, span, first=workload.warmup, windows=workload.slices)
        if inject_fault:
            workload.inject_fault()
        workload.verify(outcome)
        return outcome

    workload = WORKLOADS[name](seed, NULL_TRACER)
    setup_times = []
    try:
        for attempt in range(setups):
            if attempt:
                workload.close()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        outcome = measure(workload, seconds * TRACED_SHARE if trace else seconds)
    finally:
        workload.close()

    spec = load_spec()
    document: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "warmup_requests": workload.warmup * workload.clients,
        "setups": setups,
        "tail_percentile": workload.tail,
        "requests_per_window": [len(w.latencies) for w in outcome.windows],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
    }
    slices = outcome.windows
    if slices:
        verdicts = [len(w.latencies) * workload.verdicts for w in slices]
        values = {
            "setup_s": median(setup_times),
            "request_p50_ms": 1e3 * min(median(w.latencies) for w in slices),
            "request_tail_ms": 1e3
            * min(percentile(w.latencies, workload.tail) for w in slices),
            "verdicts_per_s": max(n / w.wall for n, w in zip(verdicts, slices)),
            "cpu_s_per_verdict": min(w.cpu / n for n, w in zip(verdicts, slices)),
            "peak_rss_mb": outcome.peak_rss,
        }
        document["end_to_end"] = {
            entry["name"]: (values[entry["name"]], entry["unit"])
            for entry in spec["end_to_end"]
        }
    if trace and slices:
        traced = WORKLOADS[name](seed, Tracer())
        try:
            traced.setup()
            before = traced.work_counters()
            traced_outcome = measure(traced, seconds * TRACED_SHARE)
            result, counts = layers.collect(
                traced,
                traced_outcome,
                before,
                spec["per_layer"],
                untraced_p50=median(outcome.latencies),
                budget=seconds * (1 - 2 * TRACED_SHARE),
            )
            document["per_layer"] = result.result()
            document["trace_file"] = layers.write_trace(traced, result, counts)
        finally:
            traced.close()
        document["attempted"] += traced_outcome.attempted
        document["failed"] += traced_outcome.failed
        document["errors"] += traced_outcome.errors
    return document


def contract_result(document: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The one JSON object the driver reads."""
    family = document.get("per_layer" if trace else "end_to_end", {})
    return {
        "correct": document["failed"] == 0 and bool(family),
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in family.items()
        },
    }


def single_run(args: argparse.Namespace) -> int:
    document = run_workload(
        args.workload[0],
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        inject_fault=args.inject_fault,
    )
    for key, value in document.items():
        if key not in ("end_to_end", "per_layer", "errors"):
            print(f"# {key}: {value}")
    for family in ("end_to_end", "per_layer"):
        for name, (value, unit) in document.get(family, {}).items():
            print(f"{name:40s} {value:14.6g} {unit}")
    for message in document["errors"]:
        print(f"FAILED {message}")
    result = contract_result(document, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the suite ---------------------------------------------------------------


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One run in a fresh process; the parsed last line of its output."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
        sys.stdout.write(done.stdout)
    return result


def measure_set(
    names: list[str], seed: int, seconds: float, trace: int
) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per repeat.  Raises SystemExit
    on the first incorrect run."""
    values: dict[str, dict[str, list[float]]] = {}
    for name in names:
        per_metric: dict[str, list[float]] = {}
        for repeat in range(REPEATS):
            result = child_run(name, seed, seconds, trace)
            if not result["correct"]:
                raise SystemExit(
                    f"{name}: run {repeat} incorrect "
                    f"({result['failed']} of {result['attempted']} failed)"
                )
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
        values[name] = per_metric
    return values


def summarize(samples: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    first, middle, third = statistics.quantiles(samples, n=4)
    return middle, first, third


def print_set(values: dict[str, dict[str, list[float]]], units: dict[str, str]) -> None:
    for name, per_metric in values.items():
        print(f"== {name}")
        for metric, samples in per_metric.items():
            middle, first, third = summarize(samples)
            print(
                f"  {metric:40s} {middle:14.6g} {units.get(metric, ''):6s} "
                f"q1 {first:.6g} q3 {third:.6g} n {len(samples)}"
            )


def suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    family = "per_layer" if args.traced else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[family]}
    print(
        f"# seed {args.seed} nproc {os.cpu_count()} python "
        f"{platform.python_version()} git {git_sha()} seconds {seconds} "
        f"repeats {REPEATS}"
    )
    first = measure_set(names, args.seed, seconds, int(args.traced))
    print_set(first, units)
    if not args.repeat_check:
        return 0
    second = measure_set(names, args.seed, seconds, 0)
    print_set(second, units)
    offending = []
    for entry in spec["end_to_end"]:
        for name in names:
            before = statistics.median(first[name][entry["name"]])
            after = statistics.median(second[name][entry["name"]])
            moved = (after - before) / before
            if abs(moved) > entry["bound"]:
                offending.append(
                    f"{name} x {entry['name']}: {before:.6g} -> {after:.6g} "
                    f"({moved:+.1%}, bound {entry['bound']:.0%})"
                )
    for row in offending:
        print(f"REPEAT-CHECK FAILED {row}")
    return 1 if offending else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="single run of one workload in this process; 1 = traced",
    )
    parser.add_argument("--traced", action="store_true", help="suite: per-layer runs")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="test hook: corrupt one retained answer before verifying",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    known = [entry["name"] for entry in load_spec()["workloads"]]
    for name in args.workload:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    if args.trace is not None:
        if len(args.workload) != 1 or args.seconds is None:
            parser.error("--trace needs exactly one --workload and --seconds")
        return single_run(args)
    if args.repeat_check and args.traced:
        parser.error("--repeat-check compares end-to-end runs; drop --traced")
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
