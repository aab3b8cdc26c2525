"""Command-line interface: ``python -m repro <command>``.

Operator-facing workflow over on-disk snapshots, built entirely on the
:class:`repro.api.Network` session facade (``<command> --help`` lists
every flag):

- ``show`` — snapshot summary and converged state stats.
- ``analyze`` — differential review of a change script (format in
  :mod:`repro.core.change_text`; ``---`` lines split it into changes
  analyzed **batched**, in one recompute pass).  ``--commit`` writes
  the changed snapshot back, ``--baseline`` checks agreement with the
  snapshot-diff baseline; ``--profile``/``--provenance`` and the
  ``--*-out FILE`` flags save span trees, provenance, event logs and
  work metrics.
- ``explain`` — causality queries (``--edit N``, ``--router/--prefix``,
  ``--dst IP``, ``--invariant NAME``) over a fork-backed,
  provenance-enabled preview of a change script, or over a saved
  document (``--from FILE``).
- ``trace`` — one packet trace.
- ``campaign <kind>`` — batch what-if analysis over a built-in
  scenario (``links``, ``k-links``, ``acl``, ``bgp``), serial or with
  ``--jobs N`` worker processes, ranked by blast radius.
- ``demo`` — write a small example snapshot + change script.
- ``serve`` — the always-on what-if daemon (:mod:`repro.service`).
- ``client`` — one request against a running daemon.
- ``lint`` — the contract-aware static analyzer (:mod:`repro.lint`).

``preview``, ``explain`` and ``campaign`` are the rows of the
:data:`repro.ops.OPS` table.  ``client`` sends a row's params from the
flags of the same names, and ``explain`` runs the explain row in
process, so ``repro explain ... --json`` prints exactly what ``repro
client ... explain --json`` does for the same script and label.

``--json`` output is one uniform envelope across analyze/trace/
campaign/explain/client/lint: ``{"kind", "schema_version",
"result"}`` where ``result`` is the versioned document from
:mod:`repro.core.serialize`.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Any

from repro import ops
from repro.api import Network, make_invariant, registered_invariants
from repro.api.errors import ReproError, SchemaError
from repro.api.network import TOPOLOGY_KINDS
from repro.core.serialize import envelope
from repro.obs.provenance import ProvenanceRecord
from repro.service import protocol


def _no_arg_invariants() -> list[str]:
    """Registered invariant names the CLI can instantiate (no required
    constructor arguments); parameterized ones (reachability,
    isolation) need the Python API."""
    names = []
    for name, cls in sorted(registered_invariants().items()):
        parameters = inspect.signature(cls).parameters.values()
        if all(
            p.default is not inspect.Parameter.empty
            or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            for p in parameters
        ):
            names.append(name)
    return names


def _load(directory: str, trace: bool = False) -> Network:
    try:
        return Network.load(directory, trace=trace)
    except FileNotFoundError as error:
        raise SystemExit(f"error: cannot load snapshot: {error}")


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")


def _op_params(
    name: str, args: argparse.Namespace, script: str, label: str
) -> dict[str, Any]:
    """Wire params of table op ``name``, read from the same-named flags.

    The whole script file is one campaign scenario.
    """
    flags = {
        **vars(args),
        "script": script,
        "label": label,
        "scenarios": [{"name": label, "script": script}],
    }
    return {field: flags[field] for field in ops.OPS[name].fields}


def _emit_json(document: dict[str, Any]) -> None:
    """Print one output envelope (the uniform ``--json`` shape)."""
    print(json.dumps(envelope(document), sort_keys=True, indent=2))


def _write_json(path: str, document: dict[str, Any]) -> None:
    """Deterministic on-disk JSON (sorted keys, trailing newline)."""
    with open(path, "w") as handle:
        handle.write(json.dumps(document, sort_keys=True, indent=2))
        handle.write("\n")


def cmd_show(args: argparse.Namespace) -> int:
    with _load(args.snapshot) as network:
        print(network.summary())
        state = network.state
        stats = state.dataplane.stats()
        print(f"converged: {stats['fib_entries']} FIB entries, "
              f"{stats['atoms']} atoms, "
              f"{len(state.bgp_solutions)} BGP prefixes")
        for router in sorted(state.ribs)[: args.limit]:
            rib = state.ribs[router]
            print(f"  {router}: {len(rib)} routes")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.change import Change
    from repro.core.change_text import parse_change_batch
    from repro.core.snapshot_diff import SnapshotDiff

    profiling = args.profile or args.profile_out or args.chrome_out
    # --profile without --profile-out streams the span-tree JSON to
    # stdout, so human chatter is suppressed like --json does.
    quiet = args.json or args.profile
    with _load(args.snapshot, trace=profiling) as network:
        with open(args.change) as handle:
            # `---` separators split the script into multiple changes;
            # the whole batch converges in one recompute pass either way.
            changes = parse_change_batch(handle.read(), label=args.change)
        if not quiet:
            for change in changes:
                print(change.describe())

        if args.baseline:
            baseline = SnapshotDiff(network.snapshot.clone())
            combined = Change(
                edits=[edit for change in changes for edit in change.edits],
                label=args.change,
            )
            reference = baseline.analyze(combined)
        wants_provenance = bool(
            args.provenance or args.provenance_out or args.events_out
        )
        report = network.apply(
            changes, label=args.change, provenance=wants_provenance
        )
        if not quiet and len(changes) > 1:
            print(
                f"\nbatched: {report.counters['edits_batched']} edits "
                f"across {len(changes)} changes in one recompute pass"
            )
        if args.json:
            _emit_json(report.to_dict())
        elif not args.profile:
            print()
            print(report.summary())
        if args.provenance_out:
            assert report.provenance is not None
            _write_json(
                args.provenance_out,
                report.provenance.to_dict(report.reach_segments),
            )
        if args.events_out:
            with open(args.events_out, "w") as handle:
                handle.write(network.events.to_jsonl())
                handle.write("\n")
        if args.metrics_out:
            _write_json(args.metrics_out, network.metrics.to_dict())
        if profiling:
            profile_document = network.profile()
            if args.profile_out:
                _write_json(args.profile_out, profile_document)
            if args.chrome_out:
                _write_json(args.chrome_out, network.tracer.to_chrome_trace())
            if args.profile:
                # Both --json and --profile emit their documents: the
                # delta report first, then the span tree (sequential
                # JSON values on stdout — any streaming parser reads
                # them back).
                _emit_json(profile_document)
        if args.baseline:
            agree = (
                report.behavior_signature() == reference.behavior_signature()
            )
            if not quiet:
                print(f"\nbaseline agrees: {agree}")
            if not agree:
                return 1
        if args.commit:
            network.save(args.snapshot)
            if not quiet:
                print(f"\ncommitted to {args.snapshot}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    with _load(args.snapshot) as network:
        trace = network.trace(
            args.source,
            args.dst,
            src=args.src,
            proto=args.proto,
            dport=args.dport,
        )
    if args.json:
        _emit_json(trace.to_dict())
    else:
        print(trace.render())
    return 0 if trace.is_delivered() else 2


def cmd_campaign(args: argparse.Namespace) -> int:
    network = Network.generate(
        args.scenario, size=args.size, seed=args.seed, edges=args.edges
    )
    scenario = network.scenario
    assert scenario is not None
    with network:
        return _run_campaign(args, network, scenario)


def _run_campaign(args: argparse.Namespace, network: Network, scenario) -> int:
    from repro.campaign import (
        acl_block_sweep,
        all_single_link_failures,
        bgp_policy_sweep,
        sampled_k_link_failures,
    )

    if args.kind == "links":
        batch = all_single_link_failures(scenario)
    elif args.kind == "k-links":
        batch = sampled_k_link_failures(
            scenario, k=args.k, samples=args.samples, seed=args.seed
        )
    elif args.kind == "acl":
        batch = acl_block_sweep(scenario, max_scenarios=args.samples)
    elif args.kind == "bgp":
        batch = bgp_policy_sweep(scenario)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"error: unknown campaign kind {args.kind!r}")
    if not batch:
        print("no scenarios to evaluate")
        return 0

    host_subnets = scenario.fabric.all_host_subnets()
    # Default suite; --invariant overrides with registry names.
    # blackhole-freedom is scoped to host subnets either way (the
    # failed link's own /31 always blackholes and is not an outage).
    names = args.invariant or ["loop-freedom", "blackhole-freedom"]
    invariants = []
    for name in names:
        try:
            if name == "blackhole-freedom":
                invariants.append(make_invariant(name, monitored=host_subnets))
            else:
                invariants.append(make_invariant(name))
        except (TypeError, ValueError) as error:
            raise SystemExit(f"error: {error}")
    if not args.json:
        print(
            f"campaign: {len(batch)} {args.kind} scenarios on "
            f"{scenario.name} ({scenario.topology.num_routers()} routers), "
            f"jobs={args.jobs}"
        )
    report = network.campaign(
        batch,
        jobs=args.jobs,
        invariants=invariants,
        label=scenario.name,
        # Rank by host-visible impact: a failed link's own /31
        # vanishing is a reroute, not an outage.
        monitored=host_subnets,
        provenance=bool(args.provenance or args.events_out),
        with_spans=bool(args.chrome_out),
    )
    if args.metrics_out:
        _write_json(args.metrics_out, report.metrics.to_dict())
    if args.chrome_out:
        _write_json(args.chrome_out, report.chrome_trace())
    if args.events_out:
        with open(args.events_out, "w") as handle:
            handle.write(report.events.to_jsonl())
            handle.write("\n")
    if args.json:
        _emit_json(report.to_dict())
    else:
        print()
        print(report.summary(top=args.top))
    return 1 if report.failed() else 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.api.explain import explain_answer
    from repro.core.serialize import document

    try:
        if args.from_file:
            if args.snapshot or args.change:
                raise SystemExit(
                    "error: --from FILE replaces the snapshot/change arguments"
                )
            answer, lines = explain_answer(
                _saved_provenance(args.from_file),
                edit=args.edit,
                router=args.router,
                prefix=args.prefix,
                dst=args.dst,
                top=args.top,
            )
            answer = document("explain-answer", answer)
        elif args.snapshot and args.change:
            # The daemon's explain op, run in process.
            script = _read(args.change)
            params = _op_params("explain", args, script, args.change)
            with _load(args.snapshot) as network:
                answer, lines, report = ops.explain(
                    network, ops.parse("explain", params)
                )
            if args.provenance_out:
                assert report.provenance is not None
                _write_json(
                    args.provenance_out,
                    report.provenance.to_dict(report.reach_segments),
                )
        else:
            raise SystemExit(
                "error: provide a snapshot directory and change script, "
                "or query a saved document with --from FILE"
            )
    except ReproError as error:
        raise SystemExit(f"error: {error}")
    if args.json:
        _emit_json(answer)
    else:
        for line in lines:
            print(line)
    return 0


def _saved_provenance(path: str) -> ProvenanceRecord:
    """The provenance record in a saved provenance document or in a
    delta report saved with ``--provenance``."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    if data.get("kind") == "delta-report":
        data = data.get("provenance")
        if data is None:
            raise SystemExit(
                "error: this delta report was produced without "
                "--provenance; re-run analyze with it"
            )
    try:
        return ProvenanceRecord.from_dict(data)
    except (SchemaError, KeyError, TypeError) as error:
        raise SystemExit(f"error: not a provenance document: {error}")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ReproService

    if args.snapshot:
        network = _load(args.snapshot, trace=args.trace)
    elif args.generate:
        network = Network.generate(
            args.generate,
            size=args.size,
            seed=args.seed,
            edges=args.edges,
            trace=args.trace,
        )
    else:
        raise SystemExit(
            "error: provide a snapshot directory or --generate TOPOLOGY"
        )
    with network:
        try:
            service = ReproService(network, cache_size=args.cache_size)
        except ReproError as error:
            raise SystemExit(f"error: {error}")
        try:
            asyncio.run(service.run(args.listen))
        except KeyboardInterrupt:
            pass
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    params: dict[str, Any] = {}
    if args.op in ops.OPS:
        if not args.change:
            raise SystemExit(f"error: {args.op} needs --change FILE")
        params = _op_params(
            args.op, args, _read(args.change), args.label or args.change
        )
    try:
        with Network.connect(args.address) as remote:
            result = remote.request(args.op, **params)
            cache = remote.last_cache
    except (ReproError, OSError) as error:
        raise SystemExit(f"error: {error}")

    if args.json:
        # Every service result is a versioned document, so the client
        # emits the same envelope as the in-process commands.
        _emit_json(result)
    else:
        line = json.dumps(result, sort_keys=True, indent=2)
        if cache is not None:
            print(f"cache: {cache}")
        print(line)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    import os

    network = Network.generate(
        args.topology, size=args.size, seed=args.seed, edges=args.edges
    )
    scenario = network.scenario
    assert scenario is not None
    network.save(args.directory)
    link = next(iter(scenario.topology.links()))
    (r1, _i1), (r2, _i2) = link.side_a, link.side_b
    script = os.path.join(args.directory, "change.dna")
    with open(script, "w") as handle:
        handle.write(f"# demo change: fail one link\nlink down {r1} {r2}\n")
    print(f"wrote demo snapshot + change script under {args.directory}")
    print(f"try: python -m repro analyze {args.directory} {script} --baseline")
    # Suggest a multi-hop trace: inject at r1, target the host subnet
    # of a router in the middle of the listing (never r1's own
    # gateway, and in symmetric fabrics several hops away).
    owners = [
        router
        for router in scenario.topology.router_names()
        if router != r1 and scenario.fabric.host_subnets.get(router)
    ]
    if owners:
        device = scenario.topology.router(owners[len(owners) // 2])
        gateway = str(device.interface("host0").address)
        print(f"try: python -m repro trace {args.directory} {r1} {gateway}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import run_lint

    result = run_lint(
        args.root,
        update_baseline=args.update_baseline,
        update_fingerprints=args.update_fingerprints,
    )
    if args.json:
        _emit_json(result.to_dict())
        return 0 if result.clean else 1
    for finding in result.new:
        print(f"{finding}")
    for entry in result.stale:
        print(
            f"stale baseline entry {entry['fingerprint']} "
            f"({entry['rule']} {entry['path']}): the finding is gone — "
            "remove it with --update-baseline (the baseline only shrinks)"
        )
    suppressed = len(result.baselined)
    summary = (
        f"checked {result.checked_files} files: "
        f"{len(result.new)} new finding(s), {suppressed} baselined, "
        f"{len(result.stale)} stale baseline entr(y/ies)"
    )
    print(summary)
    return 0 if result.clean else 1


def _explain_flags() -> argparse.ArgumentParser:
    """The causality-query flags of ``explain`` and ``client``, named
    as the explain op's wire params."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--edit", type=int, metavar="N",
                       help="show everything edit #N (may have) caused")
    flags.add_argument("--router", help="router of the FIB/RIB entry")
    flags.add_argument("--prefix", help="prefix of the FIB/RIB entry")
    flags.add_argument("--dst", metavar="IP",
                       help="behaviour changes toward one IPv4 address")
    flags.add_argument("--invariant", dest="invariants", action="append",
                       metavar="NAME",
                       help="registered invariant to check, its violations "
                       "attributed to edits (repeatable; not with --from)")
    flags.add_argument("--top", type=int, default=10,
                       help="rows listed per attribution (default: 10)")
    return flags


def _fabric_flags(size: int) -> argparse.ArgumentParser:
    """``--size/--edges/--seed`` of the commands that build a fabric.

    One parser per command: argparse shares a parent's actions, so
    ``set_defaults(size=...)`` on one command would change the others.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--size", type=int, default=size,
                       help="k for fat_tree, n for ring/line/random "
                       f"(default: {size})")
    flags.add_argument("--edges", type=int, help="edge count for random")
    flags.add_argument("--seed", type=int, default=0,
                       help="seed for randomized topologies and sampled "
                       "scenarios (default: 0)")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Differential Network Analysis CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    show = commands.add_parser("show", help="summarize a snapshot")
    show.add_argument("snapshot")
    show.add_argument("--limit", type=int, default=10, help="routers to list")
    show.set_defaults(handler=cmd_show)

    analyze = commands.add_parser(
        "analyze",
        help="review a change script ('---' lines batch multiple changes)",
    )
    analyze.add_argument("snapshot")
    analyze.add_argument("change")
    analyze.add_argument("--commit", action="store_true",
                         help="write the changed snapshot back")
    analyze.add_argument("--baseline", action="store_true",
                         help="also run the snapshot-diff baseline and compare")
    analyze.add_argument("--json", action="store_true",
                         help="emit the schema-versioned delta report as JSON")
    analyze.add_argument("--profile", action="store_true",
                         help="trace the analysis and emit the versioned "
                         "span-tree JSON (per-stage durations with dirty-set "
                         "attribution) to stdout; combine with --json by "
                         "using --profile-out instead")
    analyze.add_argument("--profile-out", metavar="FILE",
                         help="write the span-tree JSON document to FILE "
                         "(implies tracing)")
    analyze.add_argument("--chrome-out", metavar="FILE",
                         help="write a Chrome trace-event JSON timeline to "
                         "FILE (open in chrome://tracing; implies tracing)")
    analyze.add_argument("--metrics-out", metavar="FILE",
                         help="write the session work-metrics JSON document "
                         "to FILE (deterministic work counts)")
    analyze.add_argument("--provenance", action="store_true",
                         help="attribute every delta to the edits that "
                         "caused it (the --json report gains a provenance "
                         "section; see also 'repro explain')")
    analyze.add_argument("--provenance-out", metavar="FILE",
                         help="write the provenance JSON document to FILE "
                         "(implies --provenance; query with "
                         "'repro explain --from FILE')")
    analyze.add_argument("--events-out", metavar="FILE",
                         help="write the structured event log as JSONL to "
                         "FILE (implies --provenance)")
    analyze.set_defaults(handler=cmd_analyze)

    trace = commands.add_parser("trace", help="trace one packet")
    trace.add_argument("snapshot")
    trace.add_argument("source", help="injecting router")
    trace.add_argument("dst", help="destination IPv4 address")
    trace.add_argument("--src", help="source IPv4 address")
    trace.add_argument("--proto", type=int)
    trace.add_argument("--dport", type=int)
    trace.add_argument("--json", action="store_true",
                       help="emit the schema-versioned trace as JSON")
    trace.set_defaults(handler=cmd_trace)

    campaign = commands.add_parser(
        "campaign",
        parents=[_fabric_flags(size=4)],
        help="batch what-if analysis over a built-in scenario",
    )
    campaign.add_argument(
        "kind",
        choices=["links", "k-links", "acl", "bgp"],
        help="what to enumerate: all single-link failures, sampled "
        "k-link failures, per-device ACL blocks, or BGP policy sweeps",
    )
    campaign.add_argument(
        "--scenario",
        default="fat_tree",
        choices=list(TOPOLOGY_KINDS),
        help="built-in base network (default: fat_tree)",
    )
    campaign.add_argument(
        "--k", type=int, default=2, help="simultaneous failures for k-links"
    )
    campaign.add_argument(
        "--samples", type=int, default=20,
        help="sample budget for k-links / acl sweeps (default: 20)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial backend)",
    )
    campaign.add_argument(
        "--top", type=int, default=10, help="rows in the ranked summary"
    )
    campaign.add_argument(
        "--invariant", action="append", metavar="NAME",
        help="registered invariant name to check (repeatable; default: "
        f"loop-freedom, blackhole-freedom; usable here: "
        f"{', '.join(_no_arg_invariants())}; parameterized invariants "
        "need the Python API)",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="emit the schema-versioned campaign report as JSON",
    )
    campaign.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the merged work-metrics JSON document to FILE "
        "(byte-identical across serial and parallel backends)",
    )
    campaign.add_argument(
        "--chrome-out", metavar="FILE",
        help="record per-scenario span forests and write one merged "
        "Chrome trace-event timeline to FILE (every scenario is a "
        "named thread; open in chrome://tracing)",
    )
    campaign.add_argument(
        "--provenance", action="store_true",
        help="attribute each scenario's deltas and violations to its "
        "edits (outcome 'causes' in --json) and merge per-worker "
        "event logs into the report",
    )
    campaign.add_argument(
        "--events-out", metavar="FILE",
        help="write the merged structured event log as JSONL to FILE "
        "(implies --provenance; byte-identical across backends)",
    )
    campaign.set_defaults(handler=cmd_campaign)

    query = _explain_flags()
    explain = commands.add_parser(
        "explain",
        parents=[query],
        help="answer causality queries: which edit caused which delta",
    )
    explain.add_argument(
        "snapshot", nargs="?",
        help="snapshot directory (omit when using --from)",
    )
    explain.add_argument(
        "change", nargs="?",
        help="change script to analyze with provenance (never commits)",
    )
    explain.add_argument(
        "--from", dest="from_file", metavar="FILE",
        help="query a saved provenance document (or a delta report "
        "saved with --provenance) instead of running an analysis",
    )
    explain.add_argument(
        "--provenance-out", metavar="FILE",
        help="also save the provenance JSON document to FILE",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the query answer as JSON",
    )
    explain.set_defaults(handler=cmd_explain)

    serve = commands.add_parser(
        "serve",
        parents=[_fabric_flags(size=4)],
        help="run the always-on what-if service over one converged base",
    )
    serve.add_argument(
        "snapshot", nargs="?",
        help="snapshot directory to serve (or use --generate)",
    )
    serve.add_argument(
        "--generate", metavar="TOPOLOGY", choices=list(TOPOLOGY_KINDS),
        help="serve a generated built-in scenario instead of a snapshot",
    )
    serve.add_argument(
        "--listen", metavar="ADDRESS", default="127.0.0.1:7421",
        help="host:port, host:0 for an ephemeral port, or a unix "
        "socket path (default: 127.0.0.1:7421)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache entries (default: 256)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="trace requests with repro.obs spans (visible via "
        "'repro client ADDRESS stats')",
    )
    serve.set_defaults(handler=cmd_serve)

    client = commands.add_parser(
        "client",
        parents=[query],
        help="one request against a running what-if service",
    )
    client.add_argument("address", help="service address (host:port or path)")
    client.add_argument(
        "op",
        choices=protocol.OPS,
        help="request to send",
    )
    client.add_argument(
        "--change", metavar="FILE",
        help="change script for preview/explain/campaign ('---' lines "
        "batch multiple changes)",
    )
    client.add_argument(
        "--label", help="request label (default: the change file name)"
    )
    client.add_argument(
        "--provenance", action="store_true",
        help="preview/campaign with edit-level provenance attribution",
    )
    client.add_argument(
        "--jobs", type=int, default=1,
        help="campaign: worker processes on the service side",
    )
    client.add_argument(
        "--json", action="store_true",
        help="emit the result document in the uniform envelope",
    )
    client.set_defaults(handler=cmd_client)

    demo = commands.add_parser(
        "demo", parents=[_fabric_flags(size=6)], help="write a demo snapshot"
    )
    demo.add_argument("directory")
    demo.add_argument(
        "--topology",
        default="ring",
        choices=list(TOPOLOGY_KINDS),
        help="fabric to generate (default: ring)",
    )
    demo.set_defaults(handler=cmd_demo)

    lint = commands.add_parser(
        "lint",
        help="static contract checks (fork safety, determinism, schema, "
        "registry, obs naming)",
    )
    lint.add_argument(
        "--root", default=".",
        help="repo root containing src/repro (default: cwd)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the versioned lint-report document",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite LINT_BASELINE.json from the current findings",
    )
    lint.add_argument(
        "--update-fingerprints", action="store_true",
        help="rewrite SCHEMA_FINGERPRINTS.json from the current classes",
    )
    lint.set_defaults(handler=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
