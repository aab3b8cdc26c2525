"""The asyncio what-if daemon: one converged base, many callers.

:class:`ReproService` wraps one :class:`repro.api.Network`, converges
it once at startup, and serves concurrent requests over asyncio
streams (TCP or Unix socket) using the frame protocol of
:mod:`repro.service.protocol`.

Concurrency model — three tiers, fastest first:

1. **Cache hits** never touch the analyzer: the canonical result
   string comes straight off the LRU and is written back.  Hits,
   ``ping``, and ``stats`` stay fully concurrent with running
   analyses.
2. **Analyses** (preview/analyze_batch/campaign/explain misses) are
   fork-backed against the shared converged analyzer — each request
   evaluates inside a PR-1 undo journal and rolls back, so requests
   are isolated and byte-identical to serial evaluation.  Forks do
   not nest, so analyses serialize on one ``asyncio.Lock`` and run in
   a worker thread, keeping the event loop (and tier 1) responsive.
3. **Campaigns** may additionally fan out worker processes
   (``jobs > 1``) exactly like the in-process facade.

Every request runs under a ``service.<op>`` span (when the service's
network traces) labelled with the request id and cache disposition, so
per-request attribution rides the PR-6 observability layer; work
counts land in the shared metrics registry either way.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Callable, Mapping

from repro.api import Network
from repro.api.errors import ConvergenceError, ProtocolError
from repro.api.explain import explain_answer
from repro.campaign.scenarios import WhatIfScenario
from repro.core import codec
from repro.core.change import Change
from repro.core.change_text import parse_change_batch
from repro.core.serialize import document
from repro.service import protocol
from repro.service.cache import (
    CacheKey,
    ResultCache,
    change_digest,
    options_digest,
)

#: Ops whose results are pure functions of (base, changes, options) —
#: the only ones the result cache may answer.
CACHEABLE_OPS = ("preview", "analyze_batch", "campaign", "explain")


class ReproService:
    """One hot converged base behind a frame-protocol socket."""

    def __init__(self, network: Network, cache_size: int = 256) -> None:
        self.network = network
        self.cache = ResultCache(cache_size)
        # Converge up front: requests must never pay for (or race) the
        # one-time simulation.  Convergence failures surface here, at
        # startup, as ConvergenceError — not per-request.
        self.network.analyzer
        self.base_digest = codec.snapshot_digest(network.snapshot)
        self.requests: dict[str, int] = {}
        self.address: str | None = None
        self._server: asyncio.base_events.Server | None = None
        self._lock: asyncio.Lock | None = None
        self._stopping: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, address: str = "127.0.0.1:0") -> str:
        """Bind and begin serving; returns the bound address."""
        self._loop = asyncio.get_running_loop()
        self._lock = asyncio.Lock()
        self._stopping = asyncio.Event()
        kind, host, port = protocol.parse_address(address)
        if kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=host, limit=protocol.MAX_FRAME_BYTES
            )
            self.address = host
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=host,
                port=port,
                limit=protocol.MAX_FRAME_BYTES,
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        return self.address

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` request)."""
        assert self._server is not None and self._stopping is not None
        async with self._server:
            await self._stopping.wait()

    async def run(self, address: str = "127.0.0.1:0") -> None:
        """Bind, announce, and serve until stopped (CLI entry)."""
        bound = await self.start(address)
        print(f"repro service listening on {bound} "
              f"(base {self.base_digest[:12]}, "
              f"{self.network.summary()})", flush=True)
        await self.serve_until_stopped()

    def stop(self) -> None:
        """Stop serving (threadsafe; idempotent)."""
        loop, stopping = self._loop, self._stopping
        if loop is None or stopping is None:
            return
        loop.call_soon_threadsafe(stopping.set)

    def start_in_thread(self, address: str = "127.0.0.1:0") -> str:
        """Serve from a daemon thread; returns the bound address.

        The harness tests and benchmarks drive a real socket server
        this way; production use is ``repro serve``.  Stop with
        :meth:`stop` or a ``shutdown`` request.
        """
        ready: "threading.Event" = threading.Event()
        failure: list[BaseException] = []

        async def _main() -> None:
            try:
                await self.start(address)
            except BaseException as error:  # surface bind errors
                failure.append(error)
                ready.set()
                return
            ready.set()
            await self.serve_until_stopped()

        thread = threading.Thread(
            target=lambda: asyncio.run(_main()), daemon=True
        )
        thread.start()
        ready.wait()
        if failure:
            raise ConvergenceError(
                f"service failed to start: {failure[0]}"
            ) from failure[0]
        assert self.address is not None
        return self.address

    # -- connection handling -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame over MAX_FRAME_BYTES: answer once, then
                    # close — the rest of it cannot be told apart from
                    # the next frame.
                    self.network.metrics.counter("service.errors").inc()
                    error = ProtocolError(
                        "request frame exceeds "
                        f"{protocol.MAX_FRAME_BYTES} bytes"
                    )
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_frame(None, None, error)
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                frame = await self._answer(line)
                writer.write(protocol.encode_frame(frame))
                await writer.drain()
                if frame.get("kind") == "response" and frame.get("op") == (
                    "shutdown"
                ):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-frame; nothing to answer
        finally:
            writer.close()

    async def _answer(self, line: bytes) -> dict[str, Any]:
        """One request frame in, one response/error frame out."""
        request_id: int | None = None
        op: str | None = None
        try:
            frame = protocol.decode_frame(line, "request")
            request_id = frame.get("id")
            op = frame.get("op")
            params = frame.get("params") or {}
            if op not in protocol.OPS:
                raise ProtocolError(
                    f"unknown op {op!r}; known: {', '.join(protocol.OPS)}"
                )
            if not isinstance(params, dict):
                raise ProtocolError("request 'params' must be an object")
            self.requests[op] = self.requests.get(op, 0) + 1
            self.network.metrics.counter("service.requests").inc()
            self.network.metrics.counter(f"service.op.{op}").inc()
            return await self._dispatch(request_id, op, params)
        except Exception as error:  # typed -> structured error frame
            self.network.metrics.counter("service.errors").inc()
            return protocol.error_frame(request_id, op, error)

    async def _dispatch(
        self, request_id: int | None, op: str, params: Mapping[str, Any]
    ) -> dict[str, Any]:
        if op == "ping":
            return protocol.response(request_id, op, self._pong())
        if op == "stats":
            return protocol.response(request_id, op, self._stats())
        if op == "shutdown":
            assert self._stopping is not None
            self._stopping.set()
            return protocol.response(
                request_id, op, document("pong", {"stopping": True})
            )

        # Cacheable analysis ops: digest the question, try the cache,
        # otherwise compute fork-backed under the analysis lock.
        self.cache.ensure_generation(self.network.analyzer.generation)
        key, work = self._plan(op, params)
        cached = self.cache.get(key)
        if cached is not None:
            self.network.metrics.counter("service.cache_hits").inc()
            with self.network.tracer.span(
                f"service.{op}", id=request_id, cache="hit"
            ):
                return protocol.response(
                    request_id, op, json.loads(cached), cache="hit"
                )
        self.network.metrics.counter("service.cache_misses").inc()
        assert self._lock is not None and self._loop is not None
        async with self._lock:
            with self.network.tracer.span(
                f"service.{op}", id=request_id, cache="miss"
            ):
                result = await self._loop.run_in_executor(None, work)
        canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
        self.cache.put(key, canonical)
        return protocol.response(
            request_id, op, json.loads(canonical), cache="miss"
        )

    # -- op implementations --------------------------------------------------

    def _pong(self) -> dict[str, Any]:
        return document(
            "pong",
            {
                "base_digest": self.base_digest,
                "generation": self.network.analyzer.generation,
            },
        )

    def _stats(self) -> dict[str, Any]:
        return document(
            "service-stats",
            {
                "base_digest": self.base_digest,
                "generation": self.network.analyzer.generation,
                "snapshot": self.network.summary(),
                "requests": dict(sorted(self.requests.items())),
                "cache": self.cache.stats(),
                "metrics": self.network.metrics.to_payload(),
            },
        )

    def _plan(
        self, op: str, params: Mapping[str, Any]
    ) -> tuple[CacheKey, Callable[[], dict[str, Any]]]:
        """(cache key, thunk) for one analysis op."""
        if op in ("preview", "analyze_batch"):
            changes = self._parse_script(params)
            label = params.get("label")
            wants_provenance = bool(params.get("provenance", False))
            options = {
                "op": "preview",  # analyze_batch is the same question
                "label": label,
                "provenance": wants_provenance,
            }
            key = (
                self.base_digest,
                change_digest(changes),
                options_digest(options),
            )

            def work() -> dict[str, Any]:
                report = self.network.preview(
                    changes, label=label, provenance=wants_provenance
                )
                return report.to_dict()

            return key, work
        if op == "explain":
            changes = self._parse_script(params)
            query = {
                "op": "explain",
                "label": params.get("label"),
                "edit": params.get("edit"),
                "router": params.get("router"),
                "prefix": params.get("prefix"),
                "dst": params.get("dst"),
                "invariants": list(params.get("invariants") or []),
                "top": int(params.get("top", 10)),
            }
            key = (
                self.base_digest,
                change_digest(changes),
                options_digest(query),
            )

            def work() -> dict[str, Any]:
                report = self.network.preview(
                    changes, label=query["label"], provenance=True
                )
                record = report.provenance
                assert record is not None
                violations = (
                    self.network.check(report, query["invariants"])
                    if query["invariants"]
                    else []
                )
                answer, _ = explain_answer(
                    record,
                    report=report,
                    violations=violations,
                    edit=query["edit"],
                    router=query["router"],
                    prefix=query["prefix"],
                    dst=query["dst"],
                    top=query["top"],
                )
                return document("explain-answer", answer)

            return key, work
        if op == "campaign":
            scenarios, scripts = self._parse_scenarios(params)
            options = {
                "op": "campaign",
                "scenarios": scripts,
                "invariants": list(params.get("invariants") or []),
                "jobs": int(params.get("jobs", 1)),
                "label": params.get("label"),
                "provenance": bool(params.get("provenance", False)),
            }
            key = (self.base_digest, "-", options_digest(options))

            def work() -> dict[str, Any]:
                report = self.network.campaign(
                    scenarios,
                    jobs=options["jobs"],
                    invariants=options["invariants"],
                    label=options["label"] or "",
                    provenance=options["provenance"],
                )
                return report.to_dict()

            return key, work
        raise ProtocolError(f"op {op!r} is not an analysis op")

    def _parse_script(self, params: Mapping[str, Any]) -> list[Change]:
        script = params.get("script")
        if not isinstance(script, str):
            raise ProtocolError("request needs a 'script' string param")
        return parse_change_batch(
            script, label=str(params.get("label") or "request")
        )

    def _parse_scenarios(
        self, params: Mapping[str, Any]
    ) -> tuple[list[WhatIfScenario], list[dict[str, str]]]:
        """Explicit scenario list -> (scenarios, canonical scripts).

        Each entry is ``{"name": ..., "script": ...}`` (``---`` batches
        inside a script evaluate in one recompute pass).  The
        canonical scripts feed the cache key.
        """
        raw = params.get("scenarios")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "campaign needs a non-empty 'scenarios' list of "
                '{"name", "script"} objects'
            )
        scenarios: list[WhatIfScenario] = []
        scripts: list[dict[str, str]] = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict) or not isinstance(
                entry.get("script"), str
            ):
                raise ProtocolError(
                    f"scenarios[{index}] needs a 'script' string"
                )
            name = str(entry.get("name") or f"scenario #{index}")
            changes = parse_change_batch(entry["script"], label=name)
            combined = (
                changes[0]
                if len(changes) == 1
                else Change(
                    edits=[e for change in changes for e in change.edits],
                    label=name,
                )
            )
            scenarios.append(
                WhatIfScenario(
                    name=name,
                    change=combined,
                    kind=str(entry.get("kind") or "service"),
                    changes=tuple(changes) if len(changes) > 1 else (),
                )
            )
            scripts.append({"name": name, "script": entry["script"]})
        return scenarios, scripts
