"""The always-on what-if service: isolation, cache, typed errors.

Acceptance (ISSUE 8): N overlapping service requests return results
byte-identical to serial in-process ``Network.preview``; a warm cache
hit is byte-identical to its cold miss and never touches the analysis
pipeline (no ``pipeline.*`` spans, no extra ``analyze.calls``).
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Network
from repro.api.errors import (
    ChangeParseError,
    InvalidChangeError,
    ProtocolError,
    ReproError,
)
from repro.core.change_text import parse_change_batch
from repro.service import ReproService, ResultCache, ServiceClient
from repro.service import protocol
from repro.service.cache import change_digest, options_digest


def ring_network(trace: bool = False) -> Network:
    return Network.generate("ring", size=6, trace=trace)


SCRIPTS = [f"link down r{i} r{(i + 1) % 6}" for i in range(6)]


@pytest.fixture(scope="module")
def live():
    """One traced service on an ephemeral TCP port, shared per module."""
    service = ReproService(ring_network(trace=True), cache_size=64)
    address = service.start_in_thread("127.0.0.1:0")
    yield service, address
    service.stop()


def connect(address: str) -> ServiceClient:
    return ServiceClient.connect(address)


class TestProtocol:
    def test_parse_address_forms(self):
        assert protocol.parse_address("127.0.0.1:7421") == (
            "tcp", "127.0.0.1", 7421
        )
        assert protocol.parse_address("/tmp/svc.sock") == (
            "unix", "/tmp/svc.sock", 0
        )
        with pytest.raises(ProtocolError):
            protocol.parse_address("no-port-here")

    def test_frames_are_canonical_lines(self):
        frame = protocol.request(1, "ping", {})
        line = protocol.encode_frame(frame)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert protocol.decode_frame(line, "request") == frame

    def test_error_frame_round_trips_typed(self):
        original = ChangeParseError(2, "frobnicate", "unknown directive")
        frame = protocol.error_frame(3, "preview", original)
        assert frame["error"]["type"] == "ChangeParseError"
        with pytest.raises(ChangeParseError, match="unknown directive"):
            protocol.raise_error_frame(frame)

    def test_unknown_exception_degrades_to_repro_error(self):
        frame = protocol.error_frame(3, "preview", KeyError("internal"))
        assert frame["error"]["type"] == "ProtocolError"
        frame = protocol.error_frame(3, "preview", InvalidChangeError("x"))
        assert frame["error"]["type"] == "InvalidChangeError"

    def test_strip_timings_zeroes_wall_clock_only(self):
        doc = {
            "timings": {"total": 1.5},
            "duration": 2.0,
            "wall_time": 3.0,
            "outcomes": [{"duration": 4.0, "deltas": 7}],
            "name": "duration",  # a *string* named like a field survives
        }
        stripped = protocol.strip_timings(doc)
        assert stripped["timings"] == {}
        assert stripped["duration"] == 0.0
        assert stripped["wall_time"] == 0.0
        assert stripped["outcomes"][0] == {"duration": 0.0, "deltas": 7}
        assert stripped["name"] == "duration"
        assert doc["duration"] == 2.0  # original untouched


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        cache.put(("a", "b", "c"), "1")
        cache.put(("d", "e", "f"), "2")
        assert cache.get(("a", "b", "c")) == "1"  # refresh recency
        cache.put(("g", "h", "i"), "3")  # evicts the cold ("d","e","f")
        assert cache.get(("d", "e", "f")) is None
        assert cache.get(("a", "b", "c")) == "1"
        assert cache.evictions == 1

    def test_generation_move_invalidates_wholesale(self):
        cache = ResultCache()
        cache.ensure_generation(0)
        cache.put(("a", "b", "c"), "1")
        cache.ensure_generation(0)
        assert len(cache) == 1
        cache.ensure_generation(1)
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_eviction_under_invalidation_ordering(self):
        # Invalidation clears wholesale and must NOT count as (or
        # interact with) LRU eviction: the counters stay disjoint and
        # the LRU order restarts empty after a generation move.
        cache = ResultCache(maxsize=2)
        cache.ensure_generation(0)
        cache.put(("a", "a", "a"), "1")
        cache.put(("b", "b", "b"), "2")
        cache.put(("c", "c", "c"), "3")  # LRU-evicts ("a","a","a")
        assert cache.evictions == 1
        cache.ensure_generation(1)  # wholesale clear, not an eviction
        assert len(cache) == 0
        assert cache.evictions == 1
        assert cache.invalidations == 1
        # Post-invalidation the bound starts fresh: two puts fit with
        # no further eviction, and pre-invalidation survivors are gone.
        cache.put(("b", "b", "b"), "2'")
        cache.put(("d", "d", "d"), "4")
        assert cache.evictions == 1
        assert cache.get(("c", "c", "c")) is None
        assert cache.get(("b", "b", "b")) == "2'"

    def test_first_generation_sighting_does_not_invalidate(self):
        cache = ResultCache()
        cache.put(("a", "a", "a"), "1")
        cache.ensure_generation(7)  # first sighting just pins it
        assert len(cache) == 1
        assert cache.invalidations == 0

    def test_overwrite_same_key_is_not_an_eviction(self):
        cache = ResultCache(maxsize=1)
        cache.put(("a", "a", "a"), "1")
        cache.put(("a", "a", "a"), "1'")
        assert cache.evictions == 0
        assert cache.get(("a", "a", "a")) == "1'"

    def test_stats_counters_are_complete(self):
        cache = ResultCache(maxsize=1)
        cache.get(("a", "a", "a"))  # miss
        cache.put(("a", "a", "a"), "1")
        cache.get(("a", "a", "a"))  # hit
        cache.put(("b", "b", "b"), "2")  # evicts
        cache.ensure_generation(0)
        cache.ensure_generation(1)  # invalidates
        assert cache.stats() == {
            "entries": 0,
            "maxsize": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "invalidations": 1,
        }

    def test_change_digest_ignores_formatting(self):
        loose = parse_change_batch(
            "# comment\n\nlink  down   r0 r1\n", label="x"
        )
        tight = parse_change_batch("link down r0 r1", label="x")
        assert change_digest(loose) == change_digest(tight)

    def test_options_digest_ignores_key_order(self):
        assert options_digest({"a": 1, "b": 2}) == options_digest(
            {"b": 2, "a": 1}
        )


class TestServiceRequests:
    def test_ping_reports_base_digest(self, live):
        service, address = live
        with connect(address) as client:
            pong = client.ping()
        assert pong["base_digest"] == service.base_digest
        assert pong["generation"] == 0

    def test_preview_matches_in_process_facade(self, live):
        _, address = live
        script = SCRIPTS[0]
        with ring_network() as local:
            changes = parse_change_batch(script, label="s")
            expected = local.preview(changes, label="s").to_dict()
        with connect(address) as client:
            report = client.preview(script, label="s")
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_warm_hit_is_byte_identical_and_skips_pipeline(self, live):
        service, address = live
        script = "link down r2 r3"
        with connect(address) as client:
            cold = client.request("preview", script=script, label="w")
            assert client.last_cache == "miss"
            spans_before = len(list(service.network.tracer.walk()))
            calls_before = service.network.metrics.counter(
                "analyze.calls"
            ).value
            warm = client.request("preview", script=script, label="w")
            assert client.last_cache == "hit"
        assert json.dumps(warm, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )
        # The hit's only new span is service.preview itself — the
        # analysis pipeline never ran again.
        new_spans = list(service.network.tracer.walk())[spans_before:]
        names = [span.name for span in new_spans]
        assert "service.preview" in names
        assert not any(name.startswith("pipeline.") for name in names)
        assert service.network.metrics.counter(
            "analyze.calls"
        ).value == calls_before

    def test_eight_concurrent_requests_match_serial(self, live):
        _, address = live
        with ring_network() as local:
            serial = {}
            for script in SCRIPTS:
                changes = parse_change_batch(script, label=script)
                serial[script] = json.dumps(
                    local.preview(changes, label=script).to_dict(),
                    sort_keys=True,
                )

        def one(script):
            with connect(address) as client:
                report = client.preview(script, label=script)
            return script, json.dumps(report.to_dict(), sort_keys=True)

        # 8 overlapping requests (6 distinct + 2 repeats) on 8 threads.
        batch = SCRIPTS + SCRIPTS[:2]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, batch))
        assert len(results) == 8
        for script, payload in results:
            assert payload == serial[script], script

    def test_explain_answer_matches_cli_schema(self, live):
        _, address = live
        with connect(address) as client:
            answer = client.explain("link down r0 r1", edit=0)
        assert answer["kind"] == "explain-answer"
        assert answer["edit"]["edit"]["id"] == 0
        assert answer["edit"]["fib"]

    def test_campaign_over_the_wire(self, live):
        _, address = live
        scenarios = [
            {"name": f"fail {s}", "script": s} for s in SCRIPTS[:3]
        ]
        with connect(address) as client:
            report = client.campaign(
                scenarios, invariants=["loop-freedom"], label="svc"
            )
        assert len(report) == 3
        assert not report.failed()

    def test_stats_counts_requests_and_cache(self, live):
        service, address = live
        with connect(address) as client:
            client.ping()
            stats = client.stats()
        assert stats["kind"] == "service-stats"
        assert stats["base_digest"] == service.base_digest
        assert stats["requests"]["ping"] >= 1
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["entries"] >= 1


class TestServiceErrors:
    def test_parse_error_crosses_the_wire_typed(self, live):
        _, address = live
        with connect(address) as client:
            with pytest.raises(ChangeParseError, match="unknown"):
                client.preview("frobnicate the uplink")
            # The connection survives an error frame.
            assert client.ping()["kind"] == "pong"

    def test_unknown_op_is_a_protocol_error(self, live):
        _, address = live
        with connect(address) as client:
            with pytest.raises(ProtocolError, match="unknown op"):
                client.request("reticulate")

    def test_missing_script_is_a_protocol_error(self, live):
        _, address = live
        with connect(address) as client:
            with pytest.raises(ProtocolError, match="script"):
                client.request("preview")

    def test_garbage_line_gets_an_error_frame(self, live):
        _, address = live
        with connect(address) as client:
            client._socket.sendall(b"this is not json\n")
            line = client._reader.readline()
        frame = protocol.decode_frame(line, "response")
        assert frame["kind"] == "error"
        with pytest.raises(ProtocolError):
            protocol.raise_error_frame(frame)

    def test_oversized_frame_gets_a_typed_error_and_service_survives(
        self, caplog
    ):
        service = ReproService(ring_network(), cache_size=4)
        try:
            address = service.start_in_thread("127.0.0.1:0")
            errors = service.network.metrics.counter("service.errors")
            errors_before = errors.value
            digest_before = service.base_digest
            with connect(address) as client:
                client._socket.sendall(
                    b"x" * (protocol.MAX_FRAME_BYTES + 4464) + b"\n"
                )
                line = client._reader.readline()
            frame = protocol.decode_frame(line, "response")
            with pytest.raises(ProtocolError, match="exceeds 65536 bytes"):
                protocol.raise_error_frame(frame)
            assert errors.value == errors_before + 1
            with connect(address) as client:
                assert client.ping()["base_digest"] == digest_before
            assert service.base_digest == digest_before
            assert not [
                record for record in caplog.records
                if record.name == "asyncio" and record.levelname == "ERROR"
            ]
        finally:
            service.stop()


class TestLifecycle:
    def test_shutdown_request_stops_the_service(self):
        service = ReproService(ring_network(), cache_size=4)
        address = service.start_in_thread("127.0.0.1:0")
        with connect(address) as client:
            reply = client.shutdown()
        assert reply["stopping"] is True

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        service = ReproService(ring_network(), cache_size=4)
        try:
            address = service.start_in_thread(path)
            assert address == path
            with connect(address) as client:
                assert client.ping()["kind"] == "pong"
        finally:
            service.stop()

    def test_network_connect_returns_a_client(self, live):
        _, address = live
        with Network.connect(address) as remote:
            assert isinstance(remote, ServiceClient)
            assert remote.ping()["generation"] == 0

    def test_network_close_and_context_manager(self):
        with ring_network() as network:
            network.preview(
                parse_change_batch("link down r0 r1", label="x")
            )
            assert network._analyzer is not None
        assert network._analyzer is None  # close() released the base

    def test_cache_size_flows_through(self):
        service = ReproService(ring_network(), cache_size=7)
        assert service.cache.maxsize == 7
        with pytest.raises(ValueError):
            ResultCache(0)
