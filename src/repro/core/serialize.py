"""Versioned JSON codecs for result objects.

Every outcome type the public API returns (:class:`DeltaReport`,
:class:`CampaignReport`, :class:`PacketTrace`, :class:`PathDiff`,
:class:`Violation`) carries ``to_dict()/from_dict()`` built on the
helpers here.  The contract is *byte-stable round-tripping*: for any
result ``r``, ``dumps(r.to_dict())`` equals
``dumps(type(r).from_dict(r.to_dict()).to_dict())`` when dumped with
``sort_keys=True`` — so results can cross process/service boundaries,
be cached, or be diffed as plain JSON.

Documents are versioned and tagged: every top-level dict carries
``schema_version`` and ``kind``.  ``from_dict`` rejects unknown
versions and mismatched kinds with :class:`SchemaError`, so a service
upgrade can never silently misparse an old payload.

The value codecs (routes, FIB entries, BGP attribute bundles,
behaviour signatures) normalize unordered containers to sorted lists,
which is what makes the round trip byte-stable.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config.routemap import AttributeBundle
from repro.controlplane.rib import NextHop, Route
from repro.core.errors import SchemaError
from repro.dataplane.fib import FibEntry
from repro.net.addr import IPv4Address, Prefix

SCHEMA_VERSION = 2

__all__ = ["SCHEMA_VERSION", "KNOWN_KINDS", "SchemaError", "register_kind",
           "document", "check_document", "envelope", "check_envelope"]

# Every document kind this build can emit or parse.  ``document`` and
# ``check_document`` reject kinds outside the registry, so a typo'd
# kind fails at emission instead of surfacing as a mismatched-kind
# error on some later consumer.  Extensions add their own kinds with
# :func:`register_kind`; the static analyzer (``repro lint``, rule S1)
# cross-checks every ``to_dict`` against this set.
KNOWN_KINDS: set[str] = {
    # result documents
    "delta-report",
    "violation",
    "packet-trace",
    "path-diff",
    "campaign-report",
    "span-trace",
    "metrics",
    "provenance",
    "event-log",
    "explain-answer",
    "lint-report",
    # service wire frames
    "request",
    "response",
    "error",
    "pong",
    "service-stats",
}


def register_kind(kind: str) -> str:
    """Register an extension document kind; returns ``kind``.

    Workloads that serialize their own result types call this once at
    import time, then use :func:`document`/:func:`check_document` as
    usual.
    """
    KNOWN_KINDS.add(kind)
    return kind


def document(kind: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Wrap a payload as a versioned, kind-tagged document."""
    if kind not in KNOWN_KINDS:
        raise SchemaError(
            f"unregistered document kind {kind!r}; call "
            "repro.core.serialize.register_kind first"
        )
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def envelope(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The uniform output envelope shared by the CLI and the service.

    ``{"kind", "schema_version", "result"}`` — the top-level ``kind``
    mirrors the wrapped document's so consumers can dispatch without
    descending, and ``result`` is the document itself, byte-identical
    whether it arrived via ``--json`` on the CLI or in a service
    response frame.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": doc["kind"],
        "result": dict(doc),
    }


def check_envelope(data: Mapping[str, Any]) -> dict[str, Any]:
    """Validate an envelope and return its ``result`` document."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    result = data.get("result")
    if not isinstance(result, dict) or data.get("kind") != result.get("kind"):
        raise SchemaError("not an output envelope: expected a 'result' "
                          "document matching the envelope 'kind'")
    return result


def check_document(data: Mapping[str, Any], kind: str) -> None:
    """Validate a document's version and kind (raises SchemaError)."""
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    found = data.get("kind")
    if found != kind:
        raise SchemaError(f"expected a {kind!r} document, got {found!r}")
    if kind not in KNOWN_KINDS:
        raise SchemaError(
            f"unregistered document kind {kind!r}; call "
            "repro.core.serialize.register_kind first"
        )


# -- value codecs -----------------------------------------------------------


def encode_ip(address: IPv4Address | None) -> str | None:
    return None if address is None else str(address)


def decode_ip(data: str | None) -> IPv4Address | None:
    return None if data is None else IPv4Address(data)


def encode_prefix(prefix: Prefix) -> str:
    return str(prefix)


def decode_prefix(data: str) -> Prefix:
    return Prefix(data)


def _next_hop_sort_key(hop: NextHop) -> tuple[str, int, str, bool]:
    # NextHop's derived ordering breaks on None-vs-address ties; this
    # key is total over every well-formed hop.
    return (
        hop.interface,
        hop.ip.value if hop.ip is not None else -1,
        hop.neighbor or "",
        hop.drop,
    )


def encode_next_hop(hop: NextHop) -> dict[str, Any]:
    return {
        "interface": hop.interface,
        "ip": encode_ip(hop.ip),
        "neighbor": hop.neighbor,
        "drop": hop.drop,
    }


def decode_next_hop(data: Mapping[str, Any]) -> NextHop:
    return NextHop(
        interface=data["interface"],
        ip=decode_ip(data["ip"]),
        neighbor=data["neighbor"],
        drop=data["drop"],
    )


def encode_next_hops(hops: frozenset[NextHop]) -> list[dict[str, Any]]:
    return [
        encode_next_hop(hop) for hop in sorted(hops, key=_next_hop_sort_key)
    ]


def decode_next_hops(data: list[Mapping[str, Any]]) -> frozenset[NextHop]:
    return frozenset(decode_next_hop(item) for item in data)


def encode_bundle(bundle: AttributeBundle | None) -> dict[str, Any] | None:
    if bundle is None:
        return None
    return {
        "prefix": encode_prefix(bundle.prefix),
        "as_path": list(bundle.as_path),
        "local_pref": bundle.local_pref,
        "med": bundle.med,
        "origin_asn": bundle.origin_asn,
        "communities": sorted(list(pair) for pair in bundle.communities),
    }


def decode_bundle(data: Mapping[str, Any] | None) -> AttributeBundle | None:
    if data is None:
        return None
    return AttributeBundle(
        prefix=decode_prefix(data["prefix"]),
        as_path=tuple(data["as_path"]),
        local_pref=data["local_pref"],
        med=data["med"],
        origin_asn=data["origin_asn"],
        communities=frozenset(
            (asn, value) for asn, value in data["communities"]
        ),
    )


def encode_route(route: Route | None) -> dict[str, Any] | None:
    if route is None:
        return None
    return {
        "prefix": encode_prefix(route.prefix),
        "protocol": route.protocol,
        "admin_distance": route.admin_distance,
        "metric": route.metric,
        "next_hops": encode_next_hops(route.next_hops),
        "bgp": encode_bundle(route.bgp),
        "bgp_next_hop": encode_ip(route.bgp_next_hop),
        "learned_from": route.learned_from,
    }


def decode_route(data: Mapping[str, Any] | None) -> Route | None:
    if data is None:
        return None
    return Route(
        prefix=decode_prefix(data["prefix"]),
        protocol=data["protocol"],
        admin_distance=data["admin_distance"],
        metric=data["metric"],
        next_hops=decode_next_hops(data["next_hops"]),
        bgp=decode_bundle(data["bgp"]),
        bgp_next_hop=decode_ip(data["bgp_next_hop"]),
        learned_from=data["learned_from"],
    )


def encode_fib_entry(entry: FibEntry | None) -> dict[str, Any] | None:
    if entry is None:
        return None
    return {
        "prefix": encode_prefix(entry.prefix),
        "next_hops": encode_next_hops(entry.next_hops),
        "protocol": entry.protocol,
    }


def decode_fib_entry(data: Mapping[str, Any] | None) -> FibEntry | None:
    if data is None:
        return None
    return FibEntry(
        prefix=decode_prefix(data["prefix"]),
        next_hops=decode_next_hops(data["next_hops"]),
        protocol=data["protocol"],
    )


# -- behaviour signatures ---------------------------------------------------
#
# ``DeltaReport.behavior_signature()`` is a nested tuple over a small
# closed value domain (None, ints, strings, Prefix, Route, FibEntry).
# The codec tags non-JSON values and rebuilds tuples recursively, so a
# signature survives JSON transport bit-for-bit (campaign outcomes
# carry them to prove backend equivalence across machines).


def encode_signature(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [encode_signature(item) for item in value]
    if isinstance(value, Prefix):
        return {"$": "prefix", "v": encode_prefix(value)}
    if isinstance(value, Route):
        return {"$": "route", "v": encode_route(value)}
    if isinstance(value, FibEntry):
        return {"$": "fib-entry", "v": encode_fib_entry(value)}
    if isinstance(value, IPv4Address):
        return {"$": "ip", "v": encode_ip(value)}
    raise TypeError(f"cannot encode {type(value).__name__} in a signature")


def decode_signature(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(decode_signature(item) for item in value)
    if isinstance(value, dict):
        tag, payload = value["$"], value["v"]
        if tag == "prefix":
            return decode_prefix(payload)
        if tag == "route":
            return decode_route(payload)
        if tag == "fib-entry":
            return decode_fib_entry(payload)
        if tag == "ip":
            return decode_ip(payload)
        raise SchemaError(f"unknown signature tag {tag!r}")
    return value
