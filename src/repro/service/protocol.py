"""The wire protocol: newline-delimited versioned-JSON frames.

One frame per line, canonical JSON (sorted keys, compact separators),
``\\n``-terminated — readable with ``nc``, parseable by anything.
Every frame is a :mod:`repro.core.serialize` document, so it carries
``schema_version`` and ``kind`` and is rejected by
:class:`~repro.api.errors.SchemaError` on version skew:

====================  =====================================================
frame kind            fields
====================  =====================================================
``request``           ``id`` (caller-chosen int), ``op``, ``params`` (obj)
``response``          ``id``, ``op``, ``cache`` (``"hit"``/``"miss"``/
                      ``null``), ``result`` (a versioned document)
``error``             ``id`` (``null`` if unparseable), ``op``, ``error``
                      = ``{"type": exception class name, "message": str}``
====================  =====================================================

The ``result`` field of a response is byte-identical (as canonical
JSON) to the CLI's ``--json`` envelope ``result`` for the same
question — both run the same :data:`repro.ops.OPS` entry.

Errors cross the wire *typed*: the server maps an exception to its
class name (:data:`ERROR_TYPES` holds the public hierarchy), the
client re-raises the matching class — unknown names degrade to
:class:`~repro.api.errors.ReproError`, never to a silent string.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro import ops
from repro.api.errors import (
    ChangeError,
    ChangeParseError,
    ConvergenceError,
    InvalidChangeError,
    ProtocolError,
    ReproError,
    SchemaError,
)
from repro.core.codec import CodecError
from repro.core.serialize import check_document, document
from repro.topology.model import TopologyError

#: Longest request frame (bytes, newline included) the server reads;
#: a longer one is answered with a ProtocolError and the connection
#: closes, since the stream cannot be resynchronised mid-frame.
MAX_FRAME_BYTES = 64 * 1024

#: Every op the service answers: the control ops plus the question
#: table of :mod:`repro.ops`; anything else is a ProtocolError.
OPS = ("ping", "stats", "shutdown", *ops.OPS)

#: Exception classes that cross the wire under their own name.
ERROR_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        ReproError,
        SchemaError,
        ConvergenceError,
        InvalidChangeError,
        ChangeError,
        ChangeParseError,
        ProtocolError,
        CodecError,
        TopologyError,
    )
}


def parse_address(address: str) -> tuple[str, str, int]:
    """``host:port`` -> ``("tcp", host, port)``; a path -> ``("unix",
    path, 0)``.  Anything else is a ProtocolError."""
    if "/" in address or address.startswith("@"):
        return ("unix", address, 0)
    host, sep, port_text = address.rpartition(":")
    if sep and host:
        try:
            return ("tcp", host, int(port_text))
        except ValueError:
            pass
    raise ProtocolError(
        f"bad service address {address!r}: expected host:port or a "
        "unix socket path (containing '/')"
    )


def encode_frame(doc: Mapping[str, Any]) -> bytes:
    """One canonical-JSON line, ready to write."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def decode_frame(line: bytes, kind: str) -> dict[str, Any]:
    """Parse and validate one received line as a ``kind`` frame."""
    try:
        data = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not JSON: {error}") from None
    if not isinstance(data, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(data).__name__}"
        )
    if kind == "response" and data.get("kind") == "error":
        # Callers expecting a response accept the error alternative;
        # raise_error_frame turns it into the typed exception.
        check_document(data, "error")
        return data
    check_document(data, kind)
    return data


def request(id: int, op: str, params: Mapping[str, Any]) -> dict[str, Any]:
    return document("request", {"id": id, "op": op, "params": dict(params)})


def response(
    id: int | None,
    op: str,
    result: Mapping[str, Any],
    cache: str | None = None,
) -> dict[str, Any]:
    return document(
        "response",
        {"id": id, "op": op, "cache": cache, "result": dict(result)},
    )


def error_frame(
    id: int | None, op: str | None, error: BaseException
) -> dict[str, Any]:
    """Map an exception onto a structured, typed error frame."""
    name = type(error).__name__
    if name not in ERROR_TYPES:
        # Internal classes degrade to the nearest public ancestor so
        # clients always get a raisable type.
        name = "ReproError" if isinstance(error, ReproError) else "ProtocolError"
    return document(
        "error",
        {
            "id": id,
            "op": op,
            "error": {"type": name, "message": str(error)},
        },
    )


def raise_error_frame(frame: Mapping[str, Any]) -> None:
    """Re-raise the typed exception an error frame carries."""
    payload = frame.get("error") or {}
    cls = ERROR_TYPES.get(payload.get("type", ""), ReproError)
    message = payload.get("message", "service error")
    try:
        exc = cls(message)
    except TypeError:
        # Classes with structured constructors (ChangeParseError takes
        # line context) still cross the wire typed: rebuild the bare
        # exception around the rendered message.
        exc = cls.__new__(cls)
        Exception.__init__(exc, message)
    raise exc


def strip_timings(doc: Any) -> Any:
    """A deep copy with every wall-clock field zeroed.

    ``timings`` maps empty; ``duration``/``wall_time`` scalars zero.
    Result documents carry no wall clock, so this only matters for
    documents that embed span payloads (their ``duration``) and for
    documents written by older builds; comparing such documents
    through this function keeps the comparison about behaviour.
    """
    if isinstance(doc, dict):
        out: dict[str, Any] = {}
        for key, value in doc.items():
            if key == "timings" and isinstance(value, dict):
                out[key] = {}
            elif key in ("duration", "wall_time") and isinstance(
                value, (int, float)
            ):
                out[key] = 0.0
            else:
                out[key] = strip_timings(value)
        return out
    if isinstance(doc, list):
        return [strip_timings(item) for item in doc]
    return doc
