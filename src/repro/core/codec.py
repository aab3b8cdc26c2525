"""Chunked binary snapshot codec: the unit shipped between machines.

Campaign workers and the what-if service used to receive the converged
base as a raw pickle — opaque, uncompressed, and unverifiable.  This
module defines a compact, self-describing container in the spirit of
chunked instrument formats (length-prefixed typed chunks behind a
fixed header carrying a content digest):

``header``
    ``magic (4s) | codec version (u16) | chunk count (u16) |
    digest (32B sha-256)`` — the digest covers every chunk's *tag and
    uncompressed payload*, so it identifies the content independently
    of compression level and is what result caches key on.

``chunk``
    ``tag (4s ascii) | flags (u8, bit0 = zlib) | length (u32) |
    payload`` — chunks are skippable by readers that do not know the
    tag, which is what makes the container self-describing and
    forward-extensible.

Standard chunks: ``topo`` and ``cfgs`` hold the snapshot's canonical
text forms (zlib-compressed); ``base`` optionally carries the
converged analyzer (compressed pickle) so workers skip re-simulation.
``loads``/``loads_base`` verify the digest before parsing — a
truncated or corrupted payload raises :class:`CodecError`, never a
half-built snapshot.

``dumps(snapshot)`` / ``loads(data)`` move snapshots; ``dumps_base`` /
``loads_base`` move warm analyzers (falling back to re-convergence
when only snapshot chunks are present); :func:`snapshot_digest` is the
stable content key the service result cache uses.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import ReproError
from repro.core.snapshot import (
    Snapshot,
    parse_topology,
    serialize_topology,
)
from repro.config.text import parse_configs, serialize_configs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analyzer import DifferentialNetworkAnalyzer

MAGIC = b"RNS1"
CODEC_VERSION = 1

_HEADER = struct.Struct(">4sHH32s")
_CHUNK_HEAD = struct.Struct(">4sBI")

_FLAG_ZLIB = 0x01

# Payloads below this stay uncompressed: the zlib header would cost
# more than it saves and decompression is pure overhead.
_COMPRESS_THRESHOLD = 64

CHUNK_TOPOLOGY = "topo"
CHUNK_CONFIGS = "cfgs"
CHUNK_BASE = "base"


class CodecError(ReproError, ValueError):
    """A binary container is malformed, truncated, or corrupted."""


def _content_digest(chunks: Iterable[tuple[str, bytes]]) -> bytes:
    """sha-256 over (tag, raw payload) pairs — compression-invariant."""
    hasher = hashlib.sha256()
    for tag, payload in chunks:
        hasher.update(tag.encode("ascii"))
        hasher.update(struct.pack(">I", len(payload)))
        hasher.update(payload)
    return hasher.digest()


def encode_chunks(chunks: list[tuple[str, bytes]]) -> bytes:
    """Pack (tag, payload) pairs into one digested container."""
    parts = [_HEADER.pack(MAGIC, CODEC_VERSION, len(chunks),
                          _content_digest(chunks))]
    for tag, payload in chunks:
        raw = tag.encode("ascii")
        if len(raw) != 4:
            raise CodecError(f"chunk tag must be 4 ascii bytes, got {tag!r}")
        flags = 0
        stored = payload
        if len(payload) >= _COMPRESS_THRESHOLD:
            packed = zlib.compress(payload, 6)
            if len(packed) < len(payload):
                flags |= _FLAG_ZLIB
                stored = packed
        parts.append(_CHUNK_HEAD.pack(raw, flags, len(stored)))
        parts.append(stored)
    return b"".join(parts)


def decode_chunks(data: bytes) -> list[tuple[str, bytes]]:
    """Unpack a container, verifying magic, version, and digest."""
    if len(data) < _HEADER.size:
        raise CodecError("container shorter than its header")
    magic, version, count, digest = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported codec version {version} "
            f"(this build reads version {CODEC_VERSION})"
        )
    offset = _HEADER.size
    chunks: list[tuple[str, bytes]] = []
    for _ in range(count):
        if offset + _CHUNK_HEAD.size > len(data):
            raise CodecError("truncated chunk header")
        raw, flags, length = _CHUNK_HEAD.unpack_from(data, offset)
        try:
            tag = raw.decode("ascii")
        except UnicodeDecodeError:
            raise CodecError(f"non-ASCII chunk tag {raw!r}") from None
        offset += _CHUNK_HEAD.size
        if offset + length > len(data):
            raise CodecError(f"truncated {tag!r} chunk")
        stored = data[offset:offset + length]
        offset += length
        if flags & _FLAG_ZLIB:
            try:
                payload = zlib.decompress(stored)
            except zlib.error as error:
                raise CodecError(f"corrupt {tag!r} chunk: {error}") from None
        else:
            payload = stored
        chunks.append((tag, payload))
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after chunks")
    if _content_digest(chunks) != digest:
        raise CodecError("content digest mismatch (payload corrupted)")
    return chunks


def describe(data: bytes) -> dict[str, int]:
    """Tag -> uncompressed payload size, for logs and tests."""
    return {tag: len(payload) for tag, payload in decode_chunks(data)}


def container_digest(data: bytes) -> str:
    """The hex content digest straight from a container's header."""
    if len(data) < _HEADER.size:
        raise CodecError("container shorter than its header")
    magic, _, _, digest = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (expected {MAGIC!r})")
    return digest.hex()


# -- snapshots --------------------------------------------------------------


def _snapshot_chunks(snapshot: Snapshot) -> list[tuple[str, bytes]]:
    return [
        (CHUNK_TOPOLOGY, serialize_topology(snapshot.topology).encode()),
        (CHUNK_CONFIGS, serialize_configs(snapshot.configs).encode()),
    ]


def dumps(snapshot: Snapshot) -> bytes:
    """Encode a snapshot as a digested chunk container."""
    return encode_chunks(_snapshot_chunks(snapshot))


def loads(data: bytes) -> Snapshot:
    """Decode a snapshot container (digest-verified)."""
    chunks = dict(decode_chunks(data))
    try:
        topology_text = chunks[CHUNK_TOPOLOGY].decode()
        configs_text = chunks[CHUNK_CONFIGS].decode()
    except KeyError as error:
        raise CodecError(f"missing {error.args[0]!r} chunk") from None
    return Snapshot(
        topology=parse_topology(topology_text),
        configs=parse_configs(configs_text),
    )


def snapshot_digest(snapshot: Snapshot) -> str:
    """Stable hex content key of a snapshot (no container needed).

    Equal to :func:`container_digest` of ``dumps(snapshot)`` — the
    service result cache and the campaign payload cache key on it.
    """
    return _content_digest(_snapshot_chunks(snapshot)).hex()


# -- converged bases --------------------------------------------------------


def dumps_base(analyzer: "DifferentialNetworkAnalyzer") -> bytes:
    """Encode a converged analyzer: snapshot chunks + ``base`` chunk.

    The ``base`` chunk carries the warm analyzer (pickle, compressed
    by the chunk layer) so receivers skip re-simulation; the snapshot
    chunks ride along, making the payload self-describing — a reader
    that cannot unpickle (version skew) still gets the exact snapshot
    to re-converge from.
    """
    chunks = _snapshot_chunks(analyzer.snapshot)
    chunks.append(
        (CHUNK_BASE, pickle.dumps(analyzer, protocol=pickle.HIGHEST_PROTOCOL))
    )
    return encode_chunks(chunks)


def loads_base(data: bytes) -> "DifferentialNetworkAnalyzer":
    """Decode a converged base, re-simulating only when it must.

    With a ``base`` chunk the warm analyzer is rebuilt directly; a
    snapshot-only container falls back to one fresh convergence.
    """
    from repro.core.analyzer import DifferentialNetworkAnalyzer

    chunks = dict(decode_chunks(data))
    if CHUNK_BASE in chunks:
        analyzer = pickle.loads(chunks[CHUNK_BASE])
        if not isinstance(analyzer, DifferentialNetworkAnalyzer):
            raise CodecError(
                f"'base' chunk holds {type(analyzer).__name__}, "
                "not a converged analyzer"
            )
        return analyzer
    return DifferentialNetworkAnalyzer(loads(data))
