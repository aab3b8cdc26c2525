"""The chunked binary snapshot codec: round trips, digests, tampering.

Acceptance: ``loads(dumps(snapshot))`` reproduces the snapshot's
canonical text forms byte-for-byte; the codec payload is smaller than
a raw pickle of the same base; corruption raises :class:`CodecError`
instead of producing a half-built snapshot.
"""

import pickle
import struct

import pytest

from repro.config.text import serialize_configs
from repro.core import codec
from repro.core.analyzer import DifferentialNetworkAnalyzer
from repro.core.change import Change, LinkDown
from repro.core.errors import ReproError
from repro.core.snapshot import serialize_topology
from repro.workloads.scenarios import fat_tree_ospf, ring_ospf


@pytest.fixture(scope="module")
def ring6():
    return ring_ospf(6)


class TestChunkContainer:
    def test_round_trip(self):
        chunks = [("aaaa", b"x" * 1000), ("bbbb", b"tiny"), ("cccc", b"")]
        data = codec.encode_chunks(chunks)
        assert codec.decode_chunks(data) == chunks

    def test_compression_is_transparent(self):
        # Highly repetitive payload compresses; decode restores it.
        chunks = [("blob", b"abc" * 10_000)]
        data = codec.encode_chunks(chunks)
        assert len(data) < 30_000
        assert codec.decode_chunks(data) == chunks

    def test_digest_is_compression_invariant(self):
        big = [("blob", b"abc" * 10_000)]
        small = [("blob", b"x")]  # below the compression threshold
        assert codec.container_digest(
            codec.encode_chunks(big)
        ) != codec.container_digest(codec.encode_chunks(small))
        # Same content -> same digest, every time.
        assert codec.container_digest(
            codec.encode_chunks(big)
        ) == codec.container_digest(codec.encode_chunks(big))

    def test_bad_magic_rejected(self):
        with pytest.raises(codec.CodecError, match="bad magic"):
            codec.decode_chunks(b"NOPE" + b"\x00" * 40)

    def test_truncation_rejected(self):
        data = codec.encode_chunks([("aaaa", b"y" * 500)])
        with pytest.raises(codec.CodecError, match="truncated"):
            codec.decode_chunks(data[:-10])

    def test_corruption_rejected(self):
        data = bytearray(codec.encode_chunks([("aaaa", b"z" * 10)]))
        data[-1] ^= 0xFF  # flip a payload byte (uncompressed chunk)
        with pytest.raises(codec.CodecError, match="digest mismatch"):
            codec.decode_chunks(bytes(data))

    def test_trailing_bytes_rejected(self):
        data = codec.encode_chunks([("aaaa", b"q")])
        with pytest.raises(codec.CodecError, match="trailing bytes"):
            codec.decode_chunks(data + b"junk")

    def test_version_skew_rejected(self):
        data = bytearray(codec.encode_chunks([("aaaa", b"q")]))
        struct.pack_into(">H", data, 4, codec.CODEC_VERSION + 1)
        with pytest.raises(codec.CodecError, match="codec version"):
            codec.decode_chunks(bytes(data))

    def test_codec_error_is_a_repro_error(self):
        assert issubclass(codec.CodecError, ReproError)
        assert issubclass(codec.CodecError, ValueError)

    def test_short_container_rejected(self):
        # Shorter than the fixed header: both entry points refuse.
        for short in (b"", b"RNS1", b"RNS1" + b"\x00" * 20):
            with pytest.raises(codec.CodecError, match="shorter than"):
                codec.decode_chunks(short)
            with pytest.raises(codec.CodecError, match="shorter than"):
                codec.container_digest(short)

    def test_container_digest_checks_magic(self):
        with pytest.raises(codec.CodecError, match="bad magic"):
            codec.container_digest(b"NOPE" + b"\x00" * 40)

    def test_chunk_count_overstatement_rejected(self):
        # Header promises one more chunk than the body carries.
        data = bytearray(codec.encode_chunks([("aaaa", b"q")]))
        struct.pack_into(">H", data, 6, 2)
        with pytest.raises(codec.CodecError, match="truncated chunk header"):
            codec.decode_chunks(bytes(data))

    def test_chunk_count_understatement_rejected(self):
        # Header promises one fewer: the orphaned chunk is trailing junk.
        data = bytearray(
            codec.encode_chunks([("aaaa", b"q"), ("bbbb", b"r")])
        )
        struct.pack_into(">H", data, 6, 1)
        with pytest.raises(codec.CodecError, match="trailing bytes"):
            codec.decode_chunks(bytes(data))

    def test_flags_mismatch_rejected(self):
        # The zlib flag set on a chunk stored raw: inflate fails, and
        # the reader reports the corrupt chunk instead of guessing.
        data = bytearray(codec.encode_chunks([("aaaa", b"q")]))
        flags_offset = codec._HEADER.size + 4  # after the 4-byte tag
        assert data[flags_offset] == 0
        data[flags_offset] |= codec._FLAG_ZLIB
        with pytest.raises(codec.CodecError, match="corrupt 'aaaa' chunk"):
            codec.decode_chunks(bytes(data))

    def test_compressed_chunk_corruption_rejected(self):
        # Flip a byte inside a zlib-compressed payload body.
        data = bytearray(codec.encode_chunks([("blob", b"abc" * 10_000)]))
        data[-2] ^= 0xFF
        with pytest.raises(codec.CodecError, match="corrupt|digest"):
            codec.decode_chunks(bytes(data))

    def test_bad_tag_rejected_at_encode(self):
        with pytest.raises(codec.CodecError, match="4 ascii bytes"):
            codec.encode_chunks([("toolong", b"q")])


class TestSnapshotCodec:
    def test_round_trip_is_text_identical(self, ring6):
        data = codec.dumps(ring6.snapshot)
        rebuilt = codec.loads(data)
        assert serialize_topology(rebuilt.topology) == serialize_topology(
            ring6.snapshot.topology
        )
        assert serialize_configs(rebuilt.configs) == serialize_configs(
            ring6.snapshot.configs
        )

    def test_describe_names_the_standard_chunks(self, ring6):
        sizes = codec.describe(codec.dumps(ring6.snapshot))
        assert set(sizes) == {codec.CHUNK_TOPOLOGY, codec.CHUNK_CONFIGS}
        assert all(size > 0 for size in sizes.values())

    def test_snapshot_digest_matches_container_header(self, ring6):
        assert codec.snapshot_digest(ring6.snapshot) == (
            codec.container_digest(codec.dumps(ring6.snapshot))
        )

    def test_snapshot_digest_tracks_content(self, ring6):
        other = ring_ospf(8)
        assert codec.snapshot_digest(ring6.snapshot) != (
            codec.snapshot_digest(other.snapshot)
        )

    def test_unknown_chunk_is_skippable(self, ring6):
        # Self-describing container: readers ignore tags they don't
        # know, so a future writer can add chunks without breaking us.
        chunks = codec.decode_chunks(codec.dumps(ring6.snapshot))
        chunks.append(("futr", b"from a newer writer"))
        rebuilt = codec.loads(codec.encode_chunks(chunks))
        assert serialize_topology(rebuilt.topology) == serialize_topology(
            ring6.snapshot.topology
        )

    def test_every_single_bit_flip_is_rejected_or_harmless(self):
        # Flip each bit of a fat-tree container in turn.  A flip either
        # raises CodecError or decodes to the same snapshot: unused flag
        # bits and deflate padding carry no content.
        snapshot = fat_tree_ospf(4).snapshot
        data = codec.dumps(snapshot)
        digest = codec.snapshot_digest(snapshot)
        harmless = 0
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                decoded = codec.loads(bytes(flipped))
            except codec.CodecError:
                continue
            assert codec.snapshot_digest(decoded) == digest, f"bit {bit}"
            harmless += 1
        assert harmless > 0

    def test_missing_standard_chunk_rejected(self, ring6):
        chunks = codec.decode_chunks(codec.dumps(ring6.snapshot))
        only_topo = [c for c in chunks if c[0] == codec.CHUNK_TOPOLOGY]
        with pytest.raises(codec.CodecError, match="missing 'cfgs' chunk"):
            codec.loads(codec.encode_chunks(only_topo))


class TestBaseCodec:
    def test_warm_base_round_trip_preserves_what_if(self, ring6):
        analyzer = DifferentialNetworkAnalyzer(ring6.snapshot.clone())
        data = codec.dumps_base(analyzer)
        rebuilt = codec.loads_base(data)
        assert rebuilt.generation == analyzer.generation
        change = Change(edits=[LinkDown("r0", "r1")], label="probe")
        expected = analyzer.what_if(change)
        actual = rebuilt.what_if(change)
        assert actual.behavior_signature() == expected.behavior_signature()

    def test_codec_payload_beats_raw_pickle(self, ring6):
        analyzer = DifferentialNetworkAnalyzer(ring6.snapshot.clone())
        data = codec.dumps_base(analyzer)
        raw = pickle.dumps(analyzer, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(data) < len(raw)

    def test_snapshot_only_container_reconverges(self, ring6):
        data = codec.dumps(ring6.snapshot)
        rebuilt = codec.loads_base(data)
        assert isinstance(rebuilt, DifferentialNetworkAnalyzer)
        # A snapshot-only container converges fresh at construction.
        assert rebuilt.state.ribs

    def test_base_chunk_type_is_checked(self, ring6):
        chunks = codec.decode_chunks(codec.dumps(ring6.snapshot))
        chunks.append((codec.CHUNK_BASE, pickle.dumps({"not": "analyzer"})))
        data = codec.encode_chunks(chunks)
        with pytest.raises(codec.CodecError, match="not a converged"):
            codec.loads_base(data)
