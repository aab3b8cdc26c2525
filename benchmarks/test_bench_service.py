"""The codec beats raw pickle.

Campaign workers and service startup ship converged bases around; the
chunked container (canonical text + compressed pickle) must be smaller
than the raw pickle it replaced.  Acceptance: ``dumps_base`` payload <
raw pickle payload.  (That a warm cache hit never re-enters the
pipeline is asserted in ``tests/test_service.py``.)
"""

from __future__ import annotations

import pickle

from repro.bench.harness import Table
from repro.core import codec


def test_codec_payload_smaller_than_pickle(fat_tree6_analyzer):
    data = codec.dumps_base(fat_tree6_analyzer)
    raw = pickle.dumps(fat_tree6_analyzer, protocol=pickle.HIGHEST_PROTOCOL)

    table = Table(
        "converged base payload (fat-tree k=6)",
        ["bytes", "vs_pickle"],
    )
    table.add("raw pickle", bytes=len(raw), vs_pickle=1.0)
    table.add("codec container", bytes=len(data),
              vs_pickle=len(data) / len(raw))
    print()
    print(table.render())

    assert len(data) < len(raw), (
        f"codec container ({len(data)}B) must beat raw pickle "
        f"({len(raw)}B)"
    )
    # The container stays honest: digest-verified and self-describing.
    sizes = codec.describe(data)
    assert codec.CHUNK_BASE in sizes and codec.CHUNK_TOPOLOGY in sizes
