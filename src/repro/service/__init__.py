"""The always-on what-if service: one hot base, many callers.

Every caller used to pay full session construction and convergence per
process.  This package turns the :class:`repro.api.Network` facade
into a long-lived daemon (``repro serve``) that converges one base and
serves concurrent ``preview``/``analyze_batch``/``campaign``/
``explain`` requests over TCP or a Unix socket:

- :mod:`repro.service.protocol` — newline-delimited versioned-JSON
  frames (``request``/``response``/``error`` kinds riding the
  :mod:`repro.core.serialize` document conventions); typed errors map
  to structured error frames and back.
- :mod:`repro.service.cache` — the digest-keyed LRU result cache:
  ``(snapshot digest, change digest, options digest)`` -> canonical
  result document, invalidated wholesale when the base's generation
  moves.
- :mod:`repro.service.server` — the asyncio daemon.  Request
  *analysis* is fork-backed against the shared converged analyzer
  (PR-1 journal) and serialized by one lock — forks do not nest — so
  overlapping requests are isolated and byte-identical to serial
  evaluation, while cache hits, stats, and socket I/O stay fully
  concurrent.
- :mod:`repro.service.client` — the blocking client
  (``Network.connect()`` / ``repro client``) speaking the same frames
  and decoding the same versioned documents.

Responses are deterministic by construction: result documents carry
no wall clock (latency lives only in server spans), which is what lets
a cache hit be byte-identical to the cold miss that populated it.
"""

from repro.service.cache import ResultCache, change_digest, options_digest
from repro.service.client import ServiceClient
from repro.service.server import ReproService

__all__ = [
    "ReproService",
    "ResultCache",
    "ServiceClient",
    "change_digest",
    "options_digest",
]
