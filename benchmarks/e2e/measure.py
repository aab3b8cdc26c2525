"""Clocks, percentiles and the closed request loop.

Everything here is about *how* a workload is measured, nothing about
what it does: wall clock per request, CPU and peak RSS over the
generator process, its reaped children and any daemon it spawned, and
the closed loop that sends a client's next request only after the
previous one returned.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from workloads import Workload

_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_KIB = 1024  # ru_maxrss and VmHWM are both in KiB on Linux


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def cpu_seconds(daemon_pids: Sequence[int] = ()) -> float:
    """User+sys CPU so far: this process, children already waited
    for (campaign pool workers), and live daemons (from /proc, because
    a child's CPU reaches RUSAGE_CHILDREN only once it has exited)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in daemon_pids:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the whole line.
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mib(daemon_pids: Sequence[int] = ()) -> float:
    """Highest resident set any measured process reached, in MiB."""
    peaks = [
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    for pid in daemon_pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]))
    return max(peaks) / _PAGE_KIB


@dataclass
class Window:
    """One slice of a closed-loop phase, cut at request boundaries."""

    latencies: list[float]  # seconds, requests that returned
    wall: float
    cpu: float


@dataclass
class Measurement:
    """One closed-loop phase: per-request latencies and its totals."""

    latencies: list[float] = field(default_factory=list)  # seconds, ok only
    kinds: list[str] = field(default_factory=list)  # parallel to latencies
    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss: float = 0.0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def closed_loop(
    workload: "Workload",
    seconds: float,
    first: int = 0,
    limit: int | None = None,
    windows: int = 1,
) -> Measurement:
    """Run every client's closed loop for ``seconds`` (or ``limit``
    requests per client), starting at request index ``first``.

    The phase is cut into ``windows`` slices of equal length: client 0
    reads the clocks after the first of its requests to end past each
    boundary, and every request is counted in the slice it ended in.
    """
    out = Measurement()
    daemons = workload.daemon_pids()
    start = time.perf_counter()
    deadline = start + seconds
    edges = [(start, cpu_seconds(daemons))]  # (wall clock, CPU so far)
    done: list[list[tuple[float, float, str]]] = [[] for _ in range(workload.clients)]
    attempted = [0] * workload.clients
    failures: list[list[str]] = [[] for _ in range(workload.clients)]

    def client_loop(client: int) -> None:
        index = first
        while time.perf_counter() < deadline and (
            limit is None or attempted[client] < limit
        ):
            if not workload.has_request(client, index):
                break
            attempted[client] += 1
            begin = time.perf_counter()
            try:
                kind = workload.request(client, index)
            except Exception as error:  # a request that raises is a failed request
                failures[client].append(f"request {client}/{index}: {error!r}")
            else:
                end = time.perf_counter()
                done[client].append((end, end - begin, kind))
                if (
                    client == 0
                    and len(edges) < windows
                    and end >= start + len(edges) * seconds / windows
                ):
                    edges.append((end, cpu_seconds(daemons)))
            index += 1

    if workload.clients == 1:
        client_loop(0)
    else:
        threads = [
            threading.Thread(target=client_loop, args=(client,))
            for client in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    edges.append((time.perf_counter(), cpu_seconds(daemons)))
    out.peak_rss = peak_rss_mib(daemons)
    out.attempted = sum(attempted)
    for messages in failures:
        for message in messages:
            out.fail(message)
    samples = sorted(sample for per_client in done for sample in per_client)
    out.latencies = [latency for _, latency, _ in samples]
    out.kinds = [kind for _, _, kind in samples]
    for (begin, cpu_begin), (end, cpu_end) in zip(edges, edges[1:]):
        inside = [latency for ended, latency, _ in samples if begin < ended <= end]
        if inside:
            out.windows.append(Window(inside, end - begin, cpu_end - cpu_begin))
    return out
