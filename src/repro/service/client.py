"""The blocking service client behind ``Network.connect()``.

Speaks the newline-delimited versioned-JSON frame protocol over a
plain socket and decodes results into the same typed objects the
in-process facade returns — a caller migrating from ``Network.load``
to ``Network.connect`` keeps its downstream code unchanged::

    with Network.connect("127.0.0.1:7421") as remote:
        report = remote.preview("link down agg0_0 core0")
        answer = remote.explain("link down agg0_0 core0", edit=0)
        stats = remote.stats()

Error frames re-raise as the typed exceptions of
:mod:`repro.api.errors` — a malformed script raises
``ChangeParseError`` on the client exactly as it would in process.
"""

from __future__ import annotations

import socket
from typing import Any, Mapping, Sequence

from repro.api.errors import ProtocolError
from repro.campaign.report import CampaignReport
from repro.core.change import Change
from repro.core.change_text import serialize_change_batch
from repro.core.delta import DeltaReport
from repro.service import protocol

ScriptLike = str | Change | Sequence[Change]


def _as_script(changes: ScriptLike) -> str:
    """Accept a script string, a Change, or a sequence of Changes."""
    if isinstance(changes, str):
        return changes
    if isinstance(changes, Change):
        return serialize_change_batch([changes])
    return serialize_change_batch(list(changes))


class ServiceClient:
    """One connection to a running what-if service."""

    def __init__(self, sock: socket.socket, address: str) -> None:
        self.address = address
        self._socket = sock
        self._reader = sock.makefile("rb")
        self._next_id = 0
        self.last_cache: str | None = None

    @classmethod
    def connect(cls, address: str, timeout: float = 30.0) -> "ServiceClient":
        """Open a client against ``host:port`` or a Unix socket path."""
        kind, host, port = protocol.parse_address(address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(host)
        else:
            sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock, address)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the frame round trip ------------------------------------------------

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """One op round trip; returns the raw result document.

        Raises the typed exception of an error frame;
        :attr:`last_cache` records the response's cache disposition
        (``"hit"``/``"miss"``/``None``).
        """
        self._next_id += 1
        request_id = self._next_id
        self._socket.sendall(
            protocol.encode_frame(protocol.request(request_id, op, params))
        )
        line = self._reader.readline()
        if not line:
            raise ProtocolError("service closed the connection mid-request")
        frame = protocol.decode_frame(line, "response")
        if frame["kind"] == "error":
            protocol.raise_error_frame(frame)
        if frame.get("id") != request_id:
            raise ProtocolError(
                f"response id {frame.get('id')!r} does not match "
                f"request id {request_id}"
            )
        self.last_cache = frame.get("cache")
        result = frame.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("response frame carries no result document")
        return result

    # -- typed ops -----------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to stop serving (the reply is the last frame)."""
        return self.request("shutdown")

    def preview(
        self,
        changes: ScriptLike,
        label: str | None = None,
        provenance: bool = False,
    ) -> DeltaReport:
        """Fork-backed what-if against the service's base.

        ``changes`` is a change-script string, a :class:`Change`, or a
        sequence of Changes (serialized over the wire as a script).
        The report matches in-process ``Network.preview``.
        """
        result = self.request(
            "preview",
            script=_as_script(changes),
            label=label,
            provenance=provenance,
        )
        return DeltaReport.from_dict(result)

    def analyze_batch(
        self,
        changes: ScriptLike,
        label: str | None = None,
        provenance: bool = False,
    ) -> DeltaReport:
        """Batch analysis (fork-backed server-side; the shared base
        never advances)."""
        result = self.request(
            "analyze_batch",
            script=_as_script(changes),
            label=label,
            provenance=provenance,
        )
        return DeltaReport.from_dict(result)

    def campaign(
        self,
        scenarios: Sequence[Mapping[str, str]],
        jobs: int = 1,
        invariants: Sequence[str] = (),
        label: str | None = None,
        provenance: bool = False,
    ) -> CampaignReport:
        """Evaluate explicit scenarios (``{"name", "script"}`` each)
        against the service's base."""
        result = self.request(
            "campaign",
            scenarios=[dict(entry) for entry in scenarios],
            jobs=jobs,
            invariants=list(invariants),
            label=label,
            provenance=provenance,
        )
        return CampaignReport.from_dict(result)

    def explain(
        self,
        changes: ScriptLike,
        edit: int | None = None,
        router: str | None = None,
        prefix: str | None = None,
        dst: str | None = None,
        invariants: Sequence[str] = (),
        top: int = 10,
        label: str | None = None,
    ) -> dict[str, Any]:
        """Causality queries over a provenance-enabled preview."""
        return self.request(
            "explain",
            script=_as_script(changes),
            edit=edit,
            router=router,
            prefix=prefix,
            dst=dst,
            invariants=list(invariants),
            top=top,
            label=label,
        )

    def __repr__(self) -> str:
        return f"ServiceClient({self.address!r})"
