"""The question-level ops: one table behind every request path.

``preview``, ``explain`` and ``campaign`` are the what-if questions
this package answers.  The daemon (:mod:`repro.service.server`),
``repro client`` and ``repro explain`` all answer them through
:data:`OPS`, so a question asked in process and over the wire is the
same code from validated params to result document:

- :func:`parse` validates a request's params under their wire names
  (bad input raises :class:`~repro.api.errors.ProtocolError`; a
  missing or ``null`` param takes its default) and parses the change
  script(s) into a :class:`Request`;
- the service's result-cache key covers every param of
  :attr:`Op.fields`: the base digest, the canonical changes, and
  :attr:`Request.params`;
- :attr:`Op.run` answers a request against a
  :class:`~repro.api.Network` and returns the versioned result
  document.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.api.errors import ProtocolError
from repro.api.explain import explain_answer
from repro.campaign.scenarios import WhatIfScenario
from repro.core.change import Change
from repro.core.change_text import parse_change_batch
from repro.core.delta import DeltaReport
from repro.core.invariants import make_invariant
from repro.core.serialize import document

if TYPE_CHECKING:
    from repro.api.network import Network

Validator = Callable[[str, Any], Any]


def _reject(name: str, want: str, value: Any) -> ProtocolError:
    return ProtocolError(
        f"request param {name!r} must be {want}, got {value!r:.40}"
    )


def _of(kind: type) -> Validator:
    """Accept values of exactly ``kind`` (so ``True`` is no int)."""

    def check(name: str, value: Any) -> Any:
        if type(value) is not kind:
            raise _reject(name, f"a {kind.__name__}", value)
        return value

    return check


def _jobs(name: str, value: Any) -> int:
    # Each job is a worker process: one frame must not be able to ask
    # for more of them than the host has CPUs.
    limit = os.cpu_count() or 1
    if type(value) is not int or not 1 <= value <= limit:
        raise _reject(name, f"an int in [1, {limit}]", value)
    return value


def _invariants(name: str, value: Any) -> list[str]:
    if type(value) is not list or not all(type(v) is str for v in value):
        raise _reject(name, "a list of invariant names", value)
    for invariant in value:
        try:  # registered, and needing no constructor arguments
            make_invariant(invariant)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"{name}: {error}") from None
    return list(value)


def _scenarios(name: str, value: Any) -> list[dict[str, str]]:
    """Canonical ``{"name", "script", "kind"}`` entries."""
    if type(value) is not list or not value:
        raise _reject(name, 'a non-empty list of {"name", "script"}', value)
    entries = []
    for index, entry in enumerate(value):
        if type(entry) is not dict or type(entry.get("script")) is not str:
            raise ProtocolError(f"{name}[{index}] needs a 'script' string")
        entries.append(
            {
                "name": str(entry.get("name") or f"scenario #{index}"),
                "script": entry["script"],
                "kind": str(entry.get("kind") or "service"),
            }
        )
    return entries


#: The default of a param a request must carry.
REQUIRED = object()

#: Every request param, by wire name: (default, validator).
FIELDS: dict[str, tuple[Any, Validator]] = {
    "script": (REQUIRED, _of(str)),
    "scenarios": (REQUIRED, _scenarios),
    "label": (None, _of(str)),
    "provenance": (False, _of(bool)),
    "edit": (None, _of(int)),
    "router": (None, _of(str)),
    "prefix": (None, _of(str)),
    "dst": (None, _of(str)),
    "invariants": ([], _invariants),
    "top": (10, _of(int)),
    "jobs": (1, _jobs),
}


@dataclass(frozen=True)
class Op:
    """One question: the wire params it takes (all covered by the
    cache key) and how it is answered."""

    name: str
    fields: tuple[str, ...]
    run: Callable[["Network", "Request"], dict[str, Any]]


@dataclass(frozen=True)
class Request:
    """A validated question: its params and what they parse to."""

    op: Op
    params: dict[str, Any]  # every field but ``script``, JSON-safe
    changes: list[Change] | None  # the parsed ``script``, if any
    scenarios: list[WhatIfScenario]  # the parsed ``scenarios``


def parse(name: str, params: Mapping[str, Any]) -> Request:
    """Validate op ``name``'s params and parse its change script(s)."""
    op = OPS[name]
    values = {}
    for field in op.fields:
        default, check = FIELDS[field]
        value = params.get(field)
        if value is None and default is REQUIRED:
            raise ProtocolError(f"request needs a {field!r} param")
        values[field] = default if value is None else check(field, value)
    changes = None
    if "script" in values:
        changes = parse_change_batch(
            values.pop("script"), label=values["label"] or "request"
        )
    scenarios = [_scenario(entry) for entry in values.get("scenarios", [])]
    return Request(op, values, changes, scenarios)


def _scenario(entry: Mapping[str, str]) -> WhatIfScenario:
    # `---` batches inside one script evaluate in one recompute pass.
    changes = parse_change_batch(entry["script"], label=entry["name"])
    combined = (
        changes[0]
        if len(changes) == 1
        else Change(
            edits=[edit for change in changes for edit in change.edits],
            label=entry["name"],
        )
    )
    return WhatIfScenario(
        name=entry["name"],
        change=combined,
        kind=entry["kind"],
        changes=tuple(changes) if len(changes) > 1 else (),
    )


def _preview(network: "Network", request: Request) -> dict[str, Any]:
    assert request.changes is not None
    return network.preview(
        request.changes,
        label=request.params["label"],
        provenance=request.params["provenance"],
    ).to_dict()


def explain(
    network: "Network", request: Request
) -> tuple[dict[str, Any], list[str], DeltaReport]:
    """Answer an ``explain`` request: ``(document, text lines, report)``.

    The change is previewed (fork-backed, never committed) with
    provenance; the report carries the provenance record the answer
    was read from.
    """
    assert request.changes is not None
    params = request.params
    report = network.preview(
        request.changes, label=params["label"], provenance=True
    )
    assert report.provenance is not None
    answer, lines = explain_answer(
        report.provenance,
        report=report,
        violations=network.check(report, params["invariants"]),
        **{key: params[key] for key in ("edit", "router", "prefix", "dst",
                                        "top")},
    )
    return document("explain-answer", answer), lines, report


def _campaign(network: "Network", request: Request) -> dict[str, Any]:
    params = request.params
    return network.campaign(
        request.scenarios,
        jobs=params["jobs"],
        invariants=params["invariants"],
        label=params["label"] or "",
        provenance=params["provenance"],
    ).to_dict()


#: The question-level ops, by name.
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        Op("preview", ("script", "label", "provenance"), _preview),
        Op(
            "explain",
            ("script", "label", "edit", "router", "prefix", "dst",
             "invariants", "top"),
            lambda network, request: explain(network, request)[0],
        ),
        Op(
            "campaign",
            ("scenarios", "invariants", "jobs", "label", "provenance"),
            _campaign,
        ),
    )
}
