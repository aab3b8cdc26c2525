"""J1 — fork safety: analyzer-state mutations must be journaled.

``what_if``/``fork()`` rely on :class:`repro.core.forking.UndoJournal`
holding a before-image of every piece of converged state a pass
mutates.  A mutation that bypasses its ``save_*`` call does not fail
the pass — it silently corrupts the base for **every subsequent
fork**, which is exactly the class of bug dynamic tests miss (they
only catch it if some later test forks over the same state).

This checker is the race-detector analog for that discipline.  Within
the analyzer orbit (``repro.core.analyzer``/``handlers``/``pipeline``,
the recompute stages in ``repro.core.stages`` and
``repro.controlplane``) it resolves, per function, which local
names alias analyzer-owned state (``state = analyzer.state``,
``rib = state.ribs[router]``, tuple-unpacked loop aliases, …) and
flags:

- attribute writes, subscript writes, and mutating method calls on a
  protected structure with no matching ``UndoJournal.save_*`` call at
  an earlier line of the same function (before-image captures must
  precede the mutation);
- calls to append-log-journaled operations (ACL interval structure,
  span invalidation, reachability purge/restore) whose matching
  ``record_*`` call is absent from the function entirely (append logs
  may be recorded after the fact).

Ownership is rooted at the analyzer object: only functions that
receive the analyzer (an ``analyzer`` parameter, a stage's ``ctx``
pass context, or ``self`` on the analyzer/pipeline/pass classes) are
in contract — initial convergence code
that builds raw state before any fork can exist is exempt by
construction, as are ``__init__`` and the rollback paths themselves.
"""

from __future__ import annotations

import ast

from repro.lint.base import Finding, FunctionInfo, Project, iter_functions, rule

SCOPE = (
    "repro/core/analyzer.py",
    "repro/core/handlers.py",
    "repro/core/pipeline.py",
    "repro/core/stages/",
    "repro/controlplane/",
)

# Classes whose ``self`` is (or owns) the analyzer.
ANALYZER_CLASSES = {"DifferentialNetworkAnalyzer", "RecomputePipeline", "Pass"}

# Parameters that are (or own) the analyzer: handlers take the
# analyzer itself, recompute stages the pass context.
ANALYZER_PARAMS = {"analyzer", "ctx"}

# Functions exempt from the contract: construction and the journal's
# own rollback machinery.
EXEMPT = {"__init__", "__post_init__"}

Path_ = tuple[str, ...]

# Protected analyzer-state attributes -> the journal method that must
# capture the before-image *before* the mutation.
STATE_GUARDS: dict[str, str] = {
    "ribs": "save_rib_prefix",
    "ospf_routes": "save_ospf_routes",
    "connected": "save_route_cache",
    "statics": "save_route_cache",
    "bgp_sessions": "save_sessions",
    "bgp_solutions": "save_bgp_solution",
    "backbone_adverts": "save_backbone",
    "backbone_totals_map": "save_backbone",
    "fibs": "save_fib_entry",
    "_origins": "save_origins",
}

# (structure, method) -> (journal method, must_precede).  Append-log
# journal entries (``record_*``) may be written after the mutation —
# the journal replays them, it does not restore a before-image.
METHOD_GUARDS: dict[tuple[str, str], tuple[str, bool]] = {
    ("dataplane", "update_fib_entry"): ("save_fib_entry", True),
    ("dataplane", "acl_interval_structure"): ("record_acl_structure", False),
    ("dataplane", "invalidate_span"): ("record_acl_span", False),
    ("igp", "set_route"): ("save_igp_route", True),
    ("reachability", "purge_overlapping"): ("record_reachability", False),
    ("reachability", "restore"): ("record_reachability", False),
}

# Methods that mutate a protected container in place.
CONTAINER_MUTATORS = {
    "install", "withdraw", "pop", "popitem", "clear", "update",
    "setdefault", "append", "extend", "add", "remove", "discard",
}

# Accessors that return the container (or a view that mutates it), so
# aliases bound through them keep the protected path.
TRANSPARENT_ACCESSORS = {"get", "setdefault", "items", "values", "keys"}


def _in_scope(rel: str) -> bool:
    return any(rel == s or rel.startswith(s) for s in SCOPE)


class _FunctionAnalysis:
    """Alias resolution + mutation/journal detection for one function."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.env: dict[str, set[Path_]] = {}
        node = info.node
        if info.class_name in ANALYZER_CLASSES:
            self.env["self"] = {("analyzer",)}
        for arg in node.args.args + node.args.kwonlyargs:
            if arg.arg in ANALYZER_PARAMS:
                self.env[arg.arg] = {("analyzer",)}

    # -- alias resolution ---------------------------------------------------

    def resolve(self, node: ast.AST) -> set[Path_]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            out: set[Path_] = set()
            for path in self.resolve(node.value):
                if node.attr == "analyzer" and path == ("analyzer",):
                    out.add(path)  # pipeline's self.analyzer is the root
                else:
                    out.add(path + (node.attr,))
            return out
        if isinstance(node, ast.Subscript):
            return self.resolve(node.value)
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in TRANSPARENT_ACCESSORS
            ):
                return self.resolve(node.func.value)
            return set()
        return set()

    def bind(self) -> None:
        """Collect alias bindings (flow-insensitive, to a fixpoint)."""
        for _ in range(3):
            before = {name: set(paths) for name, paths in self.env.items()}
            for node in ast.walk(self.info.node):
                if isinstance(node, ast.Assign):
                    paths = self.resolve(node.value)
                    if paths:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self.env.setdefault(target.id, set()).update(
                                    paths
                                )
                elif isinstance(node, ast.For):
                    self._bind_for(node)
            if self.env == before:
                break

    def _bind_for(self, node: ast.For) -> None:
        target, source = node.target, node.iter
        if isinstance(target, ast.Name):
            paths = self.resolve(source)
            if paths:
                self.env.setdefault(target.id, set()).update(paths)
            return
        if not isinstance(target, ast.Tuple):
            return
        names = [
            elt.id if isinstance(elt, ast.Name) else None
            for elt in target.elts
        ]
        if isinstance(source, (ast.Tuple, ast.List)):
            # for a, b, c in ((x, y, state.connected), ...): bind
            # position-wise through each literal element tuple.
            for elt in source.elts:
                if not isinstance(elt, ast.Tuple):
                    continue
                for name, expr in zip(names, elt.elts):
                    if name is None:
                        continue
                    paths = self.resolve(expr)
                    if paths:
                        self.env.setdefault(name, set()).update(paths)
            return
        # for k, v in <protected>.items(): both names may alias content.
        paths = self.resolve(source)
        if paths:
            for name in names:
                if name is not None:
                    self.env.setdefault(name, set()).update(paths)

    # -- journal calls ------------------------------------------------------

    def journal_lines(self) -> dict[str, int]:
        """journal method -> earliest line it is called in the function."""
        lines: dict[str, int] = {}
        for node in ast.walk(self.info.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            if not (
                method.startswith("save_")
                or method.startswith("record_")
                or method == "before_edit"
            ):
                continue
            if any(
                "_journal" in path or "journal" in path
                for path in self.resolve(node.func.value)
            ) or (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("journal", "_journal")
            ):
                lines[method] = min(
                    lines.get(method, node.lineno), node.lineno
                )
        return lines

    # -- mutation detection -------------------------------------------------

    def mutations(self) -> list[tuple[int, str, str, bool]]:
        """Every protected mutation: (line, what, journal method, precede)."""
        found: list[tuple[int, str, str, bool]] = []
        for node in ast.walk(self.info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    found.extend(self._target_mutation(target))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    found.extend(self._target_mutation(target))
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                found.extend(self._call_mutation(node))
        return found

    def _governing(self, paths: set[Path_]) -> set[str]:
        """The innermost protected attribute on each resolved path."""
        keys = set()
        protected = set(STATE_GUARDS) | {s for s, _m in METHOD_GUARDS}
        for path in paths:
            for attr in reversed(path):
                if attr in protected:
                    keys.add(attr)
                    break
        return keys

    def _target_mutation(
        self, target: ast.AST
    ) -> list[tuple[int, str, str, bool]]:
        out: list[tuple[int, str, str, bool]] = []
        if isinstance(target, ast.Attribute):
            guard = STATE_GUARDS.get(target.attr)
            if guard is not None and self.resolve(target.value):
                out.append(
                    (target.lineno, f"write to .{target.attr}", guard, True)
                )
        elif isinstance(target, ast.Subscript):
            for key in self._governing(self.resolve(target.value)):
                guard = STATE_GUARDS.get(key)
                if guard is not None:
                    out.append(
                        (target.lineno, f"item write on .{key}", guard, True)
                    )
        return out

    def _call_mutation(
        self, node: ast.Call
    ) -> list[tuple[int, str, str, bool]]:
        assert isinstance(node.func, ast.Attribute)
        method = node.func.attr
        out: list[tuple[int, str, str, bool]] = []
        for key in self._governing(self.resolve(node.func.value)):
            if (key, method) in METHOD_GUARDS:
                guard, precede = METHOD_GUARDS[(key, method)]
                out.append(
                    (node.lineno, f".{key}.{method}()", guard, precede)
                )
            elif key in STATE_GUARDS and method in CONTAINER_MUTATORS:
                out.append(
                    (
                        node.lineno,
                        f".{key}.{method}()",
                        STATE_GUARDS[key],
                        True,
                    )
                )
        return out


@rule(
    "J1",
    "fork safety",
    "every analyzer-state mutation is paired with its UndoJournal "
    "save_*/record_* call, so fork() rollback restores exact state",
)
def check_fork_safety(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for context in project:
        if not _in_scope(context.rel):
            continue
        for info in iter_functions(context):
            name = info.node.name
            if name in EXEMPT or name.startswith("rollback"):
                continue
            analysis = _FunctionAnalysis(info)
            analysis.bind()
            mutations = analysis.mutations()
            if not mutations:
                continue
            journal = analysis.journal_lines()
            for line, what, guard, precede in sorted(mutations):
                guard_line = journal.get(guard)
                ok = guard_line is not None and (
                    not precede or guard_line <= line
                )
                if ok or context.suppressed("J1", line):
                    continue
                how = (
                    "preceded by" if precede else "paired with"
                )
                findings.append(
                    Finding(
                        "J1",
                        context.rel,
                        line,
                        f"{info.qualname}: {what} mutates analyzer-owned "
                        f"state but is not {how} UndoJournal.{guard}() in "
                        "the same function — a bypassed journal write "
                        "corrupts every subsequent fork",
                    )
                )
    return findings
