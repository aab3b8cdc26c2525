"""H1 — registry coverage: every edit kind reaches the pipeline.

The change-handler registry decouples edit types from the analyzer,
which also means nothing *structurally* guarantees a new
:class:`~repro.core.change.Edit` subclass has a handler — the miss
surfaces as a ``TypeError`` on first dispatch, at runtime, on whatever
workload first uses it.  Symmetrically, a handler that deposits dirty
markers on an axis no recompute stage (a :mod:`repro.core.stages`
module) consumes "works" while silently never recomputing anything.

This checker closes both gaps statically:

- every concrete ``Edit`` subclass (anywhere in the tree) must be
  covered by a ``@register_change_handler`` registration on itself or
  an ancestor (mirroring the registry's MRO lookup — ``LinkUp`` rides
  on ``LinkDown``);
- every ``dirty.<axis>`` a registered handler touches must be a
  declared :class:`DirtySet` field (or method/property), and written
  axes must be ones the recompute stages actually read;
- every *declared* ``DirtySet`` field must be consumed by a recompute
  stage — a new axis nobody reads is dead IR, and dirt deposited on it
  (by any future handler) would be silently dropped.
"""

from __future__ import annotations

import ast

from repro.lint.base import Finding, Project, call_name, rule

CHANGE_MODULE = "repro/core/change.py"
PIPELINE_MODULE = "repro/core/pipeline.py"
# The DirtySet consumers: every recompute stage module.  pipeline.py
# does not count — the IR's own methods (merge, attribute) read every
# field trivially, and the runner only labels spans with the sizes.
STAGES_PACKAGE = "repro/core/stages/"


def _edit_hierarchy(project: Project) -> tuple[set[str], dict[str, list[str]]]:
    """(concrete Edit subclass names, class -> base names) project-wide."""
    bases_of: dict[str, list[str]] = {}
    for context in project:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                bases = [
                    base
                    for base in (call_name(b) for b in node.bases)
                    if base is not None
                ]
                bases_of.setdefault(node.name, [b.split(".")[-1] for b in bases])
    # Transitive closure: classes that reach Edit through bases.
    edits: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, bases in bases_of.items():
            if name in edits or name == "Edit":
                continue
            if any(base == "Edit" or base in edits for base in bases):
                edits.add(name)
                changed = True
    return edits, bases_of


def _registered_types(project: Project) -> set[str]:
    """Edit type names passed to ``@register_change_handler``."""
    registered: set[str] = set()
    for context in project:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                name = call_name(decorator.func)
                if (
                    name is None
                    or name.split(".")[-1] != "register_change_handler"
                    or not decorator.args
                ):
                    continue
                target = call_name(decorator.args[0])
                if target is not None:
                    registered.add(target.split(".")[-1])
    return registered


def _covered(
    name: str, registered: set[str], bases_of: dict[str, list[str]]
) -> bool:
    """MRO-style coverage: the class or any ancestor is registered."""
    seen: set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if current in registered:
            return True
        stack.extend(bases_of.get(current, ()))
    return False


def _dirtyset_members(
    project: Project,
) -> tuple[dict[str, int], set[str]]:
    """(field name -> declaration line, all member names incl.
    methods/properties)."""
    fields: dict[str, int] = {}
    members: set[str] = set()
    pipeline = project.file(PIPELINE_MODULE)
    if pipeline is None:
        return fields, members
    for node in pipeline.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "DirtySet":
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    fields[item.target.id] = item.lineno
                    members.add(item.target.id)
                elif isinstance(item, ast.FunctionDef):
                    members.add(item.name)
    return fields, members


def _consumed_axes(project: Project, fields: dict[str, int]) -> set[str]:
    """DirtySet fields the recompute stages read (``dirty.<axis>``)."""
    consumed: set[str] = set()
    for context in project:
        if not context.rel.startswith(STAGES_PACKAGE):
            continue
        for inner in ast.walk(context.tree):
            if isinstance(inner, ast.Attribute) and inner.attr in fields:
                value = inner.value
                if (
                    isinstance(value, ast.Name) and value.id == "dirty"
                ) or (
                    isinstance(value, ast.Attribute) and value.attr == "dirty"
                ):
                    consumed.add(inner.attr)
    return consumed


def _handler_axis_uses(
    project: Project,
) -> list[tuple[str, str, int, str]]:
    """(file, handler name, line, axis) for every dirty.<axis> use."""
    uses: list[tuple[str, str, int, str]] = []
    for context in project:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            is_handler = any(
                isinstance(d, ast.Call)
                and (call_name(d.func) or "").split(".")[-1]
                == "register_change_handler"
                for d in node.decorator_list
            )
            if not is_handler:
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "dirty"
                ):
                    uses.append(
                        (context.rel, node.name, inner.lineno, inner.attr)
                    )
    return uses


@rule(
    "H1",
    "registry coverage",
    "every Edit subclass has a change handler (MRO-covered) and every "
    "handler-written DirtySet axis is consumed by a recompute stage",
)
def check_registry_coverage(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    change = project.file(CHANGE_MODULE)
    if change is None:
        return findings

    edits, bases_of = _edit_hierarchy(project)
    registered = _registered_types(project)
    class_lines = {
        node.name: (context.rel, node.lineno)
        for context in project
        for node in ast.walk(context.tree)
        if isinstance(node, ast.ClassDef)
    }
    for name in sorted(edits):
        if _covered(name, registered, bases_of):
            continue
        rel, line = class_lines.get(name, (CHANGE_MODULE, 1))
        context = project.file(rel)
        if context is not None and context.suppressed("H1", line):
            continue
        findings.append(
            Finding(
                "H1",
                rel,
                line,
                f"Edit subclass {name} has no registered change handler "
                "(and none on its ancestors); dispatch will raise "
                "TypeError at runtime",
            )
        )

    fields, members = _dirtyset_members(project)
    consumed = _consumed_axes(project, fields)
    pipeline_context = project.file(PIPELINE_MODULE)
    for axis in sorted(fields):
        if axis in consumed:
            continue
        line = fields[axis]
        if pipeline_context is not None and pipeline_context.suppressed(
            "H1", line
        ):
            continue
        findings.append(
            Finding(
                "H1",
                PIPELINE_MODULE,
                line,
                f"DirtySet declares axis '{axis}' but no recompute "
                "stage consumes it; dirt deposited there is silently "
                "dropped",
            )
        )
    for rel, handler, line, axis in _handler_axis_uses(project):
        context = project.file(rel)
        if context is not None and context.suppressed("H1", line):
            continue
        if axis not in members:
            findings.append(
                Finding(
                    "H1",
                    rel,
                    line,
                    f"handler {handler} touches unknown DirtySet axis "
                    f"'{axis}'; declared fields are "
                    f"{sorted(fields)}",
                )
            )
        elif axis in fields and axis not in consumed:
            findings.append(
                Finding(
                    "H1",
                    rel,
                    line,
                    f"handler {handler} writes DirtySet axis '{axis}' "
                    "but the pipeline never consumes it; the dirt "
                    "is silently dropped",
                )
            )
    return findings
