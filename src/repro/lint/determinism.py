"""D1 — determinism: no ambient entropy in result-producing code.

The headline guarantees — warm cache hits byte-identical to cold
misses, serial and multiprocessing campaign backends byte-identical,
event logs stable across runs — all reduce to one coding contract:
nothing that feeds a serialized payload may depend on wall-clock time,
unseeded randomness, interpreter object identity, or unordered
container iteration.  This checker flags, across the whole tree:

- ``time.*`` calls — wall-clock belongs to the span layer
  (``repro.obs.trace``) and the benchmark harness, which are
  allowlisted; anything else must justify itself with an inline
  suppression;
- module-level ``random.*`` calls — randomized generators must go
  through an explicitly seeded ``random.Random(seed)`` (the
  constructor itself is allowed, as is ``SystemRandom`` for
  non-reproducible contexts);
- ``id()`` — interpreter addresses are recycled after GC, so
  ``id()``-keyed caches can silently alias two different objects (and
  ids differ across processes, which breaks cross-backend equality);
- iteration over syntactically unordered sets inside serialization
  functions (``to_dict``/``to_payload``/``encode_*``) that is not
  wrapped in ``sorted()`` — set order is hash-seed-dependent, so such
  payloads differ run to run.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileContext, Finding, LintVisitor, Project, rule

# Modules where wall-clock reads are the *point* (span timing, bench
# harness).
TIME_ALLOWLIST = (
    "repro/obs/trace.py",
    "repro/bench/",
)

# Seeded / explicitly non-deterministic constructors are fine; it is
# the module-level convenience functions (shared hidden state, no
# injected seed) that break reproducibility.
ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom"}

SERIALIZE_FN_PREFIXES = ("encode_", "_encode")
SERIALIZE_FN_NAMES = {"to_dict", "to_payload", "to_jsonl"}


def _is_serialize_fn(name: str) -> bool:
    return name in SERIALIZE_FN_NAMES or name.startswith(SERIALIZE_FN_PREFIXES)


def _is_set_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_like(node.left) or _is_set_like(node.right)
    return False


class _DeterminismVisitor(LintVisitor):
    rule_id = "D1"

    def __init__(self, context: FileContext) -> None:
        super().__init__(context)
        self.allow_time = any(
            context.rel == m or context.rel.startswith(m)
            for m in TIME_ALLOWLIST
        )
        self.imported = {
            alias.asname or alias.name
            for node in ast.walk(context.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        self._fn_stack: list[str] = []

    # -- function scoping ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _in_serialize_fn(self) -> bool:
        return any(_is_serialize_fn(name) for name in self._fn_stack)

    # -- entropy sources ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module, attr = func.value.id, func.attr
            if module == "time" and "time" in self.imported:
                if not self.allow_time:
                    self.flag(
                        node,
                        f"wall-clock read time.{attr}() outside the span/"
                        "bench allowlist; wall time must never feed a "
                        "deterministic payload",
                    )
            elif (
                module == "random"
                and "random" in self.imported
                and attr not in ALLOWED_RANDOM_ATTRS
            ):
                self.flag(
                    node,
                    f"random.{attr}() uses the shared unseeded generator; "
                    "inject a seeded random.Random(seed) instead",
                )
        elif isinstance(func, ast.Name) and func.id == "id":
            self.flag(
                node,
                "id() keys are recycled after GC and differ across "
                "processes; key on the object itself or a stable digest",
            )
        self.generic_visit(node)

    # -- unordered iteration into payloads ----------------------------------

    def _flag_set_iteration(self, source: ast.AST) -> None:
        if self._in_serialize_fn() and _is_set_like(source):
            self.flag(
                source,
                "iterating an unordered set inside a serialization "
                "function; wrap in sorted() for a byte-stable payload",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._flag_set_iteration(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


@rule(
    "D1",
    "determinism",
    "no wall-clock, unseeded randomness, id() keys, or unordered set "
    "iteration feeding serialized payloads",
)
def check_determinism(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for context in project:
        findings.extend(_DeterminismVisitor(context).run())
    return findings
