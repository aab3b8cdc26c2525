"""Framework for the contract-aware static analyzer.

The runtime system enforces its guarantees dynamically — fork/rollback
equivalence, byte-stable serialization, deterministic backends — but
only on the code paths the test suite executes.  ``repro.lint`` walks
the ASTs of every module under ``src/repro`` and proves the *coding
contracts* behind those guarantees hold everywhere:

- a checker is a registered function ``Project -> list[Finding]``
  (see :func:`rule`); the built-in checkers live in sibling modules
  and register on import;
- :class:`FileContext` wraps one parsed source file together with its
  ``# repro-lint: disable=RULE`` suppressions;
- :class:`Project` lazily parses the whole tree and hands checkers
  whole-project views (class hierarchies, registries) as well as
  per-file passes;
- findings are identified by a line-independent fingerprint so a
  committed baseline (see :mod:`repro.lint.runner`) survives unrelated
  edits but must only ever shrink.

Suppression grammar (the comment may follow code on the same line):

- ``# repro-lint: disable=J1`` — suppress rule J1 on this line;
- ``# repro-lint: disable=J1,D1`` — several rules;
- ``# repro-lint: disable-file=D1`` — suppress for the whole file.

Suppressions are for *sanctioned* exceptions; the policy in DESIGN.md
requires a justifying comment next to each one.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)=([A-Z0-9, ]+)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation at a source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def fingerprint(self) -> str:
        """Line-independent identity for baseline matching.

        Hashing (rule, path, message) — not the line — keeps baseline
        entries stable across unrelated edits that shift code around.
        """
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.message}".encode()
        )
        return digest.hexdigest()[:16]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class FileContext:
    """One parsed source file plus its lint suppressions."""

    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.source = path.read_text()
        self.tree = ast.parse(self.source, filename=str(path))
        self.module = rel[:-3].replace("/", ".")  # repro.core.delta
        # line -> suppressed rule ids; rule ids suppressed file-wide.
        self.line_suppressions: dict[int, set[str]] = {}
        self.file_suppressions: set[str] = set()
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(2).split(",") if r.strip()}
            if match.group(1) == "disable-file":
                self.file_suppressions |= rules
            else:
                self.line_suppressions.setdefault(lineno, set()).update(rules)

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "ALL" in self.file_suppressions:
            return True
        active = self.line_suppressions.get(line, ())
        return rule in active or "ALL" in active


class Project:
    """The whole source tree, parsed lazily, plus repo-level paths."""

    def __init__(self, repo_root: Path | str) -> None:
        self.repo_root = Path(repo_root)
        self.src_root = self.repo_root / "src"
        self.baseline_path = self.repo_root / "LINT_BASELINE.json"
        self.fingerprint_path = self.repo_root / "SCHEMA_FINGERPRINTS.json"
        self._contexts: dict[str, FileContext] = {}
        self._paths: list[str] | None = None

    def paths(self) -> list[str]:
        """Sorted ``src``-relative posix paths of every lintable file."""
        if self._paths is None:
            package = self.src_root / "repro"
            self._paths = sorted(
                p.relative_to(self.src_root).as_posix()
                for p in package.rglob("*.py")
            )
        return self._paths

    def file(self, rel: str) -> FileContext | None:
        """The parsed context for one src-relative path, if it exists."""
        if rel not in self._contexts:
            path = self.src_root / rel
            if not path.is_file():
                return None
            self._contexts[rel] = FileContext(path, rel)
        return self._contexts[rel]

    def __iter__(self) -> Iterator[FileContext]:
        for rel in self.paths():
            context = self.file(rel)
            if context is not None:
                yield context


Checker = Callable[[Project], list[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered checker and the contract it enforces."""

    id: str
    title: str
    contract: str
    check: Checker


RULES: dict[str, Rule] = {}


def rule(id: str, title: str, contract: str) -> Callable[[Checker], Checker]:
    """Register a checker under a rule id (decorator)."""

    def decorator(check: Checker) -> Checker:
        RULES[id] = Rule(id, title, contract, check)
        return check

    return decorator


class LintVisitor(ast.NodeVisitor):
    """Visitor base: walks one file, collecting findings for one rule.

    Subclasses call :meth:`flag` from their ``visit_*`` methods;
    suppressed lines are dropped here so every checker honours the
    ``# repro-lint: disable`` grammar for free.
    """

    rule_id = "??"

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.findings: list[Finding] = []

    def flag(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self.context.suppressed(self.rule_id, line):
            return
        self.findings.append(
            Finding(self.rule_id, self.context.rel, line, message)
        )

    def run(self) -> list[Finding]:
        self.visit(self.context.tree)
        return self.findings


def call_name(node: ast.AST) -> str | None:
    """The flat callable name of a Call's func: ``f`` or ``a.b.f``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def const_str(node: ast.AST | None) -> str | None:
    """The literal string value of a node, if it is one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@dataclass
class FunctionInfo:
    """One function/method with its enclosing class, for scoped passes."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    context: FileContext
    class_name: str | None = None
    decorators: list[str] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.node.name}"
        return self.node.name


def iter_functions(context: FileContext) -> Iterator[FunctionInfo]:
    """Every function in a file, with its enclosing class (one level)."""
    for node in context.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield FunctionInfo(node, context, None, _decorators(node))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield FunctionInfo(
                        item, context, node.name, _decorators(item)
                    )


def _decorators(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = call_name(target)
        if name is not None:
            names.append(name)
    return names
