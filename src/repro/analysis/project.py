"""Whole-program index for :mod:`repro.analysis`.

The per-file rules (R1-R9) see one AST at a time; the cross-file rules
(R11, R14, and R5's cross-module pass) need to know how files relate: which
dotted module each file is, what every ``import`` resolves to, which
functions and classes each module defines, and who calls whom.  This module
builds that index from nothing but the stdlib ``ast`` — no imports are
executed, so analysing a broken or dependency-missing tree is always safe.
The engine rebuilds it from scratch on every run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


def module_name_for(path: Path) -> tuple[str | None, bool]:
    """Dotted module name for ``path``, walking ``__init__.py`` chains.

    Returns ``(name, is_package)``; ``name`` is ``None`` for scripts that
    sit outside any package (no ``__init__.py`` next to them).
    """
    resolved = Path(path)
    is_package = resolved.name == "__init__.py"
    parts: list[str] = [] if is_package else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        return None, is_package
    return ".".join(reversed(parts)), is_package


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    calls: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                calls.add(dotted)
    return sorted(calls)


def summarize_module(
    tree: ast.Module, module: str | None, is_package: bool
) -> dict[str, Any]:
    """The generic per-file summary every project rule builds on.

    Imports resolved to absolute dotted targets, top-level functions and
    methods with their raw call lists, and classes with their bases.
    """
    imports: dict[str, str] = {}
    imported_modules: list[str] = []
    defs: dict[str, dict[str, Any]] = {}
    classes: dict[str, dict[str, Any]] = {}

    base_parts = module.split(".") if module else []
    # ``from . import x`` in pkg/__init__.py resolves against pkg itself;
    # in pkg/mod.py level 1 resolves against pkg (strip the module name).
    package_parts = base_parts if is_package else base_parts[:-1]

    def resolve_from(node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        if not base_parts:
            return None
        anchor = package_parts[: len(package_parts) - (node.level - 1)]
        if node.level - 1 > len(package_parts):
            return None
        prefix = ".".join(anchor)
        if node.module:
            return f"{prefix}.{node.module}" if prefix else node.module
        return prefix or None

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
                imported_modules.append(alias.name)
        elif isinstance(stmt, ast.ImportFrom):
            target = resolve_from(stmt)
            if target is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    imported_modules.append(target)
                    continue
                imports[alias.asname or alias.name] = f"{target}.{alias.name}"

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[stmt.name] = {"calls": _collect_calls(stmt)}
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{stmt.name}.{member.name}"] = {
                        "calls": _collect_calls(member)
                    }
            classes[stmt.name] = {
                "bases": [b for b in (_dotted(base) for base in stmt.bases) if b]
            }

    return {
        "module": module,
        "imports": imports,
        "imported_modules": sorted(set(imported_modules)),
        "defs": defs,
        "classes": classes,
    }


@dataclass
class ProjectContext:
    """Everything the cross-file rules see: summaries, symbols, call graph.

    ``summaries`` maps relpath -> generic summary, ``facts`` maps
    rule_id -> relpath -> that rule's own :meth:`Rule.summarize` payload.
    """

    summaries: dict[str, dict[str, Any]]
    facts: dict[str, dict[str, Any]] = field(default_factory=dict)
    by_module: dict[str, str] = field(default_factory=dict)
    callgraph: Any = None  # CallGraph; assigned by build_project

    def __post_init__(self) -> None:
        for relpath, summary in self.summaries.items():
            module = summary.get("module")
            if module:
                self.by_module.setdefault(module, relpath)

    # -- symbol resolution -------------------------------------------------

    def split_module(self, dotted: str) -> tuple[str, str] | None:
        """Split an absolute dotted path into (project module, remainder)
        on the longest module prefix the project knows about."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.by_module:
                return prefix, ".".join(parts[cut:])
        return None

    def resolve(self, relpath: str, dotted: str, _depth: int = 0) -> str | None:
        """Absolute origin of ``dotted`` as used inside ``relpath``.

        Follows import aliases (including chains of re-exports, e.g.
        ``runtime.errors`` re-exporting ``CheckpointError`` from
        ``core.checkpoint``) up to a small depth bound.  Returns a dotted
        string like ``"pkg.mod.Class"`` / ``"pkg.mod.func"`` or ``None``
        for names the project cannot account for (builtins, third-party).
        """
        if _depth > 8:
            return None
        summary = self.summaries.get(relpath)
        if summary is None:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        module = summary.get("module")

        def canonical(absolute: str) -> str:
            split = self.split_module(absolute)
            if split is None:
                return absolute
            mod, remainder = split
            if not remainder:
                return absolute
            target_rel = self.by_module[mod]
            target_summary = self.summaries[target_rel]
            inner_head = remainder.split(".")[0]
            if (
                inner_head not in target_summary["defs"]
                and inner_head not in target_summary["classes"]
                and inner_head in target_summary["imports"]
            ):
                followed = self.resolve(target_rel, remainder, _depth + 1)
                if followed is not None:
                    return followed
            return absolute

        if head in summary["defs"] or head in summary["classes"]:
            if module is None:
                return None
            return f"{module}.{dotted}"
        if head in summary["imports"]:
            target = summary["imports"][head]
            absolute = ".".join([target, *rest]) if rest else target
            return canonical(absolute)
        # ``import a.b.c`` style usage keeps the absolute path inline.
        for imported in summary["imported_modules"]:
            if dotted == imported or dotted.startswith(imported + "."):
                return canonical(dotted)
        return None


def build_project(
    summaries: dict[str, dict[str, Any]], facts: dict[str, dict[str, Any]]
) -> ProjectContext:
    """Assemble the :class:`ProjectContext` (and its call graph)."""
    from .callgraph import CallGraph

    project = ProjectContext(summaries=summaries, facts=facts)
    project.callgraph = CallGraph.build(project)
    return project
