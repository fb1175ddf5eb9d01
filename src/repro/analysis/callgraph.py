"""Resolved call graph over the project index.

Nodes are ``"<dotted.module>:<qualname>"`` strings (``qualname`` is the
function name, or ``Class.method``).  Edges come from the raw dotted call
lists in each file's generic summary, resolved through the same import
machinery rules use for symbols:

* ``self.m()`` / ``cls.m()`` inside ``C.f`` resolves to ``C.m`` when the
  class defines it;
* bare ``helper()`` resolves to a same-module def, else an imported name;
* ``mod.func()`` resolves through the import table into other project
  modules (third-party targets drop out — the graph only claims edges it
  can prove).

Resolution is deliberately conservative: an edge that cannot be proven is
omitted, so R11's state-helper expansion, the one rule built on
reachability, under-approximates rather than hallucinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .project import ProjectContext


def node_id(module: str, qualname: str) -> str:
    return f"{module}:{qualname}"


@dataclass
class CallGraph:
    """Forward edges between resolved function nodes."""

    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, project: "ProjectContext") -> "CallGraph":
        edges: dict[str, tuple[str, ...]] = {}
        for relpath, summary in project.summaries.items():
            module = summary.get("module")
            if not module:
                continue
            for qualname, info in summary["defs"].items():
                caller = node_id(module, qualname)
                targets: set[str] = set()
                for raw in info["calls"]:
                    resolved = resolve_call(project, relpath, qualname, raw)
                    if resolved is not None:
                        targets.add(resolved)
                edges[caller] = tuple(sorted(targets))
        return cls(edges=edges)

    def transitive_callees(
        self, node: str, *, within_module: str | None = None
    ) -> set[str]:
        """Every node reachable from ``node`` (excluded), optionally
        restricted to callees living in one module (used by R11 to expand
        state helpers without leaking into other layers' contracts)."""
        seen: set[str] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            for callee in self.edges.get(current, ()):
                if callee in seen:
                    continue
                if within_module is not None and not callee.startswith(
                    within_module + ":"
                ):
                    continue
                seen.add(callee)
                stack.append(callee)
        seen.discard(node)
        return seen


def resolve_call(
    project: "ProjectContext", relpath: str, caller_qualname: str, raw: str
) -> str | None:
    """Resolve one raw dotted callee into a call-graph node, or ``None``."""
    summary = project.summaries[relpath]
    module = summary.get("module")
    if not module:
        return None
    defs = summary["defs"]
    classes = summary["classes"]
    parts = raw.split(".")
    head = parts[0]

    # self.m() / cls.m() inside a method of the same class.
    if head in ("self", "cls") and "." in caller_qualname:
        if len(parts) != 2:
            return None
        class_name = caller_qualname.split(".")[0]
        candidate = f"{class_name}.{parts[1]}"
        if candidate in defs:
            return node_id(module, candidate)
        return None

    # Local bare function, local Class.method, or local class constructor.
    if head in defs and len(parts) == 1:
        return node_id(module, head)
    if head in classes:
        if len(parts) == 1:
            init = f"{head}.__init__"
            return node_id(module, init) if init in defs else None
        candidate = ".".join(parts[:2])
        if candidate in defs:
            return node_id(module, candidate)
        return None

    absolute = project.resolve(relpath, raw)
    if absolute is None:
        return None
    return _node_for_absolute(project, absolute)


def _node_for_absolute(project: "ProjectContext", absolute: str) -> str | None:
    split = project.split_module(absolute)
    if split is None:
        return None
    target_module, qualname = split
    if not qualname:
        return None
    target_summary = project.summaries[project.by_module[target_module]]
    defs = target_summary["defs"]
    classes = target_summary["classes"]
    if qualname in defs:
        return node_id(target_module, qualname)
    head = qualname.split(".")[0]
    if head in classes:
        if "." not in qualname:
            init = f"{head}.__init__"
            return node_id(target_module, init) if init in defs else None
        candidate = ".".join(qualname.split(".")[:2])
        if candidate in defs:
            return node_id(target_module, candidate)
    return None

