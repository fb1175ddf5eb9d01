"""Shared infrastructure for `repro.analysis` rules.

Every rule is an AST visitor packaged behind a tiny uniform interface:
``applies(ctx)`` decides from the file's path whether the rule is in scope,
``check(ctx)`` yields :class:`Violation` objects.  The helpers here — dotted
name resolution and light-weight local type inference for "definitely a set"
/ "definitely float-valued" expressions — are deliberately conservative: a
rule only fires when the AST *proves* the pattern, so the linter stays
quiet on code it cannot understand instead of drowning the signal in
false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Any, ClassVar, Iterator


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where it is, which rule fired, and why it matters."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    source: str = field(compare=False, default="")

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "source": self.source,
        }


@dataclass
class FileContext:
    """A parsed source file plus the path facts rules scope on."""

    relpath: str  # posix-style, as reported in findings
    source: str
    tree: ast.Module
    lines: list[str]

    @property
    def posix(self) -> str:
        return PurePosixPath(self.relpath).as_posix()

    @property
    def in_tests(self) -> bool:
        parts = PurePosixPath(self.relpath).parts
        name = PurePosixPath(self.relpath).name
        return (
            "tests" in parts
            or name.startswith("test_")
            or name == "conftest.py"
        )

    @property
    def in_benchmarks(self) -> bool:
        return "benchmarks" in PurePosixPath(self.relpath).parts

    def in_package(self, *subpackages: str) -> bool:
        """True when the file sits under ``repro/<subpackage>/`` for any
        of the given names (e.g. ``ctx.in_package("core", "graph")``)."""
        posix = self.posix
        return any(f"repro/{sub}/" in posix for sub in subpackages)

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class for one lint rule (see ``repro.analysis.rules``).

    File rules implement ``check(ctx)``.  Rules that need the whole-program
    view additionally implement ``summarize(ctx)`` (a per-file fact payload
    the engine hands to the project phase) and
    ``check_project(project)`` (run once per analysis over the assembled
    :class:`~repro.analysis.project.ProjectContext`).
    """

    rule_id: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def summarize(self, ctx: FileContext) -> Any | None:
        """Per-file facts for ``check_project``, built in the same pass.

        Returning ``None`` (the default) stores nothing for this file.
        """
        return None

    def check_project(self, project: Any) -> Iterator[Violation]:
        """Cross-file pass over a ProjectContext; default: no findings."""
        return iter(())

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            path=ctx.posix,
            line=line,
            col=col + 1,
            rule=self.rule_id,
            message=message,
            source=ctx.source_line(line),
        )

    def project_violation(
        self,
        project: Any,
        relpath: str,
        line: int,
        col: int,
        message: str,
    ) -> Violation:
        """A finding anchored in a file the project index knows about.

        ``col`` is 0-based (AST convention), matching :meth:`violation`.
        """
        source = ""
        lines = project.facts.get("__lines__", {}).get(relpath)
        if lines and 1 <= line <= len(lines):
            source = lines[line - 1].strip()
        return Violation(
            path=relpath,
            line=line,
            col=col + 1,
            rule=self.rule_id,
            message=message,
            source=source,
        )


class ProjectRule(Rule):
    """A rule with no per-file findings — only the project pass reports."""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee, else None."""
    return dotted_name(node.func)


def iter_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


_SET_CALLS = {"set", "frozenset"}


def is_set_expression(node: ast.AST, set_names: frozenset[str]) -> bool:
    """True when ``node`` provably evaluates to a set/frozenset.

    ``set_names`` carries locally inferred set-typed variable names; see
    :func:`infer_set_names`.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in _SET_CALLS:
            return True
        # set.union(...) / set.intersection(...) style method results
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return is_set_expression(node.func.value, set_names)
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        # a | b is only called a set when one side provably is one.
        return is_set_expression(node.left, set_names) or is_set_expression(
            node.right, set_names
        )
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    base = annotation
    if isinstance(base, ast.Subscript):
        base = base.value
    name = dotted_name(base)
    return name in {"set", "frozenset", "Set", "FrozenSet", "typing.Set", "typing.FrozenSet"}


def infer_set_names(scope_body: list[ast.stmt]) -> frozenset[str]:
    """Names that are only ever bound to set expressions in this scope.

    Single pass, no data-flow: a name qualifies when every plain/annotated
    assignment to it is a provable set expression (or a set annotation) and
    it is never rebound by a for-target, with-target, or import.  Augmented
    ``|=``/``&=``/``-=``/``^=`` keep set-ness.
    """
    candidates: dict[str, bool] = {}

    def disqualify(name: str) -> None:
        candidates[name] = False

    def observe(name: str, is_set: bool) -> None:
        candidates[name] = is_set and candidates.get(name, True)

    # Two-phase: first collect, using an empty set-name universe, then a
    # second pass with the first pass's names lets `b = a | extra` chain.
    known: frozenset[str] = frozenset()
    for _ in range(2):
        candidates.clear()
        for stmt in scope_body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            observe(target.id, is_set_expression(node.value, known))
                        else:
                            for sub in ast.walk(target):
                                if isinstance(sub, ast.Name):
                                    disqualify(sub.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    observe(node.target.id, _annotation_is_set(node.annotation))
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if not isinstance(
                        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
                    ):
                        disqualify(node.target.id)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    for sub in ast.walk(node.target):
                        if isinstance(sub, ast.Name):
                            disqualify(sub.id)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        disqualify((alias.asname or alias.name).split(".")[0])
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    disqualify(node.name)
        known = frozenset(name for name, ok in candidates.items() if ok)
    return known


_FLOAT_CALLS = {
    "float",
    "np.float64",
    "np.float32",
    "numpy.float64",
    "numpy.float32",
    "np.mean",
    "np.sum",
    "np.std",
    "np.var",
    "np.dot",
    "np.sqrt",
    "np.nanmean",
    "np.nansum",
    "np.nanstd",
    "np.nanvar",
    "math.sqrt",
    "math.exp",
    "math.log",
}

_FLOAT_ARRAY_CALLS = {
    "np.array",
    "np.asarray",
    "np.empty",
    "np.zeros",
    "np.ones",
    "np.full",
    "numpy.array",
    "numpy.asarray",
}

_FLOAT_DTYPES = {
    "float",
    "np.float64",
    "np.float32",
    "numpy.float64",
    "numpy.float32",
}


def _call_is_float_array(node: ast.Call) -> bool:
    name = call_name(node)
    if name not in _FLOAT_ARRAY_CALLS:
        return False
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            dtype = dotted_name(keyword.value)
            if dtype in _FLOAT_DTYPES:
                return True
            if isinstance(keyword.value, ast.Constant) and keyword.value.value in (
                "float64",
                "float32",
                "float",
            ):
                return True
    return False


def is_float_expression(node: ast.AST, float_names: frozenset[str]) -> bool:
    """True when ``node`` provably carries float (or float-array) values."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return is_float_expression(node.operand, float_names)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            # True division always yields floats.
            return True
        return is_float_expression(node.left, float_names) or is_float_expression(
            node.right, float_names
        )
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in _FLOAT_CALLS:
            return True
        return _call_is_float_array(node)
    if isinstance(node, ast.Name):
        return node.id in float_names
    if isinstance(node, ast.Subscript):
        return is_float_expression(node.value, float_names)
    if isinstance(node, ast.IfExp):
        return is_float_expression(node.body, float_names) or is_float_expression(
            node.orelse, float_names
        )
    return False


def infer_float_names(scope_body: list[ast.stmt]) -> frozenset[str]:
    """Names only ever assigned provably-float expressions in this scope."""
    candidates: dict[str, bool] = {}
    known: frozenset[str] = frozenset()
    for _ in range(2):
        candidates.clear()
        for stmt in scope_body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            candidates[target.id] = is_float_expression(
                                node.value, known
                            ) and candidates.get(target.id, True)
                        else:
                            for sub in ast.walk(target):
                                if isinstance(sub, ast.Name):
                                    candidates[sub.id] = False
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    for sub in ast.walk(node.target):
                        if isinstance(sub, ast.Name):
                            candidates[sub.id] = False
        known = frozenset(name for name, ok in candidates.items() if ok)
    return known
