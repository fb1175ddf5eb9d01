"""R5 — functions shipped to the process pool must be module-level and
free of mutable shared state.

:mod:`repro.core.parallel` starts its long-lived workers with
``ctx.Process(target=_pool_worker, ...)``.  Under the ``spawn`` start
method the target is pickled by reference: a lambda or nested closure
fails at runtime (and only when ``n_jobs > 1``, so tests at the default
miss it), a bound method drags its whole ``self`` across, and a
module-level function that reads or writes a mutable module global races
against other workers — each process sees its own divergent copy, which
is exactly the nondeterminism the refresh-aligned chunking was built to
rule out.

The check finds every ``Process(target=...)`` call, resolves the target
within the module, and verifies it is a module-level ``def`` whose body
neither declares ``global`` nor reads module-level names bound to mutable
literals (list/dict/set).

Targets *imported from another module* are invisible to the single-file
walk, so the rule also summarises, per file, (a) the dispatch sites whose
target is an imported name and (b) every module-level function's
worker-safety facts (``global`` declarations, free reads of mutable module
globals, nested-def names).  The project pass resolves each cross-module
dispatch through the import table and applies the same checks at the
dispatch site.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from .base import FileContext, Rule, Violation, call_name, dotted_name

def _process_target(node: ast.AST) -> ast.expr | None:
    """The ``target=`` of a ``Process(...)``/``ctx.Process(...)`` call."""
    if not isinstance(node, ast.Call):
        return None
    name = call_name(node)
    if name is None or name.split(".")[-1] != "Process":
        return None
    for keyword in node.keywords:
        if keyword.arg == "target":
            return keyword.value
    return None


def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _mutable_module_globals(tree: ast.Module) -> frozenset[str]:
    """Module-level names bound to mutable literals (list/dict/set/...)."""
    mutable: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ) or (
            isinstance(value, ast.Call)
            and call_name(value) in ("list", "dict", "set", "bytearray", "deque")
        ):
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        mutable.add(sub.id)
    return frozenset(mutable)


def _local_bindings(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter and local-assignment names inside ``func`` (shadowing)."""
    args = func.args
    bound = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            bound.add(sub.id)
    return bound


class ParallelDispatchRule(Rule):
    rule_id = "R5"
    title = "unpicklable or state-sharing pool dispatch"
    rationale = (
        "pool workers pickle the dispatched function by reference and fork "
        "module state; lambdas/closures fail at n_jobs>1 and mutable "
        "globals race across workers"
    )

    def applies(self, ctx: FileContext) -> bool:
        return not (ctx.in_tests or ctx.in_benchmarks)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        module_funcs = _module_functions(ctx.tree)
        mutable_globals = _mutable_module_globals(ctx.tree)
        nested_names = self._nested_function_names(ctx.tree)
        checked: set[str] = set()

        for node in ast.walk(ctx.tree):
            target = _process_target(node)
            if target is None:
                continue
            yield from self._check_target(
                ctx,
                target,
                module_funcs,
                mutable_globals,
                nested_names,
                checked,
            )

    def _check_target(
        self,
        ctx: FileContext,
        target: ast.expr,
        module_funcs: dict[str, ast.FunctionDef],
        mutable_globals: frozenset[str],
        nested_names: frozenset[str],
        checked: set[str],
    ) -> Iterator[Violation]:
        if isinstance(target, ast.Lambda):
            yield self.violation(
                ctx,
                target,
                "lambda dispatched to a process pool cannot be pickled; "
                "promote it to a module-level function",
            )
            return
        if isinstance(target, ast.Call):
            name = call_name(target)
            if name in ("partial", "functools.partial") and target.args:
                yield from self._check_target(
                    ctx,
                    target.args[0],
                    module_funcs,
                    mutable_globals,
                    nested_names,
                    checked,
                )
            return
        if isinstance(target, ast.Attribute):
            root = dotted_name(target)
            if root is not None and root.split(".")[0] in ("self", "cls"):
                yield self.violation(
                    ctx,
                    target,
                    f"{root} is a bound method; pool workers would pickle "
                    "the whole instance — dispatch a module-level function "
                    "taking explicit arguments",
                )
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name in nested_names and name not in module_funcs:
            yield self.violation(
                ctx,
                target,
                f"{name} is a nested function; closures cannot be pickled "
                "for the pool — promote it to module level",
            )
            return
        func = module_funcs.get(name)
        if func is None or name in checked:
            return
        checked.add(name)
        locals_bound = _local_bindings(func)
        for sub in ast.walk(func):
            if isinstance(sub, ast.Global):
                yield self.violation(
                    ctx,
                    sub,
                    f"worker function {name}() declares `global "
                    f"{', '.join(sub.names)}`; worker processes fork their "
                    "own copies, so the mutation races and diverges",
                )
            elif (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in mutable_globals
                and sub.id not in locals_bound
            ):
                yield self.violation(
                    ctx,
                    sub,
                    f"worker function {name}() reads module-level mutable "
                    f"state `{sub.id}`; pass it as an argument so each "
                    "dispatch ships an explicit value",
                )

    # -- cross-module pass -------------------------------------------------

    def summarize(self, ctx: FileContext) -> Any | None:
        module_funcs = _module_functions(ctx.tree)
        mutable_globals = _mutable_module_globals(ctx.tree)

        workers: dict[str, Any] = {}
        for name, func in module_funcs.items():
            locals_bound = _local_bindings(func)
            globals_declared: list[str] = []
            mutable_reads: list[str] = []
            for sub in ast.walk(func):
                if isinstance(sub, ast.Global):
                    globals_declared.extend(sub.names)
                elif (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in mutable_globals
                    and sub.id not in locals_bound
                ):
                    mutable_reads.append(sub.id)
            if globals_declared or mutable_reads:
                workers[name] = {
                    "globals": sorted(set(globals_declared)),
                    "mutable_reads": sorted(set(mutable_reads)),
                }

        dispatches: list[list[Any]] = []
        if self.applies(ctx):
            for node in ast.walk(ctx.tree):
                target = _process_target(node)
                if target is None:
                    continue
                if isinstance(target, ast.Call):
                    name = call_name(target)
                    if name in ("partial", "functools.partial") and target.args:
                        target = target.args[0]
                dotted = dotted_name(target)
                if dotted is None or dotted.split(".")[0] in ("self", "cls"):
                    continue
                # Locally defined targets are handled by the file pass.
                if "." not in dotted and dotted in module_funcs:
                    continue
                dispatches.append([dotted, target.lineno, target.col_offset])

        defined = sorted(module_funcs)
        nested = sorted(self._nested_function_names(ctx.tree))
        if not (workers or dispatches or nested or defined):
            return None
        return {
            "workers": workers,
            "dispatches": dispatches,
            "defined": defined,
            "nested": nested,
        }

    def check_project(self, project: Any) -> Iterator[Violation]:
        facts = project.facts.get(self.rule_id, {})
        for relpath in sorted(facts):
            for dotted, line, col in facts[relpath]["dispatches"]:
                origin = project.resolve(relpath, dotted)
                if origin is None:
                    continue
                split = project.split_module(origin)
                if split is None:
                    continue
                target_module, qualname = split
                if not qualname or "." in qualname:
                    continue  # methods/attributes out of cross-module scope
                target_relpath = project.by_module[target_module]
                target_facts = facts.get(target_relpath)
                if target_facts is None:
                    continue
                if (
                    qualname in target_facts["nested"]
                    and qualname not in target_facts["defined"]
                ):
                    yield self.project_violation(
                        project,
                        relpath,
                        line,
                        col,
                        f"{dotted} resolves to a nested function in "
                        f"{target_module}; closures cannot be pickled for "
                        "the pool — promote it to module level",
                    )
                    continue
                worker = target_facts["workers"].get(qualname)
                if worker is None:
                    continue
                for name in worker["globals"]:
                    yield self.project_violation(
                        project,
                        relpath,
                        line,
                        col,
                        f"dispatched worker {target_module}.{qualname}() "
                        f"declares `global {name}`; worker processes fork "
                        "their own copies, so the mutation races and "
                        "diverges",
                    )
                for name in worker["mutable_reads"]:
                    yield self.project_violation(
                        project,
                        relpath,
                        line,
                        col,
                        f"dispatched worker {target_module}.{qualname}() "
                        f"reads module-level mutable state `{name}`; pass "
                        "it as an argument so each dispatch ships an "
                        "explicit value",
                    )

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> frozenset[str]:
        nested: set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(outer):
                if (
                    node is not outer
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                ):
                    nested.add(node.name)
        return frozenset(nested)
