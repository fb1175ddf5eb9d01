"""R7 — no bare ``except:`` / silently swallowed exceptions in persistence
and streaming paths.

Checkpoint save/restore, the streaming front-end and the runtime layers
that write and recover state (generation rotation, supervisor recovery,
the fleet manifest, the ingest frontier) are where an exception means
*corrupted or lost state*.  A bare ``except:`` (which also
eats ``KeyboardInterrupt``/``SystemExit``) or an ``except Exception: pass``
turns a half-written checkpoint or a dropped sample into a silent wrong
answer hours later.  Catch the narrowest type you can and either re-raise,
return an explicit degraded result, or surface the failure in the round's
quality report.

Scope: bare ``except:`` is flagged in every production module; swallowed
broad handlers additionally in the state-path modules named by
``_STATE_PATH_STEMS``.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from .base import FileContext, Rule, Violation, dotted_name

_BROAD = {"Exception", "BaseException"}
_STATE_PATH_STEMS = {
    "checkpoint",
    "streaming",
    "io",
    "faults",
    "rotation",  # runtime: checkpoint generations
    "supervisor",  # runtime: recovery and replay
    "manager",  # fleet: the checkpoint manifest
    "frontier",  # ingest: reorder buffer and its persisted state
}


def _is_state_path(ctx: FileContext) -> bool:
    stem = PurePosixPath(ctx.relpath).stem
    return stem in _STATE_PATH_STEMS or stem.startswith(("checkpoint", "streaming"))


def _swallows(handler: ast.ExceptHandler) -> bool:
    """Handler body does nothing but pass/``...``/``continue``."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ellipsis
        if isinstance(stmt, ast.Continue):
            continue
        return False
    return True


class SwallowedExceptionRule(Rule):
    rule_id = "R7"
    title = "bare / swallowed exception handler"
    rationale = (
        "a swallowed exception on the checkpoint or streaming path turns "
        "lost state into a silent wrong answer; catch narrowly and surface "
        "the failure"
    )

    def applies(self, ctx: FileContext) -> bool:
        return not (ctx.in_tests or ctx.in_benchmarks)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        state_path = _is_state_path(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare `except:` also catches KeyboardInterrupt/"
                    "SystemExit; name the exception type",
                )
                continue
            if state_path and _swallows(node):
                caught = dotted_name(node.type) or "<expr>"
                if caught in _BROAD:
                    yield self.violation(
                        ctx,
                        node,
                        f"`except {caught}: pass` on a state-critical path "
                        "hides checkpoint/stream corruption; handle or "
                        "re-raise",
                    )
