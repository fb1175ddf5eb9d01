"""File collection, pragma handling and rule execution for the linter.

The engine is intentionally free of third-party dependencies: ``ast`` +
``tokenize`` + ``re`` over the files named on the command line.  Suppression
is explicit and local — a ``# repro: noqa[R1]`` pragma on the offending line
(optionally listing several rule ids, optionally followed by a
justification) — is the only way to silence a finding, so every exemption
is visible and reviewed in the diff that adds it.

Every run is one cold pass in two phases.  The **file phase** parses each
file once and runs the per-file rules; it also collects each rule's
per-file summary plus a generic module summary (imports, defs, classes).
The **project phase** assembles those summaries into a
:class:`~repro.analysis.project.ProjectContext` with a resolved call graph
and runs every rule's ``check_project`` once.  Nothing is carried between
runs, so an edited rule is always checked against every file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .project import build_project, load_docs, module_name_for, summarize_module
from .rules import ALL_RULES, FileContext, Rule, Violation

#: ``# repro: noqa`` (all rules) or ``# repro: noqa[R1,R5] reason...``.
_PRAGMA = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?")

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True)
class ParseFailure:
    """A file the linter could not parse; reported alongside violations."""

    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:1: PARSE {self.message}"


@dataclass
class AnalysisReport:
    """Everything one run produced: findings left after pragmas, the count
    pragmas suppressed, and the files that could not be parsed."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    parse_failures: list[ParseFailure] = field(default_factory=list)
    checked_files: int = 0


def _merge_pragma(
    existing: frozenset[str] | None, codes: frozenset[str] | None
) -> frozenset[str] | None:
    """Bare ``noqa`` (None) dominates; otherwise code sets union."""
    if existing is None or codes is None:
        return None
    return existing | codes


def _pragmas_in_comment(comment: str) -> frozenset[str] | None | object:
    """All pragmas in one comment string merged, or ``_NO_PRAGMA``."""
    merged: frozenset[str] | None | object = _NO_PRAGMA
    for match in _PRAGMA.finditer(comment):
        codes = match.group("codes")
        parsed: frozenset[str] | None
        if codes is None:
            parsed = None
        else:
            parsed = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
        if merged is _NO_PRAGMA:
            merged = parsed
        else:
            merged = _merge_pragma(merged, parsed)  # type: ignore[arg-type]
    return merged


_NO_PRAGMA = object()


def parse_pragmas_source(source: str) -> dict[int, frozenset[str] | None]:
    """Map 1-based line numbers to suppressed rule ids (None = all rules).

    Tokenises the source so pragma-shaped text inside string literals is
    ignored, and merges *every* pragma in a comment (not just the first):
    ``# repro: noqa[R1]; # repro: noqa[R2]`` suppresses both rules, and a
    bare ``# repro: noqa`` anywhere on the line suppresses everything.
    """
    pragmas: dict[int, frozenset[str] | None] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            found = _pragmas_in_comment(token.string)
            if found is _NO_PRAGMA:
                continue
            line = token.start[0]
            if line in pragmas:
                pragmas[line] = _merge_pragma(pragmas[line], found)  # type: ignore[arg-type]
            else:
                pragmas[line] = found  # type: ignore[assignment]
        return pragmas
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable sources fall back to the line scan; they fail the
        # lint as PARSE findings anyway, so precision does not matter.
        return parse_pragmas(source.splitlines())


def parse_pragmas(lines: Sequence[str]) -> dict[int, frozenset[str] | None]:
    """Line-based fallback scan (kept for API compatibility and as the
    last resort for untokenisable sources)."""
    pragmas: dict[int, frozenset[str] | None] = {}
    for number, line in enumerate(lines, start=1):
        found = _pragmas_in_comment(line)
        if found is _NO_PRAGMA:
            continue
        pragmas[number] = found  # type: ignore[assignment]
    return pragmas


def is_suppressed(
    violation: Violation, pragmas: dict[int, frozenset[str] | None]
) -> bool:
    codes = pragmas.get(violation.line, frozenset())
    if codes is None:
        return True
    return violation.rule in codes


def collect_files(targets: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: dict[Path, None] = {}
    for target in targets:
        path = Path(target)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIR_NAMES.intersection(candidate.parts):
                    seen.setdefault(candidate, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return sorted(seen)


def build_context(path: Path, source: str, relpath: str | None = None) -> FileContext:
    """Parse one file into the context rules consume (raises SyntaxError)."""
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        relpath=relpath if relpath is not None else path.as_posix(),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def _record(
    violation: Violation,
    pragmas: dict[int, frozenset[str] | None],
    report: AnalysisReport,
) -> None:
    """Count ``violation`` as suppressed by pragma or keep it in ``report``."""
    if is_suppressed(violation, pragmas):
        report.suppressed += 1
    else:
        report.violations.append(violation)


def analyze_source(
    source: str, relpath: str, rules: Sequence[Rule] = ALL_RULES
) -> list[Violation]:
    """Lint one in-memory source blob (the unit-test entry point).

    Runs the file phase only; cross-file rules need :func:`analyze_paths`.
    """
    ctx = build_context(Path(relpath), source, relpath)
    pragmas = parse_pragmas_source(source)
    report = AnalysisReport()
    for rule in rules:
        if rule.applies(ctx):
            for violation in rule.check(ctx):
                _record(violation, pragmas, report)
    return sorted(report.violations)


def analyze_paths(
    targets: Iterable[str | Path],
    rules: Sequence[Rule] = ALL_RULES,
    *,
    root: str | Path | None = None,
) -> AnalysisReport:
    """Lint every file under ``targets`` and aggregate the findings.

    ``root`` anchors doc-file lookup for the drift rules (default: the
    current directory).  Every call is one cold pass over every file.
    """
    report = AnalysisReport()
    summaries: dict[str, dict[str, Any]] = {}
    lines_by_file: dict[str, list[str]] = {}
    facts: dict[str, dict[str, Any]] = {"__lines__": lines_by_file}
    pragmas_by_file: dict[str, dict[int, frozenset[str] | None]] = {}

    for path in collect_files(targets):
        relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            report.parse_failures.append(
                ParseFailure(relpath, 1, f"unreadable file: {error}")
            )
            continue
        try:
            ctx = build_context(path, source, relpath)
        except SyntaxError as error:
            report.parse_failures.append(
                ParseFailure(
                    relpath, error.lineno or 1, error.msg or "syntax error"
                )
            )
            continue
        report.checked_files += 1
        pragmas = parse_pragmas_source(source)
        for rule in rules:
            if not rule.applies(ctx):
                continue
            for violation in rule.check(ctx):
                _record(violation, pragmas, report)
            payload = rule.summarize(ctx)
            if payload is not None:
                facts.setdefault(rule.rule_id, {})[relpath] = payload
        module, is_package = module_name_for(path)
        summaries[relpath] = summarize_module(ctx.tree, module, is_package)
        lines_by_file[relpath] = ctx.lines
        pragmas_by_file[relpath] = pragmas

    root_path = Path(root) if root is not None else Path(".")
    project = build_project(summaries, load_docs(root_path), facts)
    for rule in rules:
        for violation in rule.check_project(project):
            _record(violation, pragmas_by_file.get(violation.path, {}), report)
    report.violations.sort()
    return report
