"""CLI for the determinism & numerical-safety linter.

Usage::

    python -m repro.analysis src/repro tests benchmarks examples
    python -m repro.analysis src/repro --format json
    python -m repro.analysis src/repro --format sarif > findings.sarif
    python -m repro.analysis --list-rules

Every run is one cold pass over every target file; the only way to
silence a finding is a ``# repro: noqa[...]`` pragma on its line.

Exit codes: 0 clean, 1 findings (violations or parse failures), 2 usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .engine import analyze_paths
from .rules import ALL_RULES
from .sarif import sarif_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST linter enforcing CAD's determinism and numerical-safety "
            "invariants (rules R1-R14; see DESIGN.md 'Enforced invariants' "
            "and 'Whole-program analysis')."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files or directories to lint "
        "(default: src/repro tests benchmarks examples)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif-out",
        default=None,
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 report to PATH "
        "(independent of --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id, title and rationale, then exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"    {rule.rationale}")
        return 0

    targets = options.targets or ["src/repro", "tests", "benchmarks", "examples"]
    missing = [t for t in targets if not Path(t).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    report = analyze_paths(targets)
    failed = bool(report.violations or report.parse_failures)

    if options.sarif_out is not None or options.format == "sarif":
        sarif = sarif_report(report.violations, report.parse_failures, ALL_RULES)
        rendered = json.dumps(sarif, indent=2, sort_keys=True)
        if options.sarif_out is not None:
            Path(options.sarif_out).write_text(
                rendered + "\n", encoding="utf-8"
            )
        if options.format == "sarif":
            print(rendered)
            return 1 if failed else 0

    if options.format == "json":
        payload = {
            "checked_files": report.checked_files,
            "violations": [v.to_json() for v in report.violations],
            "parse_failures": [
                {"path": f.path, "line": f.line, "message": f.message}
                for f in report.parse_failures
            ],
            "suppressed": report.suppressed,
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0

    for failure in report.parse_failures:
        print(failure.render())
    for violation in report.violations:
        print(violation.render())
    print(
        f"{report.checked_files} files checked, "
        f"{len(report.violations)} violations, "
        f"{report.suppressed} suppressed by pragma"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
