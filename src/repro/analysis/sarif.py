"""SARIF 2.1.0 emitter for the analysis CLI.

One ``run`` from the ``repro.analysis`` driver: every rule in the registry
is described under ``tool.driver.rules`` (so viewers can show titles and
rationale), violations surface as ``error`` results, and parse failures get
the synthetic ``PARSE`` rule.  Pragma-suppressed findings are not emitted.
Output ordering is deterministic — same tree, same bytes.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .engine import ParseFailure
from .rules import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_PARSE_RULE = {
    "id": "PARSE",
    "name": "UnparsableFile",
    "shortDescription": {"text": "file could not be parsed"},
    "fullDescription": {
        "text": "unreadable or syntactically invalid files hide every other "
        "finding, so they fail the lint outright"
    },
    "defaultConfiguration": {"level": "error"},
}


def _rule_descriptor(rule: Any) -> dict[str, Any]:
    return {
        "id": rule.rule_id,
        "name": rule.__class__.__name__,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
        "defaultConfiguration": {"level": "error"},
    }


def _location(path: str, line: int, col: int) -> dict[str, Any]:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": line, "startColumn": col},
        }
    }


def _result(violation: Violation) -> dict[str, Any]:
    return {
        "ruleId": violation.rule,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            _location(violation.path, violation.line, violation.col)
        ],
    }


def sarif_report(
    violations: Sequence[Violation],
    parse_failures: Sequence[ParseFailure],
    rules: Iterable[Any],
) -> dict[str, Any]:
    """The complete SARIF document as a JSON-safe dict."""
    results: list[dict[str, Any]] = []
    for failure in sorted(
        parse_failures, key=lambda f: (f.path, f.line, f.message)
    ):
        results.append(
            {
                "ruleId": "PARSE",
                "level": "error",
                "message": {"text": failure.message},
                "locations": [_location(failure.path, failure.line, 1)],
            }
        )
    results.extend(_result(violation) for violation in sorted(violations))
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": (
                            "https://github.com/repro/repro"
                            "#determinism--numerical-safety-linter"
                        ),
                        "rules": [
                            *(_rule_descriptor(rule) for rule in rules),
                            _PARSE_RULE,
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
