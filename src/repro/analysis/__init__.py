"""repro.analysis — determinism & numerical-safety linter for this repo.

An AST-based static-analysis layer (stdlib only) that encodes CAD's
correctness invariants as eleven executable rules:

========  ==========================================================
Rule      Protects
========  ==========================================================
R1        deterministic iteration (no raw set iteration)
R2        tolerance-based float comparison (no ``==`` on floats)
R3        explicit seeded RNGs (no module-level random state)
R4        pure round functions (no wall-clock in hot paths)
R5        picklable, race-free ``Process(target=...)`` workers
R6        no mutable default arguments
R7        no swallowed exceptions on checkpoint/streaming/runtime paths
R8        NaN-aware reductions on degraded-mode-reachable arrays
R9        producer-time-only ingest (no host clock / naive datetime)
R11       checkpoint save/load key symmetry (whole-program)
R14       typed raises in runtime/ingest/fleet (whole-program)
========  ==========================================================

R1–R9 are per-file checks (R5 adds a cross-module pass); R11 and R14 run
against a project-wide module index and resolved call graph (see
DESIGN.md §11).  Ids R10, R12 and R13 are retired and never reused.

Run ``python -m repro.analysis src/repro tests benchmarks examples``; every
run is one cold pass over every file.  The only way to silence a finding
is ``# repro: noqa[R1] <reason>`` on its line.  See DESIGN.md, section
"Enforced invariants", for the rule-by-rule mapping to the paper/PR
guarantees.
"""

from __future__ import annotations

from .engine import (
    AnalysisReport,
    ParseFailure,
    analyze_paths,
    analyze_source,
    collect_files,
    parse_pragmas,
)
from .rules import ALL_RULES, RULES_BY_ID, FileContext, Rule, Violation

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "AnalysisReport",
    "FileContext",
    "ParseFailure",
    "Rule",
    "Violation",
    "analyze_paths",
    "analyze_source",
    "collect_files",
    "parse_pragmas",
]
