"""repro.analysis — determinism & numerical-safety linter for this repo.

An AST-based static-analysis layer (stdlib only) that encodes CAD's
correctness invariants as executable rules:

========  ==========================================================
Rule      Protects
========  ==========================================================
R1        deterministic iteration (no raw set iteration)
R2        tolerance-based float comparison (no ``==`` on floats)
R3        explicit seeded RNGs (no module-level random state)
R4        pure round functions (no wall-clock in hot paths)
R5        picklable, race-free process-pool dispatch
R6        no mutable default arguments
R7        no swallowed exceptions on checkpoint/streaming paths
R8        NaN-aware reductions on degraded-mode-reachable arrays
R9        producer-time-only ingest (no host clock / naive datetime)
R10       SharedMemory cleanup on ``finally`` paths
R11       checkpoint save/load key symmetry (whole-program)
R12       lock/queue acquisition-order acyclicity (whole-program)
R13       config/CLI/docs agreement for the knob surface (whole-program)
R14       typed raises in runtime/ingest (whole-program)
========  ==========================================================

R1–R10 are per-file checks; R11–R14 run against a project-wide module
index and resolved call graph (see DESIGN.md §11), and a SARIF 2.1.0
emitter serves code-scanning UIs (``--sarif-out``).

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
