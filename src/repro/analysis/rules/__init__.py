"""Rule registry for :mod:`repro.analysis`.

``ALL_RULES`` is the ordered tuple the engine runs; ordering is part of the
output contract (findings sort by path/line, ties by rule id).  Ids R10,
R12 and R13 are retired, not reused, so existing ``noqa[...]`` pragmas
keep their meaning.
"""

from __future__ import annotations

from .base import FileContext, ProjectRule, Rule, Violation
from .checkpoint_contract import CheckpointContractRule
from .defaults import MutableDefaultRule
from .exception_taxonomy import ExceptionTaxonomyRule
from .exceptions import SwallowedExceptionRule
from .floats import FloatEqualityRule
from .ingest_clock import IngestClockRule
from .nandiscipline import NanDisciplineRule
from .ordering import UnorderedIterationRule
from .parallel_dispatch import ParallelDispatchRule
from .randomness import ModuleRandomStateRule
from .wallclock import WallClockRule

ALL_RULES: tuple[Rule, ...] = (
    UnorderedIterationRule(),
    FloatEqualityRule(),
    ModuleRandomStateRule(),
    WallClockRule(),
    ParallelDispatchRule(),
    MutableDefaultRule(),
    SwallowedExceptionRule(),
    NanDisciplineRule(),
    IngestClockRule(),
    CheckpointContractRule(),
    ExceptionTaxonomyRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "FileContext",
    "ProjectRule",
    "Rule",
    "Violation",
]
