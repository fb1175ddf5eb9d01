"""Timestamped ingest frontier for the CAD streaming pipeline.

Production telemetry arrives out-of-order, duplicated, late and
clock-skewed.  This package reconstructs the aligned n-sensor sample rows
the detector's round grid assumes, deterministically:

* :class:`SampleEnvelope` — the typed, validated delivery unit (sensor id,
  sequence number, producer timestamp, payload);
* :class:`IngestFrontier` — bounded reorder buffer with watermark-driven
  in-order flush, explicit late policy (``drop`` / ``nan_patch``),
  idempotent ``(sensor, seq)`` dedup and per-sensor clock-skew alignment;
* :class:`DeliveryChaosModel` — seeded, counter-keyed delivery-fault
  injection (bounded shuffling, redelivery, skew) for the soak harness.

Rejections are typed (:mod:`repro.runtime.errors`):
``EnvelopeValidationError``, ``SequenceConflictError``,
``FrontierStateError``.  See DESIGN.md §9 for the delivery-semantics
contract.
"""

from ..runtime.errors import (
    EnvelopeValidationError,
    FrontierStateError,
    IngestError,
    SequenceConflictError,
)
from .chaos import DeliveryChaosModel
from .envelope import SampleEnvelope, envelopes_from_matrix
from .frontier import (
    LATE_POLICIES,
    FrontierConfig,
    FrontierState,
    FrontierStats,
    IngestFrontier,
)

__all__ = [
    "SampleEnvelope",
    "envelopes_from_matrix",
    "LATE_POLICIES",
    "FrontierConfig",
    "FrontierState",
    "FrontierStats",
    "IngestFrontier",
    "DeliveryChaosModel",
    "IngestError",
    "EnvelopeValidationError",
    "SequenceConflictError",
    "FrontierStateError",
]
