"""Supervised streaming runtime for the CAD detector.

This package turns the detector's fault-tolerance *primitives* (degraded
data masking, bit-identical checkpoints, fault injection) into a
self-healing *service*: a :class:`StreamSupervisor` that wraps
:class:`~repro.core.streaming.StreamingCAD` with a per-round watchdog,
deterministic retry/backoff, per-sensor circuit breakers, crash-safe
rotated checkpoints, a bounded ingest queue and a structured health
report.  See DESIGN.md section 8 for the failure model.
"""

from .backoff import RetryPolicy
from .breaker import BreakerBank, BreakerPolicy, BreakerState, SensorBreaker
from .chaos import ChaosModel
from .clock import Clock, MonotonicClock, VirtualClock
from .errors import (
    CheckpointError,
    ConfigurationError,
    EnvelopeValidationError,
    FleetError,
    FleetManifestError,
    FrontierStateError,
    IngestError,
    InvalidSampleError,
    PushError,
    QueueOverflowError,
    RecoveryError,
    RetryBudgetExceededError,
    RoundCrashError,
    SequenceConflictError,
    SupervisorError,
    TransientRoundError,
    UnknownTenantError,
)
from .health import HealthSnapshot
from .queue import SHED_POLICIES, IngestQueue
from .rotation import CheckpointRotation, Generation, RecoveredStream
from .supervisor import StreamSupervisor, SupervisorConfig

__all__ = [
    "RetryPolicy",
    "BreakerBank",
    "BreakerPolicy",
    "BreakerState",
    "SensorBreaker",
    "ChaosModel",
    "Clock",
    "MonotonicClock",
    "VirtualClock",
    "CheckpointError",
    "ConfigurationError",
    "EnvelopeValidationError",
    "FleetError",
    "FleetManifestError",
    "UnknownTenantError",
    "FrontierStateError",
    "IngestError",
    "InvalidSampleError",
    "PushError",
    "QueueOverflowError",
    "RecoveryError",
    "SequenceConflictError",
    "RetryBudgetExceededError",
    "RoundCrashError",
    "SupervisorError",
    "TransientRoundError",
    "HealthSnapshot",
    "SHED_POLICIES",
    "IngestQueue",
    "CheckpointRotation",
    "Generation",
    "RecoveredStream",
    "StreamSupervisor",
    "SupervisorConfig",
]
