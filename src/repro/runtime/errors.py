"""Structured error taxonomy of the streaming runtime.

Every failure the supervisor handles (or gives up on) is typed, so policy
code switches on exception class instead of string-matching messages:

``SupervisorError``
    Base of everything raised by :mod:`repro.runtime`.
``ConfigurationError``
    A runtime/ingest component was handed invalid parameters — at
    construction (a bad policy/config value) or at a call site (a sample
    block of the wrong shape).  Also derives from :class:`ValueError`, so
    pre-taxonomy callers catching ``ValueError`` keep working.
``QueueEmptyError``
    Popping from an empty ingest queue.  Also derives from
    :class:`IndexError` (the builtin ``deque``/``list`` convention it
    replaces).
``TransientRoundError``
    A round failed in a way worth retrying (the supervisor restores the
    last valid checkpoint, replays, backs off and re-attempts).  Subtype:
    ``RoundCrashError`` (the round died mid-flight — in production an
    abrupt process exit, in the chaos harness an injected crash).  A round
    that merely overruns ``round_deadline`` raises nothing: the watchdog
    counts it in ``slow_rounds``, discards the late record, restores and
    re-attempts it, and accepts it once the retry budget is spent.
``RetryBudgetExceededError``
    A round kept failing past ``RetryPolicy.max_retries``; the stream
    cannot make progress and the failure is surfaced to the operator.
``RecoveryError``
    Crash recovery itself failed: no valid checkpoint generation survived
    *and* the in-memory replay buffer cannot cover the gap.
``QueueOverflowError``
    The bounded ingest queue overflowed under the ``"error"`` shedding
    policy (the explicit-backpressure mode; the drop policies shed instead).
``IngestError``
    Base of the delivery-frontier rejection taxonomy (:mod:`repro.ingest`).
    Subtypes: ``EnvelopeValidationError`` (an envelope failed schema /
    shape / dtype / finiteness validation and never entered the reorder
    buffer), ``SequenceConflictError`` (two envelopes with *different*
    sequence numbers claimed the same grid cell — producer-side numbering
    is broken, which dedup must not paper over), and ``FrontierStateError``
    (a checkpointed frontier state could not be restored consistently).
``FleetError``
    Base of the multi-tenant fleet runtime taxonomy (:mod:`repro.fleet`).
    Subtypes: ``UnknownTenantError`` (a sample/envelope named a tenant the
    shard router does not know — fleet membership is declared up front,
    never inferred from traffic) and ``FleetManifestError`` (the fleet
    checkpoint manifest disagrees with the configured tenant set, shard
    count, or per-tenant lineage, so a blind resume would silently mix
    checkpoint lineages across fleets).

:class:`~repro.core.checkpoint.CheckpointError` (corrupt/unreadable
checkpoint file), :class:`~repro.core.streaming.PushError` (mid-batch
push failure with the exact offset) and
:class:`~repro.core.streaming.InvalidSampleError` (non-finite readings in a
pushed sample) are re-exported here so runtime callers import the full
taxonomy from one place.
"""

from __future__ import annotations

from ..core.checkpoint import CheckpointError
from ..core.streaming import InvalidSampleError, PushError

__all__ = [
    "SupervisorError",
    "ConfigurationError",
    "QueueEmptyError",
    "TransientRoundError",
    "RoundCrashError",
    "RetryBudgetExceededError",
    "RecoveryError",
    "QueueOverflowError",
    "IngestError",
    "EnvelopeValidationError",
    "SequenceConflictError",
    "FrontierStateError",
    "FleetError",
    "UnknownTenantError",
    "FleetManifestError",
    "CheckpointError",
    "PushError",
    "InvalidSampleError",
]


class SupervisorError(Exception):
    """Base class for every error raised by the streaming runtime."""

    #: The fleet tenant whose supervisor raised the error; None outside a
    #: :class:`~repro.fleet.FleetManager`, which sets it (and adds a note).
    tenant: str | None = None


class ConfigurationError(SupervisorError, ValueError):
    """Invalid parameters handed to a runtime/ingest component.

    Covers both construction-time values (a negative retry budget) and
    call-time arguments (a sample block of the wrong shape).  Derives from
    :class:`ValueError` too: the runtime layers raised plain ``ValueError``
    before the taxonomy existed, and callers validating inputs with
    ``except ValueError`` must keep working (R14 migration).
    """


class QueueEmptyError(SupervisorError, IndexError):
    """Popped an empty ingest queue (also an :class:`IndexError`)."""


class TransientRoundError(SupervisorError):
    """A round failed in a retryable way.

    Attributes
    ----------
    round_index:
        Global index of the round that failed (detector numbering, i.e.
        warm-up rounds included).
    attempt:
        0-based attempt at which the failure happened.
    """

    def __init__(self, round_index: int, attempt: int, reason: str) -> None:
        super().__init__(f"round {round_index} (attempt {attempt}): {reason}")
        self.round_index = round_index
        self.attempt = attempt
        self.reason = reason


class RoundCrashError(TransientRoundError):
    """The round crashed mid-flight (process death / injected chaos)."""

    def __init__(self, round_index: int, attempt: int) -> None:
        super().__init__(round_index, attempt, "crashed mid-round")


class RetryBudgetExceededError(SupervisorError):
    """A round exhausted its retry budget without completing."""

    def __init__(self, round_index: int, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"round {round_index} failed {attempts} time(s); giving up: {last}"
        )
        self.round_index = round_index
        self.attempts = attempts
        self.last = last


class RecoveryError(SupervisorError):
    """Crash recovery could not reconstruct a consistent stream state."""


class QueueOverflowError(SupervisorError):
    """The bounded ingest queue overflowed under the ``"error"`` policy."""

    def __init__(self, capacity: int) -> None:
        super().__init__(
            f"ingest queue overflowed (capacity {capacity}); "
            "consumer is not keeping up"
        )
        self.capacity = capacity


class IngestError(SupervisorError):
    """Base class of the delivery-frontier rejection taxonomy."""


class EnvelopeValidationError(IngestError):
    """A :class:`~repro.ingest.SampleEnvelope` failed validation.

    Attributes
    ----------
    field:
        Name of the envelope field that failed (``"sensor"``, ``"seq"``,
        ``"timestamp"``, ``"value"``).
    reason:
        Human-readable description of the violation.
    """

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"invalid envelope {field}: {reason}")
        self.field = field
        self.reason = reason


class SequenceConflictError(IngestError):
    """Two different sequence numbers claimed the same grid cell.

    Redelivery of the *same* ``(sensor, seq)`` is idempotent (deduped);
    two *different* sequence numbers landing on one ``(sensor, row)`` cell
    mean the producer's numbering or clock is broken, and silently keeping
    either value would corrupt the stream.
    """

    def __init__(self, sensor: int, row: int, held_seq: int, new_seq: int) -> None:
        super().__init__(
            f"sensor {sensor} row {row}: cell already holds seq {held_seq}, "
            f"seq {new_seq} maps to the same grid position; producer "
            "sequence numbering and timestamps disagree"
        )
        self.sensor = sensor
        self.row = row
        self.held_seq = held_seq
        self.new_seq = new_seq


class FrontierStateError(IngestError):
    """A checkpointed frontier state payload is inconsistent or foreign."""


class FleetError(SupervisorError):
    """Base class of the multi-tenant fleet runtime taxonomy."""


class UnknownTenantError(FleetError, KeyError):
    """A sample or envelope named a tenant the fleet does not own.

    Fleet membership is declared at construction (the shard router hashes
    a fixed tenant set); traffic for an undeclared tenant is a routing
    bug upstream, not a reason to silently create a pipeline.  Also an
    :class:`KeyError`, matching the mapping-lookup idiom it replaces.
    """

    def __init__(self, tenant: str) -> None:
        super().__init__(f"unknown tenant {tenant!r}; not in the fleet's tenant set")
        self.tenant = tenant

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class FleetManifestError(FleetError):
    """The fleet checkpoint manifest cannot be reconciled with the fleet.

    Raised when a resume finds a manifest whose tenant set, shard count,
    or per-tenant checkpoint lineage disagrees with the configured fleet:
    adopting it blindly would mix checkpoint lineages across fleets and
    break the per-tenant bit-identity contract.
    """
