"""The supervised streaming runtime: a self-healing wrapper around
:class:`~repro.core.streaming.StreamingCAD`.

The detector's primitives (degraded-data masking, bit-identical
checkpoint/restore, fault injection) came out of PR 1; this module adds the
*policy* that turns them into a service that survives real-world failures
without giving up the paper's Table VIII determinism:

* **Watchdog + bounded retries** — every round-completing push is timed
  against ``round_deadline``.  A round that crashes or overruns is
  discarded, the last valid checkpoint is restored, the gap is replayed
  from the in-memory sample buffer, and the round is re-attempted after a
  deterministic seeded exponential backoff (:class:`RetryPolicy`).  When
  the retry budget runs out, a late round is *accepted* (liveness beats
  latency) while a persistently crashing round raises
  :class:`RetryBudgetExceededError`.
* **Per-sensor circuit breakers** — consecutive faulty rounds (NaN
  fraction of a sensor's fresh samples at or above
  ``sensor_fault_threshold``) trip the sensor's breaker; while open, its
  readings are overwritten with NaN so the degraded-data machinery
  quarantines it; after a cooldown it is re-admitted on probation
  (:mod:`repro.runtime.breaker`).
* **Crash-safe auto-checkpointing** — every ``checkpoint_every`` emitted
  rounds, the stream state plus a runtime sidecar (breakers, counters,
  emitted-round high-water mark) is written as a rotated generation
  (:mod:`repro.runtime.rotation`); recovery scans newest-to-oldest and
  falls back past torn files.
* **Bounded ingest + health** — samples flow through a bounded queue with
  a deterministic shedding policy (:mod:`repro.runtime.queue`), and
  :meth:`StreamSupervisor.health` reports a structured
  :class:`HealthSnapshot`.
* **Delivery frontier (optional)** — with an attached
  :class:`~repro.ingest.IngestFrontier`, producers feed timestamped
  per-sensor envelopes via :meth:`StreamSupervisor.ingest` instead of
  aligned sample rows: out-of-order delivery is re-sequenced inside the
  disorder horizon, redelivery dedups idempotently, late envelopes follow
  the frontier's explicit policy, and the frontier's reorder state is
  checkpointed alongside the stream so a restarted process resumes
  mid-reorder without double-feeding.

Determinism contract: with a :class:`~repro.runtime.clock.VirtualClock`
and a seeded :class:`~repro.runtime.chaos.ChaosModel`, a supervised run —
crashes, timeouts, torn checkpoints and all — emits a ``RoundRecord``
sequence bit-identical to the unsupervised fault-free run over the same
samples (``tests/test_oracle.py`` asserts exactly this against the
reference engine).  Quarantine rounds are the one sanctioned divergence:
masking a sensor *is* a data change, per degraded-data semantics, so the
oracle feeds the reference each sample under the mask in force for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep repro.ingest <-> runtime acyclic
    from ..ingest.envelope import SampleEnvelope
    from ..ingest.frontier import FrontierState, IngestFrontier

from ..core.config import CADConfig
from ..core.parallel import pool_generation, restore_pool_generation
from ..core.pipeline import RoundCommunity
from ..core.result import RoundRecord
from ..core.streaming import InvalidSampleError, PushError, StreamingCAD
from ..timeseries.mts import MultivariateTimeSeries
from .backoff import RetryPolicy
from .breaker import BreakerBank, BreakerPolicy
from .chaos import ChaosModel
from .clock import Clock, MonotonicClock
from .errors import (
    ConfigurationError,
    EnvelopeValidationError,
    FrontierStateError,
    RecoveryError,
    RetryBudgetExceededError,
    RoundCrashError,
)
from .health import HealthSnapshot
from .queue import SHED_POLICIES, IngestQueue
from .rotation import CheckpointRotation, RecoveredStream

__all__ = ["SupervisorConfig", "StreamSupervisor"]


def _sidecar_int(value: Any, name: str, minimum: int = 0) -> int:
    """``value`` if it is a JSON integer ``>= minimum``; raises otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(
            f"runtime sidecar field {name!r} is {value!r:.40}, expected an "
            f"integer >= {minimum}"
        )
    return value


_NAN_REFUSED = "reading is NaN; set CADConfig(allow_missing=True) to stream degraded data"


@dataclass(frozen=True)
class _RuntimeState:
    """A checkpoint sidecar's runtime payload, parsed strictly before any
    of it is adopted (see ``StreamSupervisor._restore_runtime_state``)."""

    frontier: "FrontierState | None"
    breakers: BreakerBank
    nan_counts: np.ndarray
    segment_len: int
    max_emitted_index: int
    pool_generation: int
    health: dict[str, int]


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs of the supervised runtime (all deterministic).

    Attributes
    ----------
    retry:
        Backoff/retry policy for transient round failures.
    breaker:
        Per-sensor circuit-breaker policy; ``failure_threshold=0`` disables
        quarantining.
    round_deadline:
        Watchdog deadline per round in seconds; None disables the watchdog.
    sensor_fault_threshold:
        A sensor is *faulty* in a round when at least this fraction of its
        fresh samples were NaN.
    checkpoint_every:
        Emit a checkpoint generation every this many completed rounds;
        0 disables auto-checkpointing (manual ``checkpoint_now`` only).
    keep_checkpoints:
        Checkpoint generations retained by the rotation.
    queue_capacity / shed_policy:
        Bounded-ingest parameters (see :mod:`repro.runtime.queue`).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    round_deadline: float | None = None
    sensor_fault_threshold: float = 0.5
    checkpoint_every: int = 50
    keep_checkpoints: int = 3
    queue_capacity: int = 8192
    shed_policy: str = "drop_oldest"

    def __post_init__(self) -> None:
        if self.round_deadline is not None and self.round_deadline <= 0.0:
            raise ConfigurationError(
                f"round_deadline must be > 0 or None, got {self.round_deadline}"
            )
        if not 0.0 < self.sensor_fault_threshold <= 1.0:
            raise ConfigurationError(
                "sensor_fault_threshold must be in (0, 1], got "
                f"{self.sensor_fault_threshold}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.keep_checkpoints < 1:
            raise ConfigurationError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )


class StreamSupervisor:
    """Self-healing push-based CAD stream (see module docstring).

    Parameters
    ----------
    config, n_sensors:
        Forwarded to :class:`StreamingCAD`.  Quarantining (an enabled
        breaker policy) requires ``config.allow_missing`` because masking
        writes NaN readings.
    supervisor:
        Runtime policy; defaults to :class:`SupervisorConfig`'s defaults.
    checkpoint_dir:
        Directory for rotated checkpoint generations.  Without it the
        supervisor still retries transient failures, but must keep its
        entire replay buffer in memory and cannot survive process death.
    clock:
        Time source; inject a :class:`VirtualClock` for deterministic tests.
    chaos:
        Optional process-fault injector (soak/chaos harness only).
    frontier:
        Optional :class:`~repro.ingest.IngestFrontier`; attaching one
        enables the envelope API (:meth:`ingest` / :meth:`finish`),
        includes the reorder state in every checkpoint, and surfaces the
        frontier counters in :meth:`health`.  ``late_policy="nan_patch"``
        requires ``config.allow_missing`` (patched rows carry NaN).
    resume:
        When True (default) and ``checkpoint_dir`` holds a valid
        generation, adopt it: the stream, breaker states and counters
        continue where the previous process stopped, and rounds it already
        delivered are not re-emitted.
    """

    def __init__(
        self,
        config: CADConfig,
        n_sensors: int,
        *,
        supervisor: SupervisorConfig | None = None,
        checkpoint_dir: str | Path | None = None,
        clock: Clock | None = None,
        chaos: ChaosModel | None = None,
        frontier: "IngestFrontier | None" = None,
        resume: bool = True,
    ) -> None:
        self._sup = supervisor if supervisor is not None else SupervisorConfig()
        if self._sup.breaker.enabled and not config.allow_missing:
            raise ConfigurationError(
                "sensor quarantine masks readings as NaN and needs "
                "CADConfig(allow_missing=True); set it, or disable breakers "
                "with BreakerPolicy(failure_threshold=0)"
            )
        if frontier is not None:
            if frontier.config.n_sensors != n_sensors:
                raise ConfigurationError(
                    f"frontier assembles {frontier.config.n_sensors}-sensor "
                    f"rows, supervisor expects {n_sensors}"
                )
            if frontier.config.late_policy == "nan_patch" and not config.allow_missing:
                raise ConfigurationError(
                    'late_policy="nan_patch" emits NaN-patched rows and needs '
                    "CADConfig(allow_missing=True); set it, or use "
                    'late_policy="drop"'
                )
        self._frontier = frontier
        # Strict configs refuse NaN envelopes before a row holds one.
        self._refuse_nan = not config.allow_missing
        self._config = config
        self._n_sensors = n_sensors
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._chaos = chaos
        self._rotation = (
            CheckpointRotation(checkpoint_dir, keep=self._sup.keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        self._queue = IngestQueue(self._sup.queue_capacity, self._sup.shed_policy)
        self._stream = StreamingCAD(config, n_sensors)
        self._bank = BreakerBank(n_sensors, self._sup.breaker)
        self._mask = np.zeros(n_sensors, dtype=bool)
        self._mask_any = False
        self._history: MultivariateTimeSeries | None = None

        # Fresh-segment NaN accounting feeding the breaker fault verdicts.
        # Counting is lazy: raw samples sit in the replay buffer anyway, so
        # the hot path only moves indices and the isnan scan runs vectorised
        # once per segment (at round boundaries / checkpoint writes).
        self._nan_counts = np.zeros(n_sensors, dtype=np.int64)
        self._segment_start = 0  # absolute sample index the segment began at
        self._counted_upto = 0  # absolute sample index counted so far

        # Replay buffer: raw samples since the oldest retained checkpoint;
        # entry i is absolute sample index _replay_base + i.  Replay
        # re-applies the quarantine mask it re-derives round by round.
        self._replay_raw: list[np.ndarray] = []
        self._replay_base = 0

        # Emission / health bookkeeping.
        self._max_emitted_index = -1
        self._samples_ingested = 0
        self._rounds_completed = 0
        self._degraded_rounds = 0
        self._retries = 0
        self._slow_rounds = 0
        self._crashes_recovered = 0
        self._checkpoints_written = 0
        self._last_checkpoint_round = -1
        self._rounds_since_checkpoint = 0
        self._attempts: dict[int, int] = {}

        # True while the local stage-A pipeline lags the stream: staged
        # rounds (fleet offload) advance stage B without touching the
        # local window→communities pipeline unless worker state rides
        # along.  While stale, in-process round pushes and checkpoints
        # are refused — see process_staged / resync_pipeline.
        self._pipeline_stale = False

        if resume and self._rotation is not None:
            restored = self._rotation.recover(self._restore_runtime_state)
            if restored is not None:
                self._adopt_recovered(restored)

    # ----------------------------------------------------------------- #
    # Public surface
    # ----------------------------------------------------------------- #

    @property
    def stream(self) -> StreamingCAD:
        """The supervised stream (read-only diagnostics)."""
        return self._stream

    @property
    def breakers(self) -> BreakerBank:
        """The per-sensor circuit breakers."""
        return self._bank

    @property
    def frontier(self) -> "IngestFrontier | None":
        """The attached delivery frontier (None when feeding sample rows)."""
        return self._frontier

    @property
    def rotation(self) -> CheckpointRotation | None:
        """The checkpoint rotation (None without a ``checkpoint_dir``)."""
        return self._rotation

    def warm_up(self, history: MultivariateTimeSeries) -> None:
        """Seed detector statistics; kept for from-scratch recovery replay."""
        self._history = history
        self._stream.warm_up(history)

    def submit(self, sample: np.ndarray) -> bool:
        """Offer one sample to the bounded ingest queue (may shed)."""
        sample = self._validate(sample)
        return self._queue.offer(sample)

    def pump(self, max_samples: int | None = None) -> list[RoundRecord]:
        """Drain the ingest queue through the supervised pipeline.

        ``max_samples`` caps how many queued samples are consumed (the
        fleet scheduler's fairness quantum); None drains fully.
        """
        records: list[RoundRecord] = []
        taken = 0
        while len(self._queue):
            if max_samples is not None and taken >= max_samples:
                break
            taken += 1
            records.extend(self._process_raw(self._queue.pop()))
        return records

    @property
    def pending_samples(self) -> int:
        """Validated samples waiting in the bounded ingest queue."""
        return len(self._queue)

    def pop_pending(self) -> np.ndarray:
        """Pop one queued sample without processing it.

        The fleet scheduler uses this to look at the next sample, decide
        whether it completes a round (offload candidate), and route it
        through :meth:`process` or :meth:`process_staged` itself.  Raises
        :class:`~repro.runtime.errors.QueueEmptyError` when empty.
        """
        return self._queue.pop()

    def process(self, sample: np.ndarray) -> list[RoundRecord]:
        """Feed one sample synchronously; return the *new* records.

        Bypasses the ingest queue (a synchronous caller provides its own
        backpressure); use :meth:`submit` + :meth:`pump` for decoupled
        producers that need the bounded queue.
        """
        return self._process_raw(self._validate(sample))

    # ----------------------------------------------------------------- #
    # Staged rounds (fleet stage-A offload)
    # ----------------------------------------------------------------- #

    def stage_window(self, sample: np.ndarray) -> np.ndarray:
        """The masked window the round completed by ``sample`` would score.

        Only legal when ``sample`` is round-completing.  Quarantine masking
        happens *here*, parent-side — the shipped window already carries
        the breaker state, so offloaded stage A needs no knowledge of it.
        Nothing is ingested; feed the same sample to :meth:`process_staged`
        with the computed stage to complete the round.
        """
        return self._stream.peek_window(self._masked(self._validate(sample)))

    def process_staged(
        self,
        sample: np.ndarray,
        stage: "RoundCommunity",
        pipeline_state: dict[str, Any] | None = None,
    ) -> list[RoundRecord]:
        """Complete a round from an offloaded stage-A result.

        ``stage`` must be the result of stage A over exactly
        ``stage_window(sample)`` (usually computed in a pool worker); the
        full supervised envelope — chaos fates, watchdog, retries, breaker
        updates, emission dedup, auto-checkpointing — runs as if the round
        had been computed in-process, and the emitted records are
        bit-identical.  Any recovery mid-round falls back to an in-process
        recompute (replay rebuilds the live pipeline anyway).

        Without ``pipeline_state`` the local stage-A pipeline goes *stale*
        (:attr:`pipeline_stale`); the caller must sync worker state back —
        or call :meth:`resync_pipeline` — before any in-process round or
        checkpoint.
        """
        raw = self._validate(sample)
        if self._stream.samples_seen + 1 != self._stream.next_round_end:
            raise ConfigurationError(
                "process_staged requires a round-completing sample; next "
                f"sample is {self._stream.samples_seen + 1}, round closes at "
                f"{self._stream.next_round_end}"
            )
        return self._process_raw(raw, stage, pipeline_state)

    @property
    def pipeline_stale(self) -> bool:
        """True while the local stage-A pipeline lags offloaded rounds."""
        return self._pipeline_stale

    @property
    def checkpoint_due_next_round(self) -> bool:
        """Would completing one more round trigger an auto-checkpoint?

        The fleet scheduler asks before dispatching an offloaded round so
        it can request the worker's pipeline state exactly when the
        checkpoint will need it.
        """
        return (
            self._rotation is not None
            and self._sup.checkpoint_every > 0
            and self._rounds_since_checkpoint + 1 >= self._sup.checkpoint_every
        )

    @property
    def retries_performed(self) -> int:
        """Total retries so far (scheduler probe for mid-call recoveries)."""
        return self._retries

    def pipeline_state(self) -> dict[str, Any] | None:
        """Picklable stage-A pipeline state to seed a worker cache.

        None for the stateless reference engine.  Refused while the local
        pipeline is stale — shipping a lagging state would corrupt the
        worker's cache.
        """
        if self._pipeline_stale:
            raise RecoveryError(
                "stage-A pipeline is stale (offloaded rounds not yet "
                "synced); resync before exporting its state"
            )
        pipeline = self._stream.detector.pipeline
        if pipeline.kernel is None:
            return None
        return pipeline.to_state()

    def adopt_pipeline_state(self, state: dict[str, Any] | None) -> None:
        """Adopt worker-returned stage-A state; clears :attr:`pipeline_stale`.

        ``None`` is accepted for the stateless reference engine (nothing
        to restore, the pipeline is never meaningfully stale).
        """
        if state is not None:
            self._stream.detector.pipeline.restore_state(state)
        self._pipeline_stale = False

    def resync_pipeline(self) -> None:
        """Rebuild the live stage-A pipeline after offload went stale.

        Restores the newest valid checkpoint and replays the gap in
        process — the same machinery crash recovery uses, minus the
        backoff.  Used when the worker holding the cached pipeline died
        and its state cannot be fetched back.  No-op when already live.
        """
        if not self._pipeline_stale:
            return
        self._restore_and_replay(exclude_last=False)

    def process_many(self, samples: np.ndarray) -> list[RoundRecord]:
        """Feed an ``(n_sensors, t)`` block sample by sample.

        The block is copied once up front; the per-sample loop then feeds
        views of the private copy, skipping ``process``'s per-sample copy.
        """
        samples = np.array(samples, dtype=np.float64)  # private copy
        if samples.ndim != 2 or samples.shape[0] != self._n_sensors:
            raise ConfigurationError(
                f"expected ({self._n_sensors}, t) block, got shape {samples.shape}"
            )
        records: list[RoundRecord] = []
        for column in samples.T:
            records.extend(self._process_raw(column))
        return records

    def run(self, samples: Iterable[np.ndarray]) -> Iterator[RoundRecord]:
        """Generator form of :meth:`process` over a sample source."""
        for sample in samples:
            for record in self.process(np.asarray(sample)):
                yield record

    # ----------------------------------------------------------------- #
    # Envelope API (delivery frontier)
    # ----------------------------------------------------------------- #

    def _require_frontier(self) -> "IngestFrontier":
        if self._frontier is None:
            raise ConfigurationError(
                "no IngestFrontier attached; construct the supervisor with "
                "frontier=IngestFrontier(...) to ingest envelopes"
            )
        return self._frontier

    def ingest(self, envelope: "SampleEnvelope") -> list[RoundRecord]:
        """Feed one timestamped envelope; return the *new* round records.

        Rows are pulled off the frontier one at a time and fed through the
        full supervised pipeline, so a checkpoint written mid-flush still
        captures every not-yet-consumed row inside the frontier state.
        Without ``config.allow_missing`` a NaN reading raises
        :class:`EnvelopeValidationError`, frontier untouched.
        """
        frontier = self._frontier
        if frontier is None:
            frontier = self._require_frontier()
        if self._refuse_nan and math.isnan(getattr(envelope, "value", 0.0)):
            raise EnvelopeValidationError("value", _NAN_REFUSED)
        frontier.push(envelope, max_release=self._sup.queue_capacity)
        # Most envelopes leave no row due: about one per row's worth of
        # sensors moves the watermark.  The frontier's fields are read
        # directly: on this per-envelope path the ``next_emit`` and
        # ``watermark`` properties cost more than the ``pop_ready`` call
        # they would save.
        if frontier._next_emit > frontier._watermark:
            return []
        records: list[RoundRecord] = []
        while True:
            row = frontier.pop_ready()
            if row is None:
                return records
            records.extend(self._process_raw(row))

    def push_envelope(self, envelope: "SampleEnvelope") -> None:
        """Push one envelope into the frontier without flushing any row.

        One envelope may make at most ``queue_capacity`` rows flushable
        under ``late_policy="nan_patch"``: a timestamp further ahead (a
        broken producer clock, say) raises
        :class:`~repro.runtime.errors.EnvelopeValidationError` with the
        frontier untouched, instead of emitting every all-NaN row of the
        gap (see :meth:`IngestFrontier.push`).  :meth:`ingest` applies the
        same bound and NaN refusal.
        """
        frontier = self._frontier
        if frontier is None:
            frontier = self._require_frontier()
        if self._refuse_nan and math.isnan(getattr(envelope, "value", 0.0)):
            raise EnvelopeValidationError("value", _NAN_REFUSED)
        frontier.push(envelope, max_release=self._sup.queue_capacity)

    def ingest_many(
        self, envelopes: Iterable["SampleEnvelope"]
    ) -> list[RoundRecord]:
        """Feed a batch of envelopes (any delivery order)."""
        records: list[RoundRecord] = []
        for envelope in envelopes:
            records.extend(self.ingest(envelope))
        return records

    def finish(self) -> list[RoundRecord]:
        """Drain the frontier past the watermark (end of the stream).

        Rows the watermark was still holding back flush in grid order;
        call once after the last envelope.  No-op without a frontier.
        """
        if self._frontier is None:
            return []
        records: list[RoundRecord] = []
        for row in self._frontier.drain():
            records.extend(self._process_raw(row))
        return records

    def checkpoint_now(self) -> Path | None:
        """Write a checkpoint generation immediately (None without a dir)."""
        if self._rotation is None:
            return None
        return self._write_checkpoint()

    def health(self) -> HealthSnapshot:
        """Structured health report (see :class:`HealthSnapshot`)."""
        stats = self._frontier.stats() if self._frontier is not None else None
        return HealthSnapshot(
            rounds_completed=self._rounds_completed,
            samples_ingested=self._samples_ingested,
            samples_shed=self._queue.shed,
            queue_depth=len(self._queue),
            queue_high_watermark=self._queue.high_watermark,
            queue_policy=self._queue.policy,
            queue_capacity=self._queue.capacity,
            retries=self._retries,
            slow_rounds=self._slow_rounds,
            crashes_recovered=self._crashes_recovered,
            checkpoints_written=self._checkpoints_written,
            last_checkpoint_round=self._last_checkpoint_round,
            checkpoint_lag=self._rounds_since_checkpoint,
            open_breakers=self._bank.open_sensors(),
            half_open_breakers=self._bank.half_open_sensors(),
            breaker_trips=self._bank.total_times_opened(),
            degraded_rounds=self._degraded_rounds,
            samples_reordered=stats.reordered if stats is not None else 0,
            samples_deduped=stats.deduped if stats is not None else 0,
            samples_late_dropped=stats.late_dropped if stats is not None else 0,
            cells_nan_patched=stats.nan_patched if stats is not None else 0,
            rows_dropped=stats.rows_dropped if stats is not None else 0,
            watermark_lag=stats.watermark_lag if stats is not None else 0,
            pool_generation=pool_generation(),
        )

    # ----------------------------------------------------------------- #
    # Supervised per-sample pipeline
    # ----------------------------------------------------------------- #

    def _validate(self, sample: np.ndarray) -> np.ndarray:
        sample = np.array(sample, dtype=np.float64).reshape(-1)  # fresh copy
        if sample.shape != (self._n_sensors,):
            raise ConfigurationError(
                f"expected sample of {self._n_sensors} readings, got {sample.shape}"
            )
        return sample

    def _refresh_mask(self) -> None:
        """Re-derive the cached quarantine mask after breaker changes."""
        if self._sup.breaker.enabled:
            self._mask = self._bank.quarantine_mask()
            self._mask_any = bool(self._mask.any())
        else:
            self._mask_any = False

    def _masked(self, raw: np.ndarray) -> np.ndarray:
        """Apply the current quarantine mask to one raw sample."""
        if not self._mask_any:
            return raw
        masked = raw.copy()
        masked[self._mask] = np.nan
        return masked

    def _process_raw(
        self,
        raw: np.ndarray,
        stage: RoundCommunity | None = None,
        pipeline_state: dict[str, Any] | None = None,
    ) -> list[RoundRecord]:
        masked = self._masked(raw)
        self._replay_raw.append(raw)
        self._samples_ingested += 1
        try:
            if self._stream.samples_seen + 1 < self._stream.next_round_end:
                # Mid-window sample: nothing to supervise, push straight through.
                record = self._stream.push(masked)
                if record is not None:  # pragma: no cover - defensive
                    return self._finish_round(record)
                return []
            return self._guarded_round(masked, stage, pipeline_state)
        except InvalidSampleError:  # refused before ingest: replay must skip it
            self._replay_raw.pop()
            self._samples_ingested -= 1
            raise

    def _guarded_round(
        self,
        masked: np.ndarray,
        stage: RoundCommunity | None = None,
        pipeline_state: dict[str, Any] | None = None,
    ) -> list[RoundRecord]:
        """Watchdog/chaos/retry envelope around a round-completing push.

        With ``stage`` the first attempt applies the offloaded stage-A
        result (:meth:`StreamingCAD.push_staged`); any recovery drops to
        the in-process recompute — replay rebuilt the live pipeline, and
        stage A is pure, so both paths emit the same record.
        """
        round_index = self._stream.detector.rounds_processed
        retry = self._sup.retry
        staged = stage is not None
        while True:
            attempt = self._attempts.get(round_index, 0)
            fate = (
                self._chaos.round_fate(round_index, attempt)
                if self._chaos is not None
                else None
            )
            if fate == "crash":
                failure: Exception = RoundCrashError(round_index, attempt)
                if attempt >= retry.max_retries:
                    raise RetryBudgetExceededError(round_index, attempt + 1, failure)
                self._attempts[round_index] = attempt + 1
                self._retries += 1
                self._crashes_recovered += 1
                self._recover_and_replay(round_index, attempt)
                staged = False
                continue

            start = self._clock.monotonic()
            if fate == "slow" and self._chaos is not None:
                self._clock.sleep(self._chaos.slow_seconds)
            if staged and stage is not None:
                record = self._stream.push_staged(masked, stage, pipeline_state)
                self._pipeline_stale = (
                    pipeline_state is None
                    and self._stream.detector.pipeline.kernel is not None
                )
            else:
                if self._pipeline_stale:
                    raise RecoveryError(
                        f"round {round_index}: in-process push with a stale "
                        "stage-A pipeline; sync worker state or call "
                        "resync_pipeline() first"
                    )
                record = self._stream.push(masked)
            elapsed = self._clock.monotonic() - start
            if record is None:  # pragma: no cover - push/boundary invariant
                raise RecoveryError(
                    f"round {round_index}: push completed no round at a "
                    "window boundary; stream state is inconsistent"
                )

            deadline = self._sup.round_deadline
            if deadline is not None and elapsed > deadline:
                self._slow_rounds += 1
                if attempt < retry.max_retries:
                    # Watchdog: discard the late round, restore, re-attempt.
                    self._attempts[round_index] = attempt + 1
                    self._retries += 1
                    self._recover_and_replay(round_index, attempt)
                    staged = False
                    continue
                # Budget exhausted: accept the late round (liveness first).
            self._attempts.pop(round_index, None)
            return self._finish_round(record)

    def _flush_nan_counts(self) -> None:
        """Catch the NaN accounting up to the stream's current position."""
        end = self._stream.samples_seen
        if end <= self._counted_upto:
            return
        block = self._replay_raw[
            self._counted_upto - self._replay_base : end - self._replay_base
        ]
        self._nan_counts += np.isnan(np.column_stack(block)).sum(axis=1)
        self._counted_upto = end

    def _reset_segment(self) -> None:
        self._nan_counts[:] = 0
        self._segment_start = self._stream.samples_seen
        self._counted_upto = self._stream.samples_seen

    def _round_fault_verdicts(self) -> np.ndarray:
        self._flush_nan_counts()
        segment_len = self._stream.samples_seen - self._segment_start
        fraction = self._nan_counts / max(1, segment_len)
        return fraction >= self._sup.sensor_fault_threshold

    def _finish_round(self, record: RoundRecord) -> list[RoundRecord]:
        """Breaker updates, emission dedup and auto-checkpointing."""
        if self._sup.breaker.enabled:
            if self._bank.record_round(self._round_fault_verdicts()):
                self._refresh_mask()
        self._reset_segment()

        emitted: list[RoundRecord] = []
        if record.index > self._max_emitted_index:
            self._max_emitted_index = record.index
            self._rounds_completed += 1
            if record.quality is not None and record.quality.degraded:
                self._degraded_rounds += 1
            emitted.append(record)

        self._rounds_since_checkpoint += 1
        if (
            self._rotation is not None
            and self._sup.checkpoint_every > 0
            and self._rounds_since_checkpoint >= self._sup.checkpoint_every
        ):
            self._write_checkpoint()
        return emitted

    # ----------------------------------------------------------------- #
    # Checkpointing
    # ----------------------------------------------------------------- #

    def _runtime_state(self) -> dict[str, Any]:
        self._flush_nan_counts()
        frontier_state = (
            self._frontier.to_state() if self._frontier is not None else None
        )
        return {
            "frontier": frontier_state,
            "breakers": self._bank.to_state(),
            "nan_counts": [int(v) for v in self._nan_counts],
            "segment_len": self._stream.samples_seen - self._segment_start,
            "max_emitted_index": self._max_emitted_index,
            # The worker pool outlives crash recovery (workers are
            # stateless between calls); only its respawn counter is
            # persisted so post-restore health keeps counting upward.
            "pool_generation": pool_generation(),
            "health": {
                "rounds_completed": self._rounds_completed,
                "degraded_rounds": self._degraded_rounds,
                "retries": self._retries,
                "slow_rounds": self._slow_rounds,
                "crashes_recovered": self._crashes_recovered,
                "checkpoints_written": self._checkpoints_written,
            },
        }

    def _write_checkpoint(self) -> Path:
        assert self._rotation is not None
        if self._pipeline_stale:
            raise RecoveryError(
                "checkpoint requested while the stage-A pipeline is stale "
                "(offloaded rounds not yet synced); a checkpoint written now "
                "would resume with a lagging kernel — sync worker state or "
                "call resync_pipeline() first"
            )
        round_index = self._stream.detector.rounds_processed
        generation = self._rotation.write(
            self._stream, round_index, self._runtime_state()
        )
        self._checkpoints_written += 1
        self._last_checkpoint_round = round_index
        self._rounds_since_checkpoint = 0
        if self._chaos is not None and self._chaos.corrupts_checkpoint(round_index):
            # Chaos harness: tear the archive we just wrote; a later
            # recovery must fall back past it to the previous generation.
            self._chaos.corrupt_file(generation.path, round_index)
        self._trim_replay()
        return generation.path

    def _trim_replay(self) -> None:
        """Drop replay entries no retained checkpoint could need."""
        if self._rotation is None:
            return
        covered = self._rotation.min_covered_samples()
        if covered <= self._replay_base:
            return
        drop = covered - self._replay_base
        del self._replay_raw[:drop]
        self._replay_base = covered

    # ----------------------------------------------------------------- #
    # Recovery
    # ----------------------------------------------------------------- #

    def _adopt_recovered(self, restored: RecoveredStream) -> None:
        """Resume a previous process's stream (init-time recovery)."""
        if restored.stream.detector.config != self._config:
            raise RecoveryError(
                f"{restored.generation.path}: checkpoint config does not match "
                "the supervisor's CADConfig; resume with the original config"
            )
        if restored.stream.detector.n_sensors != self._n_sensors:
            raise RecoveryError(
                f"{restored.generation.path}: checkpoint has "
                f"{restored.stream.detector.n_sensors} sensors, supervisor "
                f"expects {self._n_sensors}"
            )
        self._stream = restored.stream
        self._pipeline_stale = False
        self._replay_base = restored.stream.samples_seen
        self._replay_raw.clear()
        self._adopt_runtime_state(restored.runtime_state, process_restart=True)
        self._last_checkpoint_round = restored.generation.round_index
        self._rounds_since_checkpoint = 0

    def _restore_runtime_state(self, state: dict[str, Any]) -> _RuntimeState | None:
        """Parse a sidecar's runtime payload without adopting any of it.

        A key an older sidecar lacks takes its default; a key that is
        present but malformed (wrong type, wrong length, negative count,
        unknown breaker state, corrupt frontier) returns None, so
        :meth:`CheckpointRotation.recover` falls back past the generation.
        The name pairs this reader with :meth:`_runtime_state` for R11's
        save/load key-symmetry check.
        """
        try:
            return self._parse_runtime_state(state)
        except (ConfigurationError, FrontierStateError):
            return None

    def _parse_runtime_state(self, state: dict[str, Any]) -> _RuntimeState:
        n = self._n_sensors
        breakers = state.get("breakers")
        if breakers is None:
            bank = BreakerBank(n, self._sup.breaker)
        elif isinstance(breakers, list) and len(breakers) == n:
            bank = BreakerBank.from_state(self._sup.breaker, breakers)
        else:
            raise ConfigurationError(f"runtime sidecar holds no {n} breaker states")
        counts = state.get("nan_counts")
        if counts is None:
            nan_counts = np.zeros(n, dtype=np.int64)
        elif isinstance(counts, list) and len(counts) == n:
            nan_counts = np.array(
                [_sidecar_int(c, "nan_counts") for c in counts], dtype=np.int64
            )
        else:
            raise ConfigurationError(f"runtime sidecar holds no {n} NaN counts")
        frontier_state = state.get("frontier")
        frontier = (
            self._frontier.parse_state(frontier_state)
            if self._frontier is not None and frontier_state is not None
            else None
        )
        health = state.get("health", {})
        if not isinstance(health, dict):
            raise ConfigurationError("runtime sidecar health is not an object")
        counters: dict[str, int] = {}
        for name in (
            "rounds_completed",
            "degraded_rounds",
            "retries",
            "slow_rounds",
            "crashes_recovered",
            "checkpoints_written",
        ):
            counters[name] = _sidecar_int(health.get(name, 0), name)
        return _RuntimeState(
            frontier=frontier,
            breakers=bank,
            nan_counts=nan_counts,
            segment_len=_sidecar_int(state.get("segment_len", 0), "segment_len"),
            max_emitted_index=_sidecar_int(
                state.get("max_emitted_index", -1), "max_emitted_index", -1
            ),
            pool_generation=_sidecar_int(
                state.get("pool_generation", 0), "pool_generation"
            ),
            health=counters,
        )

    def _adopt_runtime_state(
        self, state: _RuntimeState, *, process_restart: bool = False
    ) -> None:
        self._bank = state.breakers
        self._nan_counts = state.nan_counts
        self._refresh_mask()
        self._segment_start = self._stream.samples_seen - state.segment_len
        self._counted_upto = self._stream.samples_seen
        self._max_emitted_index = max(
            self._max_emitted_index, state.max_emitted_index
        )
        restore_pool_generation(state.pool_generation)
        if process_restart:
            # Frontier reorder state resumes only across process death: an
            # in-process retry keeps the *live* frontier, because rows it
            # already flushed sit in the replay buffer and rewinding it
            # would re-flush them on the next envelope.
            if self._frontier is not None and state.frontier is not None:
                self._frontier.restore_state(state.frontier)
            health = state.health
            self._rounds_completed = health["rounds_completed"]
            self._degraded_rounds = health["degraded_rounds"]
            self._retries = health["retries"]
            self._slow_rounds = health["slow_rounds"]
            self._crashes_recovered = health["crashes_recovered"]
            self._checkpoints_written = health["checkpoints_written"]

    def _recover_and_replay(self, round_index: int, attempt: int) -> None:
        """Back off, restore the newest valid state, replay up to the
        failing sample (exclusive), leaving it ready for re-attempt."""
        self._clock.sleep(self._sup.retry.delay(round_index, attempt))
        self._restore_and_replay(exclude_last=True)

    def _restore_and_replay(self, *, exclude_last: bool) -> None:
        """Restore the newest valid state and replay the buffered gap.

        ``exclude_last=True`` leaves the final replay entry (the failing
        sample of a retried round) for the caller to re-attempt;
        ``exclude_last=False`` replays everything (pipeline resync after
        offload — every buffered sample was already stage-B-processed).
        Either way the stream object is rebuilt in-process, so the local
        stage-A pipeline comes out live.
        """
        restored = (
            self._rotation.recover(self._restore_runtime_state)
            if self._rotation is not None
            else None
        )
        if restored is not None:
            self._stream = restored.stream
            self._adopt_runtime_state(restored.runtime_state)
            skip = restored.stream.samples_seen - self._replay_base
            if skip < 0:
                raise RecoveryError(
                    f"replay buffer starts at sample {self._replay_base} but "
                    f"the recovered checkpoint is at {restored.stream.samples_seen}; "
                    "state cannot be reconstructed"
                )
        elif self._replay_base == 0:
            # No checkpoint anywhere: rebuild from scratch (including the
            # warm-up, which the supervisor kept for exactly this).
            self._stream = StreamingCAD(self._config, self._n_sensors)
            if self._history is not None:
                self._stream.warm_up(self._history)
            self._bank = BreakerBank(self._n_sensors, self._sup.breaker)
            self._refresh_mask()
            self._reset_segment()
            skip = 0
        else:
            raise RecoveryError(
                "no valid checkpoint generation survived and the replay "
                f"buffer only reaches back to sample {self._replay_base}; "
                "cannot reconstruct the stream"
            )
        # Replay everything between the restored state and the failing
        # sample; the failing sample itself is re-attempted by the caller
        # (with exclude_last=False there is no failing sample to hold back).
        self._pipeline_stale = False
        stop = len(self._replay_raw) - (1 if exclude_last else 0)
        self._replay_range(skip, stop)

    def _replay_range(self, start: int, stop: int) -> None:
        """Re-feed replay entries ``[start, stop)`` through the detector.

        Pushes run in per-round chunks via ``push_many`` — the quarantine
        mask can only change at round boundaries, so masking each raw chunk
        with the mask re-derived so far reproduces exactly what the chunk
        was first fed; a chunked failure surfaces its exact absolute sample
        offset via ``PushError.index``.  Emission is naturally suppressed
        (all replayed rounds are at or below the emitted high-water mark),
        while breaker/NaN accounting is re-derived so post-recovery state
        matches the pre-failure state.
        """
        i = start
        while i < stop:
            take = min(
                stop - i, self._stream.next_round_end - self._stream.samples_seen
            )
            block = np.column_stack(self._replay_raw[i : i + take])
            if self._mask_any:
                block[self._mask] = np.nan
            try:
                records = self._stream.push_many(block)
            except PushError as exc:
                raise RecoveryError(
                    "replay failed at absolute sample "
                    f"{self._replay_base + i + exc.index}: {exc}"
                ) from exc
            for record in records:
                if self._sup.breaker.enabled:
                    if self._bank.record_round(self._round_fault_verdicts()):
                        self._refresh_mask()
                self._reset_segment()
                if record.index > self._max_emitted_index:  # pragma: no cover
                    raise RecoveryError(
                        f"replay produced unemitted round {record.index}; "
                        "replay range and emission bookkeeping disagree"
                    )
            i += take
