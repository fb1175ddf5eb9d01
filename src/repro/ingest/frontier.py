"""The deterministic ingest frontier: reorder, dedup, align, watermark.

:class:`IngestFrontier` sits between any envelope source and
``StreamingCAD``/``StreamSupervisor`` and turns messy delivery —
out-of-order, duplicated, late and clock-skewed envelopes — back into the
aligned n-sensor sample rows the detector's round grid assumes:

* **Grid alignment** — each envelope's timestamp (minus the sensor's
  configured clock-skew offset) is snapped to the nearest grid position
  ``round((t - epoch) / period)``.  Ordering authority is the *envelope*
  timestamp, never the host clock (lint rule R9).
* **Bounded reorder buffer + watermark** — rows live in the buffer until
  the watermark (``max observed row - disorder_horizon``) passes them, at
  which point they flush *in grid order*.  The horizon bounds both memory
  and staleness: a row can never be held back by more than
  ``disorder_horizon`` ticks of progress.
* **Late policy** — an envelope for an already-flushed row is counted and
  dropped; what happened to its row at flush time is the policy choice:
  ``"nan_patch"`` emitted the row with NaN in the never-received cells
  (PR 1's NaN-aware degraded-data path absorbs them; wholly-missing rows
  become all-NaN rows so the grid keeps its shape), ``"drop"`` skipped
  incomplete rows entirely (the stream sees only complete rows, and needs
  no ``allow_missing``).
* **Idempotent dedup** — the cell ``(sensor, row)`` remembers the sequence
  number that filled it; redelivery of the same ``(sensor, seq)`` is a
  counted no-op, while a *different* seq claiming the same cell raises
  :class:`~repro.runtime.errors.SequenceConflictError` (producer numbering
  is broken; silently keeping either value would corrupt the stream).

Everything is a pure function of the envelope stream: no wall clock, no
hidden RNG.  The same envelopes in any arrival order (within the horizon)
flush the same rows — that is the bit-identity contract
``benchmarks/bench_delivery.py`` soaks and ``tests/test_ingest*.py`` prove.

State round-trips through :meth:`IngestFrontier.to_state` /
:meth:`IngestFrontier.restore_state` (JSON-safe), which is how the
supervisor checkpoints a frontier mid-reorder and a restarted process
resumes it: redelivered envelopes for rows still pending dedup away, rows
already flushed count as late, nothing double-feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..runtime.errors import (
    ConfigurationError,
    EnvelopeValidationError,
    FrontierStateError,
    SequenceConflictError,
)
from .envelope import SampleEnvelope

__all__ = ["LATE_POLICIES", "FrontierConfig", "FrontierStats", "IngestFrontier"]

LATE_POLICIES = ("drop", "nan_patch")

_STATE_FORMAT = "repro-ingest-frontier"
_STATE_VERSION = 1

#: Counter names serialised into checkpoints and reported by ``stats``.
_COUNTERS = (
    "accepted",
    "reordered",
    "deduped",
    "late_dropped",
    "nan_patched",
    "rows_emitted",
    "rows_dropped",
)


@dataclass(frozen=True)
class FrontierConfig:
    """Policy knobs of one ingest frontier (all deterministic).

    Attributes
    ----------
    n_sensors:
        Width of the assembled sample rows.
    disorder_horizon:
        Reorder window in grid ticks: a row flushes once an envelope for a
        row this much newer has been observed.  0 means no reordering
        tolerance — a row flushes as soon as any newer row is observed
        (strictly-ordered sources only).
    late_policy:
        ``"nan_patch"`` (default): rows flush with NaN in never-received
        cells; ``"drop"``: incomplete rows are skipped entirely.
    dedup:
        When True (default), redelivered ``(sensor, seq)`` envelopes are
        idempotent and conflicting sequence numbers raise; when False, the
        last write to a cell wins (trusted single-delivery sources).
    epoch, period:
        The round grid: position ``r`` spans timestamp
        ``epoch + r * period``.
    skew:
        Optional per-sensor clock offsets *subtracted* from envelope
        timestamps before grid snapping — the correction for producers
        whose clocks run ahead/behind.  Offsets below ``period / 2`` are
        absorbed by snapping even without correction.
    """

    n_sensors: int
    disorder_horizon: int = 64
    late_policy: str = "nan_patch"
    dedup: bool = True
    epoch: float = 0.0
    period: float = 1.0
    skew: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ConfigurationError(f"n_sensors must be >= 1, got {self.n_sensors}")
        if self.disorder_horizon < 0:
            raise ConfigurationError(
                f"disorder_horizon must be >= 0, got {self.disorder_horizon}"
            )
        if self.late_policy not in LATE_POLICIES:
            raise ConfigurationError(
                f"late_policy must be one of {LATE_POLICIES}, got {self.late_policy!r}"
            )
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ConfigurationError(f"period must be finite and > 0, got {self.period}")
        if not math.isfinite(self.epoch):
            raise ConfigurationError(f"epoch must be finite, got {self.epoch}")
        if self.skew is not None:
            if len(self.skew) != self.n_sensors:
                raise ConfigurationError(
                    f"skew must give one offset per sensor ({self.n_sensors}), "
                    f"got {len(self.skew)}"
                )
            if not all(math.isfinite(s) for s in self.skew):
                raise ConfigurationError("skew offsets must all be finite")
            object.__setattr__(self, "skew", tuple(float(s) for s in self.skew))


@dataclass(frozen=True)
class FrontierStats:
    """Point-in-time counters of one frontier (feeds ``HealthSnapshot``).

    Attributes
    ----------
    accepted:
        Envelopes written into the reorder buffer.
    reordered:
        Envelopes that arrived after a newer row had been observed, i.e.
        actual out-of-order deliveries the buffer re-sequenced.
    deduped:
        Redelivered ``(sensor, seq)`` envelopes absorbed idempotently.
    late_dropped:
        Envelopes for already-flushed rows, discarded per the late policy.
    nan_patched:
        Cells emitted as NaN because their envelope never arrived in time
        (``late_policy="nan_patch"`` only).
    rows_emitted, rows_dropped:
        Rows flushed to the consumer / skipped as incomplete
        (``late_policy="drop"`` only).
    watermark_lag:
        Rows currently between the flush frontier and the newest observed
        row — the staleness an immediate final flush would catch up.
    pending_rows:
        Rows currently materialised in the reorder buffer.
    """

    accepted: int = 0
    reordered: int = 0
    deduped: int = 0
    late_dropped: int = 0
    nan_patched: int = 0
    rows_emitted: int = 0
    rows_dropped: int = 0
    watermark_lag: int = 0
    pending_rows: int = 0


class IngestFrontier:
    """Reorder/dedup/align frontier over one envelope stream (see module
    docstring).

    The flush API is pull-based so a supervisor can checkpoint between
    rows: :meth:`push` only stages, :meth:`pop_ready` hands out the next
    flushable row *and only then* advances the frontier — at every moment,
    rows not yet popped are still inside :meth:`to_state`.
    """

    def __init__(self, config: FrontierConfig) -> None:
        self._cfg = config
        # Pending rows by grid position: (values, producer seq per cell).
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._next_emit = 0
        self._max_row = -1
        self._watermark = -1 - max(1, config.disorder_horizon)
        self.accepted = 0
        self.reordered = 0
        self.deduped = 0
        self.late_dropped = 0
        self.nan_patched = 0
        self.rows_emitted = 0
        self.rows_dropped = 0

    @property
    def config(self) -> FrontierConfig:
        return self._cfg

    @property
    def watermark(self) -> int:
        """Highest row index currently allowed to flush.

        At least one tick below the newest observed row even at horizon 0:
        the newest row may still be mid-assembly (its remaining sensors'
        envelopes are in flight in any legal in-order delivery), so it can
        only flush via :meth:`drain` or once a newer row is observed.
        Cached: it moves only with the newest observed row.
        """
        return self._watermark

    def _set_max_row(self, max_row: int) -> None:
        self._max_row = max_row
        self._watermark = max_row - max(1, self._cfg.disorder_horizon)

    @property
    def next_emit(self) -> int:
        """Grid position of the next row to flush."""
        return self._next_emit

    # ----------------------------------------------------------------- #
    # Ingest
    # ----------------------------------------------------------------- #

    def position(self, envelope: SampleEnvelope) -> int:
        """Grid position of one envelope (skew-corrected, snapped)."""
        timestamp = envelope.timestamp
        if self._cfg.skew is not None:
            timestamp -= self._cfg.skew[envelope.sensor]
        pos = int(round((timestamp - self._cfg.epoch) / self._cfg.period))
        if pos < 0:
            raise EnvelopeValidationError(
                "timestamp",
                f"{envelope.timestamp} maps to grid position {pos}, before "
                f"the epoch {self._cfg.epoch}",
            )
        return pos

    def push(self, envelope: SampleEnvelope) -> None:
        """Stage one envelope; flushable rows come off :meth:`pop_ready`.

        Raises :class:`EnvelopeValidationError` for an out-of-range sensor
        or a pre-epoch timestamp, :class:`SequenceConflictError` when
        dedup detects inconsistent producer numbering.  Duplicate and late
        envelopes are absorbed silently (counted, never raised): both are
        normal delivery weather, not errors.
        """
        if not isinstance(envelope, SampleEnvelope):
            raise EnvelopeValidationError(
                "envelope", f"expected SampleEnvelope, got {type(envelope).__name__}"
            )
        if envelope.sensor >= self._cfg.n_sensors:
            raise EnvelopeValidationError(
                "sensor",
                f"{envelope.sensor} outside [0, {self._cfg.n_sensors})",
            )
        pos = self.position(envelope)
        if pos < self._next_emit:
            self.late_dropped += 1
            return
        if pos < self._max_row:
            self.reordered += 1
        entry = self._pending.get(pos)
        if entry is None:
            entry = (
                np.full(self._cfg.n_sensors, np.nan),
                np.full(self._cfg.n_sensors, -1, dtype=np.int64),
            )
            self._pending[pos] = entry
        row, seqs = entry
        held = int(seqs[envelope.sensor])
        if held >= 0 and self._cfg.dedup:
            if held == envelope.seq:
                self.deduped += 1
                return
            raise SequenceConflictError(envelope.sensor, pos, held, envelope.seq)
        row[envelope.sensor] = envelope.value
        seqs[envelope.sensor] = envelope.seq
        if pos > self._max_row:
            self._set_max_row(pos)
        self.accepted += 1

    # ----------------------------------------------------------------- #
    # Flush
    # ----------------------------------------------------------------- #

    def pop_ready(self) -> np.ndarray | None:
        """Flush the next row past the watermark, or None if none is due.

        Under ``late_policy="drop"``, incomplete rows are consumed and
        skipped internally, so a non-None return is always a complete row.
        """
        while self._next_emit <= self._watermark:
            row = self._emit_next()
            if row is not None:
                return row
        return None

    def drain(self) -> Iterator[np.ndarray]:
        """Flush everything up to the newest observed row (end of stream)."""
        while self._next_emit <= self._max_row:
            row = self._emit_next()
            if row is not None:
                yield row

    def _emit_next(self) -> np.ndarray | None:
        pos = self._next_emit
        self._next_emit = pos + 1
        entry = self._pending.pop(pos, None)
        if entry is None:
            values = np.full(self._cfg.n_sensors, np.nan)
            missing = self._cfg.n_sensors
        else:
            values, seqs = entry
            missing = int((seqs < 0).sum())
        if self._cfg.late_policy == "drop":
            if missing > 0:
                self.rows_dropped += 1
                return None
        else:
            self.nan_patched += missing
        self.rows_emitted += 1
        return values

    # ----------------------------------------------------------------- #
    # Introspection / checkpointing
    # ----------------------------------------------------------------- #

    def stats(self) -> FrontierStats:
        return FrontierStats(
            accepted=self.accepted,
            reordered=self.reordered,
            deduped=self.deduped,
            late_dropped=self.late_dropped,
            nan_patched=self.nan_patched,
            rows_emitted=self.rows_emitted,
            rows_dropped=self.rows_dropped,
            watermark_lag=max(0, self._max_row - self._next_emit + 1),
            pending_rows=len(self._pending),
        )

    def to_state(self) -> dict[str, Any]:
        """JSON-safe snapshot (NaN cells serialise as ``null``)."""
        return {
            "format": _STATE_FORMAT,
            "version": _STATE_VERSION,
            "next_emit": self._next_emit,
            "max_row": self._max_row,
            "counters": {name: int(getattr(self, name)) for name in _COUNTERS},
            "pending": {
                str(pos): [None if np.isnan(v) else float(v) for v in row]
                for pos, (row, _) in sorted(self._pending.items())
            },
            "pending_seq": {
                str(pos): [int(s) for s in seqs]
                for pos, (_, seqs) in sorted(self._pending.items())
            },
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`to_state` snapshot (checkpoint resume path)."""
        if not isinstance(state, dict) or state.get("format") != _STATE_FORMAT:
            raise FrontierStateError(f"not a frontier state payload: {state!r:.80}")
        if state.get("version") != _STATE_VERSION:
            raise FrontierStateError(
                f"unsupported frontier state version {state.get('version')!r}"
            )
        try:
            next_emit = int(state["next_emit"])
            max_row = int(state["max_row"])
            counters = {name: int(state["counters"][name]) for name in _COUNTERS}
            pending: dict[int, np.ndarray] = {}
            pending_seq: dict[int, np.ndarray] = {}
            for key, row in state["pending"].items():
                if len(row) != self._cfg.n_sensors:
                    raise FrontierStateError(
                        f"pending row {key} has {len(row)} cells, expected "
                        f"{self._cfg.n_sensors}"
                    )
                pending[int(key)] = np.array(
                    [np.nan if v is None else float(v) for v in row]
                )
            for key, seqs in state["pending_seq"].items():
                if len(seqs) != self._cfg.n_sensors:
                    raise FrontierStateError(
                        f"pending_seq row {key} has {len(seqs)} cells, expected "
                        f"{self._cfg.n_sensors}"
                    )
                pending_seq[int(key)] = np.asarray(seqs, dtype=np.int64)
        except FrontierStateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FrontierStateError(f"malformed frontier state: {exc}") from exc
        if set(pending) != set(pending_seq):
            raise FrontierStateError("pending and pending_seq rows disagree")
        if next_emit < 0 or max_row < next_emit - 1:
            raise FrontierStateError(
                f"impossible positions: next_emit {next_emit}, max_row {max_row}"
            )
        if any(not next_emit <= pos <= max_row for pos in pending):
            raise FrontierStateError(
                f"pending rows outside [{next_emit}, {max_row}]"
            )
        self._next_emit = next_emit
        self._set_max_row(max_row)
        self._pending = {pos: (pending[pos], pending_seq[pos]) for pos in pending}
        for name, count in counters.items():
            setattr(self, name, count)
