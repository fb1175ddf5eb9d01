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
``tests/test_ingest.py`` and ``tests/test_oracle.py`` prove.

State round-trips through :meth:`IngestFrontier.to_state` /
:meth:`IngestFrontier.restore_state` (JSON-safe; :meth:`~IngestFrontier.parse_state`
validates a snapshot without adopting it), which is how the
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

__all__ = [
    "LATE_POLICIES",
    "FrontierConfig",
    "FrontierState",
    "FrontierStats",
    "IngestFrontier",
]

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


@dataclass(frozen=True)
class FrontierState:
    """A validated frontier snapshot (:meth:`IngestFrontier.parse_state`)."""

    next_emit: int
    max_row: int
    counters: dict[str, int]
    #: Pending rows by grid position: (values, producer seq per cell),
    #: NaN and -1 marking cells not yet received.
    pending: dict[int, tuple[list[float], list[int]]]


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
        # Hot-path copies of the config, read once per envelope.
        self._n_sensors = config.n_sensors
        self._skew = config.skew
        self._epoch = config.epoch
        self._period = config.period
        self._lag = max(1, config.disorder_horizon)
        self._nan_patch = config.late_policy == "nan_patch"
        # Pending rows by grid position: (values, producer seq per cell) as
        # plain lists, NaN and -1 marking cells not yet received.  Each
        # emitted row is a fresh array built from its values.
        self._pending: dict[int, tuple[list[float], list[int]]] = {}
        # ``StreamSupervisor.ingest`` reads ``_next_emit`` and ``_watermark``.
        self._next_emit = 0
        self._max_row = -1
        self._watermark = -1 - self._lag
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
        self._watermark = max_row - self._lag

    @property
    def next_emit(self) -> int:
        """Grid position of the next row to flush."""
        return self._next_emit

    # ----------------------------------------------------------------- #
    # Ingest
    # ----------------------------------------------------------------- #

    def push(self, envelope: SampleEnvelope, *, max_release: int | None = None) -> None:
        """Stage one envelope; flushable rows come off :meth:`pop_ready`.

        The envelope's grid position is its timestamp, less the sensor's
        skew offset, snapped to ``round((t - epoch) / period)``.

        Raises :class:`EnvelopeValidationError` for an out-of-range sensor
        or a pre-epoch or off-grid timestamp, :class:`SequenceConflictError` when
        dedup detects inconsistent producer numbering.  Duplicate and late
        envelopes are absorbed silently (counted, never raised): both are
        normal delivery weather, not errors.

        ``max_release`` bounds the work one envelope can cause under
        ``late_policy="nan_patch"``, where every row the watermark passes
        is emitted (all-NaN when never received): an envelope that would
        make more than ``max_release`` rows newly flushable raises
        :class:`EnvelopeValidationError` with the state untouched.  Under
        ``"drop"`` a run of missing rows is skipped in one step, so no
        bound is needed.
        """
        if not isinstance(envelope, SampleEnvelope):
            raise EnvelopeValidationError(
                "envelope", f"expected SampleEnvelope, got {type(envelope).__name__}"
            )
        sensor = envelope.sensor
        if sensor >= self._n_sensors:
            raise EnvelopeValidationError(
                "sensor", f"{sensor} outside [0, {self._n_sensors})"
            )
        timestamp = envelope.timestamp
        if self._skew is not None:
            timestamp -= self._skew[sensor]
        try:
            pos = round((timestamp - self._epoch) / self._period)
        except OverflowError:
            # A finite timestamp can still land past float range once
            # skew-corrected and divided by a tiny period.
            raise EnvelopeValidationError(
                "timestamp",
                f"{envelope.timestamp} maps to a grid position beyond float "
                f"range (epoch {self._epoch}, period {self._period})",
            ) from None
        if pos < 0:
            raise EnvelopeValidationError(
                "timestamp",
                f"{envelope.timestamp} maps to grid position {pos}, before "
                f"the epoch {self._epoch}",
            )
        max_row = self._max_row
        if (
            pos > max_row  # only a new newest row moves the watermark
            and max_release is not None
            and self._nan_patch
        ):
            released = pos - self._lag - max(self._watermark, self._next_emit - 1)
            if released > max_release:
                raise EnvelopeValidationError(
                    "timestamp",
                    f"{envelope.timestamp} (grid row {pos}) would flush "
                    f"{released} rows at once, more than the {max_release} "
                    "one envelope may release",
                )
        if pos < self._next_emit:
            self.late_dropped += 1
            return
        if pos < max_row:
            self.reordered += 1
        entry = self._pending.get(pos)
        if entry is None:
            n = self._n_sensors
            entry = self._pending[pos] = ([math.nan] * n, [-1] * n)
        values, seqs = entry
        held = seqs[sensor]
        if held >= 0:
            if held == envelope.seq:
                self.deduped += 1
                return
            raise SequenceConflictError(sensor, pos, held, envelope.seq)
        values[sensor] = envelope.value
        seqs[sensor] = envelope.seq
        if pos > max_row:
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
            row = self._emit_next(self._watermark)
            if row is not None:
                return row
        return None

    def drain(self) -> Iterator[np.ndarray]:
        """Flush everything up to the newest observed row (end of stream)."""
        while self._next_emit <= self._max_row:
            row = self._emit_next(self._max_row)
            if row is not None:
                yield row

    def _emit_next(self, last: int) -> np.ndarray | None:
        """Flush the row at ``next_emit``; ``last`` is the caller's final
        flushable row.  None means the row was dropped."""
        pos = self._next_emit
        entry = self._pending.pop(pos, None)
        if entry is None and not self._nan_patch:
            # Every row before the next pending one is wholly missing, so
            # each would be dropped in turn: drop the run in one step.  A
            # timestamp jump then costs O(pending rows), not O(jump).
            stop = min(min(self._pending, default=last + 1), last + 1)
            self.rows_dropped += stop - pos
            self._next_emit = stop
            return None
        self._next_emit = pos + 1
        if entry is None:
            missing = self._n_sensors
        else:
            values, seqs = entry
            missing = seqs.count(-1)
        if self._nan_patch:
            self.nan_patched += missing
        elif missing > 0:
            self.rows_dropped += 1
            return None
        self.rows_emitted += 1
        if entry is None:
            return np.full(self._n_sensors, np.nan)
        return np.array(values)

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
                str(pos): [None if math.isnan(v) else v for v in values]
                for pos, (values, _) in sorted(self._pending.items())
            },
            "pending_seq": {
                str(pos): list(seqs) for pos, (_, seqs) in sorted(self._pending.items())
            },
        }

    def parse_state(self, state: dict[str, Any]) -> FrontierState:
        """Validate a :meth:`to_state` snapshot against this frontier's
        config without adopting it; raises :class:`FrontierStateError`."""
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
            pending: dict[int, list[float]] = {}
            pending_seq: dict[int, list[int]] = {}
            for key, row in state["pending"].items():
                if len(row) != self._n_sensors:
                    raise FrontierStateError(
                        f"pending row {key} has {len(row)} cells, expected "
                        f"{self._n_sensors}"
                    )
                pending[int(key)] = [math.nan if v is None else float(v) for v in row]
            for key, seqs in state["pending_seq"].items():
                if len(seqs) != self._n_sensors:
                    raise FrontierStateError(
                        f"pending_seq row {key} has {len(seqs)} cells, expected "
                        f"{self._n_sensors}"
                    )
                row_seqs = [int(s) for s in seqs]
                if min(row_seqs) < -1:
                    raise FrontierStateError(f"pending_seq row {key} holds a seq below -1")
                pending_seq[int(key)] = row_seqs
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
        return FrontierState(
            next_emit,
            max_row,
            counters,
            {pos: (pending[pos], pending_seq[pos]) for pos in pending},
        )

    def restore_state(self, state: dict[str, Any] | FrontierState) -> None:
        """Adopt a :meth:`to_state` snapshot (checkpoint resume path),
        parsing it first unless :meth:`parse_state` already did."""
        parsed = state if isinstance(state, FrontierState) else self.parse_state(state)
        self._next_emit = parsed.next_emit
        self._set_max_row(parsed.max_row)
        # Copied: pushes fill pending rows in place, and one parsed state
        # may be adopted more than once.
        self._pending = {
            pos: (list(values), list(seqs))
            for pos, (values, seqs) in parsed.pending.items()
        }
        for name, count in parsed.counters.items():
            setattr(self, name, count)
