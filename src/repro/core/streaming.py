"""Streaming front-end for CAD (paper Section IV-F, Generalization).

:class:`StreamingCAD` buffers incoming samples (columns of the MTS) and runs
one CAD round every time a full new window materialises — i.e. after the
first ``window`` samples and then after every further ``step`` samples.
Because CAD's statistics (``mu``, ``sigma``, co-appearance history) are
maintained incrementally, the stream can run forever: a round's cost does
not grow with the history that has gone by.  On the fast engine stage A
(correlation, TSG, communities) costs O(n^2 * step) per round, plus an
O(n^2 * window) exact refresh every ``corr_refresh`` rounds; every other
per-round pass costs O(n * step) at most: each sample is validated once on
entry, the strict finiteness check of a window covers only its ``step``
new columns (see ``RollingCorrelation.unseen_columns``), and stage B is
O(n) array work.

Samples live in one *mirrored ring* of capacity ``C = window + step``:
sample ``i`` is written to columns ``i % C`` and ``i % C + C``, so the last
``m <= C`` samples are always a contiguous view.  Each round scores such a
view (no slide, no copy), and consecutive windows share memory except
across a wrap, so the fast kernel's overlap check is an identity test.

For long-running deployments the full stream state (detector statistics and
the sample buffer) round-trips through :meth:`StreamingCAD.save` /
:meth:`StreamingCAD.load` — see :mod:`repro.core.checkpoint` — so a
restarted process resumes mid-stream without warm-up replay.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

import numpy as np

from ..timeseries.mts import MultivariateTimeSeries
from .config import CADConfig
from .detector import CAD
from .pipeline import RoundCommunity
from .result import RoundRecord


class InvalidSampleError(ValueError):
    """A pushed sample carried non-finite readings the mode cannot accept.

    Infinity is rejected in *every* mode: NaN is the one sanctioned missing
    marker (degraded-data semantics, PR 1), while ±inf silently poisons the
    correlation kernel — one inf reading turns a window's mean, std and
    every Pearson coefficient touching the sensor into inf/NaN garbage
    without raising.  NaN itself is only rejected outside
    ``allow_missing`` mode.

    ``index`` is the offending sensor's position in the sample (the first
    one, when several are bad).  Subclasses :class:`ValueError` so callers
    catching the pre-existing validation errors keep working.
    """

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"sensor {index}: {reason}")
        self.index = index
        self.reason = reason


class PushError(ValueError):
    """A :meth:`StreamingCAD.push_many` batch failed part-way through.

    ``index`` is the 0-based column of the batch whose push raised, and
    ``records`` holds the round records the earlier columns already
    produced — together they let a supervisor retry from the exact sample
    offset instead of replaying (or worse, double-feeding) the whole batch.
    The original exception rides on ``__cause__``.

    Subclasses :class:`ValueError` so callers catching the pre-existing
    validation errors keep working.
    """

    def __init__(self, index: int, records: list[RoundRecord], cause: BaseException) -> None:
        super().__init__(f"push_many failed at batch column {index}: {cause}")
        self.index = index
        self.records = records


class StreamingCAD:
    """Push-based CAD: feed samples, receive round records.

    Parameters
    ----------
    config:
        CAD hyper-parameters.  With ``config.allow_missing`` set, pushed
        samples may contain NaN readings (a wholly missed timestamp is an
        all-NaN sample); the detector masks sensors whose windows get too
        incomplete instead of crashing.
    n_sensors:
        Width of each incoming sample.
    """

    def __init__(self, config: CADConfig, n_sensors: int) -> None:
        self._detector = CAD(config, n_sensors)
        self._config = config
        self._n_sensors = n_sensors
        # C >= window + step: the fast kernel keeps a round's window by
        # reference and reads its evicted columns when the next round
        # closes, so the step samples written in between must not land on it.
        self._capacity = config.window + config.step
        # Zeroed, not empty: a stream restored from a shorter buffer still
        # checkpoints its never-read oldest columns deterministically.
        self._ring = np.zeros((n_sensors, 2 * self._capacity))
        self._samples_seen = 0
        self._next_round_end = config.window

    @property
    def detector(self) -> CAD:
        """The underlying stateful detector (e.g. for ``moments``)."""
        return self._detector

    @property
    def samples_seen(self) -> int:
        return self._samples_seen

    @property
    def next_round_end(self) -> int:
        """Sample count at which the next round will complete.

        The push bringing ``samples_seen`` up to this value returns a
        :class:`RoundRecord`; supervisors use it to know, *before* pushing,
        whether a sample closes a round (deadline accounting, chaos hooks).
        """
        return self._next_round_end

    def warm_up(self, history: MultivariateTimeSeries) -> None:
        """Seed statistics from a historical segment before streaming."""
        self._detector.warm_up(history)

    def push(self, sample: np.ndarray) -> RoundRecord | None:
        """Feed one sample (readings of all sensors at one time point).

        Returns the round's :class:`RoundRecord` when this sample completes
        a window, else ``None``.
        """
        return self._ingest(self._checked_sample(sample))

    def peek_window(self, sample: np.ndarray) -> np.ndarray:
        """The window the *next* push would score, without ingesting.

        Only legal at a round boundary (``sample`` would complete a
        window); raises :class:`ValueError` otherwise.  Returns a fresh
        ``(n_sensors, window)`` array — the last ``window - 1`` buffered
        columns plus ``sample`` — safe to hand to another process.  This
        is how the fleet scheduler extracts stage-A work (window →
        correlation → TSG → Louvain) for pool offload while the stream
        itself stays untouched until the result is applied via
        :meth:`push_staged`.
        """
        sample = self._checked_sample(sample)
        self._require_round_boundary("peek_window")
        return np.concatenate(
            (self._recent(self._config.window - 1), sample[:, None]), axis=1
        )

    def push_staged(
        self,
        sample: np.ndarray,
        stage: RoundCommunity,
        pipeline_state: dict[str, Any] | None = None,
    ) -> RoundRecord:
        """Complete a round from a precomputed stage-A result.

        ``stage`` must be the :class:`~repro.core.pipeline.RoundCommunity`
        of exactly the window :meth:`peek_window` returned for ``sample``
        (typically computed in a pool worker).  The sample is ingested into
        the ring buffer, the detector's sequential stage B runs in-process,
        and the round's record is returned — bit-identical to
        :meth:`push`, because stage A is a pure function of the window.

        When ``pipeline_state`` is given it is restored into the local
        stage-A pipeline first (state returned by the worker alongside the
        stage); when omitted the local pipeline is left untouched and goes
        *stale* — the caller owns re-syncing it before any in-process
        round or checkpoint (see ``StreamSupervisor.pipeline_stale``).
        """
        sample = self._checked_sample(sample)
        self._require_round_boundary("push_staged")
        self._append(sample)
        if pipeline_state is not None:
            self._detector.pipeline.restore_state(pipeline_state)
        record = self._detector.process_staged(stage)
        self._next_round_end += self._config.step
        return record

    def _checked_sample(self, sample: np.ndarray) -> np.ndarray:
        """``sample`` as a validated float row of ``n_sensors`` readings."""
        sample = np.asarray(sample, dtype=np.float64).reshape(-1)
        if sample.shape != (self._n_sensors,):
            raise ValueError(
                f"expected sample of {self._n_sensors} readings, got {sample.shape}"
            )
        # One pass clears a finite sample; only one that fails it goes
        # through the validator, for its exact error (or to admit NaN).
        if not np.isfinite(sample).all():
            self._validate_sample(sample)
        return sample

    def _require_round_boundary(self, caller: str) -> None:
        if self._samples_seen + 1 != self._next_round_end:
            raise ValueError(
                f"{caller} is only legal at a round boundary; next sample is "
                f"{self._samples_seen + 1}, round closes at {self._next_round_end}"
            )

    def _validate_sample(self, sample: np.ndarray) -> None:
        infinite = np.isinf(sample)
        if infinite.any():
            raise InvalidSampleError(
                int(np.argmax(infinite)),
                "reading is infinite; inf is never a valid measurement "
                "(NaN marks a missing reading)",
            )
        if not self._config.allow_missing and np.isnan(sample).any():
            raise InvalidSampleError(
                int(np.argmax(np.isnan(sample))),
                "reading is NaN; set CADConfig(allow_missing=True) to "
                "stream degraded data",
            )

    def _append(self, sample: np.ndarray) -> None:
        """Write one sample into both mirrored columns of its ring slot."""
        column = self._samples_seen % self._capacity
        self._ring[:, column] = sample
        self._ring[:, column + self._capacity] = sample
        self._samples_seen += 1

    def _recent(self, count: int) -> np.ndarray:
        """View of the last ``count <= capacity`` samples, oldest first."""
        start = (self._samples_seen - count) % self._capacity
        return self._ring[:, start : start + count]

    def _ingest(self, sample: np.ndarray) -> RoundRecord | None:
        self._append(sample)
        if self._samples_seen < self._next_round_end:
            return None
        record = self._detector.process_window(self._recent(self._config.window))
        self._next_round_end += self._config.step
        return record

    def push_many(self, samples: np.ndarray) -> list[RoundRecord]:
        """Feed an ``(n_sensors, t)`` block of samples; return all records.

        A mid-batch failure raises :class:`PushError` carrying the failing
        column index and the records produced so far, so the caller can
        resume from the exact offset after fixing or retrying the sample.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] != self._n_sensors:
            raise ValueError(
                f"expected ({self._n_sensors}, t) block, got shape {samples.shape}"
            )
        # One vectorised sweep over the whole block replaces a per-column
        # isinf/isnan pass; columns the sweep clears skip validation
        # entirely, and a flagged column goes back through the scalar
        # validator so it raises the exact per-sensor InvalidSampleError
        # (inf checked before NaN) the one-at-a-time path would.
        suspect = np.isinf(samples).any(axis=0)
        if not self._config.allow_missing:
            suspect |= np.isnan(samples).any(axis=0)
        records: list[RoundRecord] = []
        for index, column in enumerate(samples.T):
            try:
                if suspect[index]:
                    self._validate_sample(column)
                record = self._ingest(column)
            except Exception as exc:
                raise PushError(index, records, exc) from exc
            if record is not None:
                records.append(record)
        return records

    def alarms(self, samples: Iterable[np.ndarray]) -> Iterable[RoundRecord]:
        """Generator over abnormal rounds only, for alerting pipelines."""
        for sample in samples:
            record = self.push(np.asarray(sample))
            if record is not None and record.abnormal:
                yield record

    # ----------------------------------------------------------------- #
    # Checkpoint / restore
    # ----------------------------------------------------------------- #

    def to_state(self) -> dict[str, Any]:
        """Full stream state as plain arrays/scalars (see ``checkpoint``)."""
        return {
            "detector": self._detector.to_state(),
            "samples_seen": self._samples_seen,
            "next_round_end": self._next_round_end,
            "buffer": self._recent(min(self._samples_seen, self._capacity)).copy(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingCAD":
        """Rebuild a stream from :meth:`to_state` output, bit-identically.

        ``state["buffer"]``: the most recent samples, oldest first, at least
        the ``min(samples_seen, window - 1)`` a future window can need."""
        detector = CAD.from_state(state["detector"])
        stream = cls(detector.config, detector.n_sensors)
        stream._detector = detector
        seen = stream._samples_seen = int(state["samples_seen"])
        stream._next_round_end = int(state["next_round_end"])
        buffer = np.asarray(state["buffer"], dtype=np.float64)
        if buffer.ndim != 2 or buffer.shape[0] != detector.n_sensors:
            raise ValueError(f"invalid checkpoint buffer shape {buffer.shape}")
        needed = min(seen, detector.config.window - 1)
        if buffer.shape[1] < needed:
            raise ValueError(f"checkpoint buffer holds {buffer.shape[1]} < {needed} samples")
        kept = min(buffer.shape[1], seen, stream._capacity)
        columns = np.arange(seen - kept, seen) % stream._capacity
        tail = buffer[:, buffer.shape[1] - kept :]
        stream._ring[:, columns] = tail
        stream._ring[:, columns + stream._capacity] = tail
        return stream

    def save(self, path: str | Path) -> None:
        """Checkpoint the stream to ``path`` (an ``.npz`` file)."""
        from .checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "StreamingCAD":
        """Restore a stream checkpointed with :meth:`save`."""
        from .checkpoint import load_checkpoint

        return load_checkpoint(path)
