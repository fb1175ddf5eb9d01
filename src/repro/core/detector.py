"""The CAD detector (paper Algorithms 1 and 2).

:class:`CAD` is stateful: a warm-up pass over historical data populates the
``n_r`` statistics (and the co-appearance history), then :meth:`detect`
processes the live series round by round, flagging a round abnormal when
``|n_r - mu| >= eta * sigma`` (eta = 3 by default).  Consecutive abnormal
rounds are merged into anomalies whose sensor set is the union of the
rounds' outlier sets.

The same per-round machinery is exposed as :meth:`process_window` for
streaming use (Section IV-F): hand it each new window as it materialises and
read the returned :class:`RoundRecord`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Iterable, Iterator

import numpy as np

from ..timeseries.mts import MultivariateTimeSeries
from ..timeseries.windows import WindowSpec
from .config import CADConfig
from .coappearance import CoAppearanceTracker
from .parallel import iter_round_communities
from .pipeline import NON_FINITE_WINDOW, CommunityPipeline, RoundCommunity
from .result import Anomaly, DataQuality, DetectionResult, RoundRecord
from .variation import RunningMoments, outlier_set, transition_set


class CAD:
    """Correlation-analysis-based anomaly detector.

    Parameters
    ----------
    config:
        Hyper-parameters; see :class:`CADConfig`.
    n_sensors:
        Number of sensors the detector will observe.  Fixed up front because
        TSGs share one vertex set across rounds.
    """

    def __init__(self, config: CADConfig, n_sensors: int) -> None:
        if n_sensors < 2:
            raise ValueError("CAD needs at least 2 sensors")
        self.config = config
        self.n_sensors = n_sensors
        self._pipeline = CommunityPipeline(config, n_sensors)
        self._tracker = CoAppearanceTracker(
            n_sensors,
            mode=config.rc_mode,
            decay=config.rc_decay,
            window=config.rc_window,
        )
        self._moments = RunningMoments()
        self._previous_outliers: frozenset[int] = frozenset()
        self._rounds_processed = 0

    @property
    def spec(self) -> WindowSpec:
        """The (window, step) pair used to partition series."""
        return WindowSpec(self.config.window, self.config.step)

    @property
    def rounds_processed(self) -> int:
        """Total rounds seen so far (warm-up plus detection)."""
        return self._rounds_processed

    @property
    def moments(self) -> tuple[float, float]:
        """Current ``(mu, sigma)`` of the ``n_r`` history."""
        return self._moments.snapshot()

    @property
    def last_rc(self) -> np.ndarray | None:
        """RC vector of the most recent round (for theta calibration)."""
        return self._tracker.last_rc

    # ----------------------------------------------------------------- #
    # Algorithm 1: per-round outlier detection
    # ----------------------------------------------------------------- #

    def _apply_stage(
        self, stage: RoundCommunity
    ) -> tuple[frozenset[int], frozenset[int], int, DataQuality | None]:
        """Stage B of a round (Algorithm 1): tracker update, outlier set,
        transitions.

        Returns ``(O_r, transitions, c_r, quality)``: the outlier set, the
        vertices entering/leaving it (whose count is ``n_r``), the number of
        communities found, and the data-quality report (None on the
        clean-feed path).

        Consumes the community structure produced by stage A (either
        in-process via :meth:`CommunityPipeline.process` or shipped back
        from a parallel worker) and advances the sequential state.
        """
        quality = stage.quality
        update = self._tracker.update(stage.labels, stage.valid)

        if update is None:
            outliers: frozenset[int] = frozenset()
        else:
            _, rc = update
            outliers = outlier_set(rc, self.config.theta)
        if quality is not None and quality.masked_sensors:
            # A masked sensor's outlier status is frozen at its last observed
            # state: absence of data is not evidence of a transition.
            masked = quality.masked_sensors
            outliers = (outliers - masked) | (self._previous_outliers & masked)

        if self.config.variation_sides == "both":
            transitions = transition_set(self._previous_outliers, outliers)
        else:  # "enter": only vertices newly becoming outliers
            transitions = frozenset(outliers - self._previous_outliers)
        self._previous_outliers = outliers
        self._rounds_processed += 1
        return outliers, transitions, stage.n_communities, quality

    # ----------------------------------------------------------------- #
    # Warm-up (Algorithm 2, WarmUp)
    # ----------------------------------------------------------------- #

    def warm_up(
        self, history: MultivariateTimeSeries, n_jobs: int | None = None
    ) -> list[int]:
        """Process historical data to seed ``mu`` and ``sigma``.

        Returns the ``n_r`` series observed during warm-up (diagnostics).
        The co-appearance tracker, outlier state and moments all carry over
        into detection, exactly as in Algorithm 2.  ``n_jobs`` overrides
        ``config.n_jobs`` for this call; any job count yields bit-identical
        state.
        """
        self._check_sensors(history)
        variations = []
        for stage in self._stage_results(history, n_jobs):
            _, transitions, _, _ = self._apply_stage(stage)
            self._moments.push(len(transitions))
            variations.append(len(transitions))
        return variations

    # ----------------------------------------------------------------- #
    # Detection (Algorithm 2, main loop)
    # ----------------------------------------------------------------- #

    def detect(
        self, series: MultivariateTimeSeries, n_jobs: int | None = None
    ) -> DetectionResult:
        """Run anomaly detection over ``series`` and return the result.

        ``n_jobs`` overrides ``config.n_jobs`` for this call: 1 processes
        rounds in-process, more fans stage A (correlation -> TSG ->
        communities) over worker processes with bit-identical output (see
        :mod:`repro.core.parallel`).
        """
        self._check_sensors(series)
        spec = self.spec
        records = [
            self._record_from_stage(stage)
            for stage in self._stage_results(series, n_jobs)
        ]
        # Re-index records relative to this detection segment.
        base = records[0].index if records else 0
        rebased = [
            RoundRecord(
                index=record.index - base,
                start=spec.round_span(record.index - base)[0],
                stop=spec.round_span(record.index - base)[1],
                n_variations=record.n_variations,
                mean=record.mean,
                std=record.std,
                deviation=record.deviation,
                abnormal=record.abnormal,
                outliers=record.outliers,
                variations=record.variations,
                n_communities=record.n_communities,
                quality=record.quality,
            )
            for record in records
        ]
        anomalies = assemble_anomalies(
            rebased, spec, attribution=self.config.sensor_attribution
        )
        return DetectionResult(
            anomalies, rebased, spec, series.length, self.n_sensors
        )

    def process_window(self, window_values: np.ndarray) -> RoundRecord:
        """Streaming entry point: score one newly materialised window.

        Repeats lines 6–13 of Algorithm 2 for a single round and returns its
        :class:`RoundRecord`.  Round indices continue across calls (and
        across the warm-up), so the record's ``start``/``stop`` describe the
        position in the full stream seen so far.
        """
        return self._record_from_stage(self._pipeline.process(window_values))

    def process_staged(self, stage: RoundCommunity) -> RoundRecord:
        """Score one round from a precomputed stage-A result.

        ``stage`` must be the :class:`RoundCommunity` of exactly the window
        :meth:`process_window` would have seen next — stage A is a pure
        function of the window, so computing it elsewhere (a pool worker in
        the fleet scheduler) and applying it here is bit-identical to the
        in-process path.  Note the local stage-A pipeline is *not* advanced
        by this call; the caller owns keeping it in sync (see
        :attr:`pipeline` and ``CommunityPipeline.restore_state``).
        """
        return self._record_from_stage(stage)

    @property
    def pipeline(self) -> CommunityPipeline:
        """The stage-A pipeline (window → correlation → TSG → Louvain).

        Exposed so round schedulers can ship its picklable state to pool
        workers (``to_state``/``restore_state``) around :meth:`process_staged`.
        """
        return self._pipeline

    def _stage_results(
        self, series: MultivariateTimeSeries, n_jobs: int | None
    ) -> Iterator[RoundCommunity]:
        """Stage-A results for every window of ``series``, in round order.

        A strict config checks the whole series first: a bad late window
        raises before the caller applies any round."""
        if n_jobs is None:
            n_jobs = self.config.n_jobs
        if not self.config.allow_missing:
            last_round = self.spec.n_rounds(series.length) - 1
            covered = self.spec.round_span(last_round)[1]
            if not np.isfinite(series.values[:, :covered]).all():
                raise ValueError(NON_FINITE_WINDOW)
        return iter_round_communities(self._pipeline, series.values, n_jobs)

    def _record_from_stage(self, stage: RoundCommunity) -> RoundRecord:
        """Stage B plus scoring: turn a stage-A result into a RoundRecord."""
        index = self._rounds_processed  # global round index before this call
        outliers, transitions, n_communities, quality = self._apply_stage(stage)
        n_r = len(transitions)
        mean, std = self._moments.snapshot()
        sigma = max(std, self.config.min_sigma)
        deviation = abs(n_r - mean) / (self.config.eta * sigma)
        # A round can only be judged once some history exists (paper line 7:
        # r > 1; with a warm-up the moments already carry history).
        judgeable = self._moments.count >= 2
        abnormal = judgeable and deviation >= 1.0
        self._moments.push(n_r)

        start, stop = self.spec.round_span(index)
        return RoundRecord(
            index=index,
            start=start,
            stop=stop,
            n_variations=n_r,
            mean=mean,
            std=std,
            deviation=deviation if judgeable else 0.0,
            abnormal=abnormal,
            outliers=outliers,
            variations=transitions,
            n_communities=n_communities,
            quality=quality,
        )

    def reset(self) -> None:
        """Forget all accumulated state (tracker, outliers, moments, kernel)."""
        self._pipeline.reset()
        self._tracker.reset()
        self._moments = RunningMoments()
        self._previous_outliers = frozenset()
        self._rounds_processed = 0

    # ----------------------------------------------------------------- #
    # Checkpoint / restore
    # ----------------------------------------------------------------- #

    def to_state(self) -> dict[str, Any]:
        """Full detector state as plain scalars/arrays.

        Everything Algorithm 2 accumulates — the ``n_r`` moments, the
        co-appearance history, the previous outlier set and the round
        counter, plus the fast engine's rolling-correlation kernel — so
        :meth:`from_state` resumes detection bit-identically.
        Serialized to disk by :mod:`repro.core.checkpoint`.
        """
        return {
            "config": asdict(self.config),
            "n_sensors": self.n_sensors,
            "rounds_processed": self._rounds_processed,
            "previous_outliers": sorted(self._previous_outliers),
            "moments": self._moments.to_state(),
            "tracker": self._tracker.to_state(),
            "pipeline": self._pipeline.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "CAD":
        """Rebuild a detector from :meth:`to_state` output."""
        config = CADConfig(**state["config"])
        detector = cls(config, int(state["n_sensors"]))
        detector._rounds_processed = int(state["rounds_processed"])
        detector._previous_outliers = frozenset(
            int(v) for v in state["previous_outliers"]
        )
        detector._moments = RunningMoments.from_state(state["moments"])
        detector._tracker = CoAppearanceTracker.from_state(state["tracker"])
        # States written before the fast engine existed carry no pipeline
        # entry; the kernel then simply refreshes exactly on its next round.
        detector._pipeline.restore_state(state.get("pipeline"))
        if detector._tracker.n_sensors != detector.n_sensors:
            raise ValueError("checkpoint tracker width does not match n_sensors")
        return detector

    def _check_sensors(self, series: MultivariateTimeSeries) -> None:
        if series.n_sensors != self.n_sensors:
            raise ValueError(
                f"detector configured for {self.n_sensors} sensors, "
                f"series has {series.n_sensors}"
            )


def assemble_anomalies(
    records: Iterable[RoundRecord],
    spec: WindowSpec,
    attribution: str = "transitions",
) -> list[Anomaly]:
    """Merge consecutive abnormal rounds into anomalies (Algorithm 2, lines 7-11).

    ``attribution`` selects the sensors each abnormal round contributes:
    its transition vertices (``"transitions"``, Definitions 2-3) or its full
    outlier set (``"outliers"``, the literal Algorithm 2 rule).  An
    anomaly's point span runs from the first fresh point of its first round
    to the end of its last round's window.
    """
    if attribution not in ("transitions", "outliers"):
        raise ValueError(
            f"attribution must be 'transitions' or 'outliers', got {attribution!r}"
        )
    anomalies: list[Anomaly] = []
    current_rounds: list[int] = []
    current_sensors: set[int] = set()

    def flush() -> None:
        if not current_rounds:
            return
        start = spec.fresh_span(current_rounds[0])[0]
        stop = spec.round_span(current_rounds[-1])[1]
        anomalies.append(
            Anomaly(
                sensors=frozenset(current_sensors),
                rounds=tuple(current_rounds),
                start=start,
                stop=stop,
            )
        )
        current_rounds.clear()
        current_sensors.clear()

    for record in records:
        if record.abnormal:
            current_rounds.append(record.index)
            if attribution == "transitions":
                current_sensors |= record.variations
            else:
                current_sensors |= record.outliers
        else:
            flush()
    flush()
    return anomalies


def detect_anomalies(
    series: MultivariateTimeSeries,
    history: MultivariateTimeSeries | None = None,
    config: CADConfig | None = None,
) -> DetectionResult:
    """One-call convenience wrapper around :class:`CAD`.

    Builds a detector (with :meth:`CADConfig.suggest` defaults when no
    config is given), warms it up on ``history`` if provided, and detects
    over ``series``.  A series built with ``allow_missing=True`` switches
    the suggested config into degraded-data mode automatically.
    """
    if config is None:
        allow = series.allow_missing or (history is not None and history.allow_missing)
        config = CADConfig.suggest(series.length, series.n_sensors, allow_missing=allow)
    detector = CAD(config, series.n_sensors)
    if history is not None:
        detector.warm_up(history)
    return detector.detect(series)
