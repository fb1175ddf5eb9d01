"""Stage A of a CAD round: window -> correlation -> TSG -> communities.

The per-round work of Algorithm 1 splits cleanly in two:

* **Stage A** (this module): everything from the raw window to the
  community labels.  Its only cross-round state is the rolling-correlation
  kernel, which the fast engine re-anchors with an exact refresh on a fixed
  round schedule — so an offline run can be chopped into refresh-aligned
  chunks and fanned over worker processes (:mod:`repro.core.parallel`)
  without changing a single bit of output.
* **Stage B** (kept inside :class:`~repro.core.detector.CAD`): the
  co-appearance tracker, outlier sets, variation counts and running
  moments.  It is inherently sequential (each round's RC depends on every
  prior round) but cheap, so it replays in round order in the main process.

:class:`CommunityPipeline` implements stage A for both engines:

``fast``
    :class:`~repro.timeseries.RollingCorrelation` incremental correlation,
    round-over-round TSG maintenance (:class:`~repro.graph.DeltaTSGBuilder`
    keeps the previous round's top-k candidate sets and re-ranks only rows
    the new correlation matrix invalidates, bitwise-identical to the full
    build) and array-backed Louvain / label propagation
    (:mod:`repro.graph.csr`).  ``engine="delta"`` is an alias.
``reference``
    The original readable path — exact Pearson matrix, dict
    :class:`~repro.graph.Graph`, dict Louvain — bit-identical to the seed
    pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..graph import (
    DeltaTSGBuilder,
    absolute_weight_graph,
    knn_graph,
    label_propagation,
    louvain,
    prune_weak_edges,
)
from ..graph.csr import (
    label_propagation_labels_csr,
    louvain_labels_csr,
    tsg_csr,  # noqa: F401 - perfbench/tracing.py wraps ``pipeline.tsg_csr``
)
from ..timeseries.correlation import pearson_matrix, pearson_matrix_masked
from ..timeseries.rolling import RollingCorrelation
from .config import CADConfig
from .result import DataQuality

#: Raised (as a ValueError) when a strict config meets a NaN or inf reading.
NON_FINITE_WINDOW = (
    "window contains non-finite readings; "
    "set CADConfig(allow_missing=True) to run on degraded data"
)


@dataclass(frozen=True, eq=False)
class RoundCommunity:
    """Stage-A output of one round: the community structure of the TSG.

    Picklable and engine-agnostic, so parallel workers can ship it back to
    the main process where stage B consumes it.  ``labels`` (int64, one
    community id per sensor) and ``valid`` (bool, or None when every
    sensor is valid) are the arrays the co-appearance tracker takes.
    """

    labels: np.ndarray
    n_communities: int
    quality: DataQuality | None
    valid: np.ndarray | None


def degrade_window(
    window_values: np.ndarray, config: CADConfig
) -> tuple[np.ndarray, DataQuality, np.ndarray | None]:
    """Mask sensors whose window is too incomplete (degraded-data mode).

    Returns the (possibly copied) window with masked sensors' rows fully
    NaN — so they become isolated TSG vertices — plus the round's
    :class:`DataQuality` report and the validity mask for the co-appearance
    tracker (None when every sensor is valid).
    """
    observed = np.isfinite(window_values)
    missing_fraction = 1.0 - float(observed.mean())
    sensor_missing = 1.0 - observed.mean(axis=1)
    masked = sensor_missing > config.max_missing_fraction
    valid: np.ndarray | None = None
    if masked.any():
        window_values = window_values.copy()
        window_values[masked, :] = np.nan
        valid = ~masked
    quality = DataQuality(
        missing_fraction=missing_fraction,
        masked_sensors=frozenset(int(s) for s in np.flatnonzero(masked)),
        degraded=bool(masked.any() or missing_fraction > 0.0),
    )
    return window_values, quality, valid


class CommunityPipeline:
    """Stage-A executor for one detector: validates, degrades, correlates,
    builds the TSG and detects communities, per the configured engine.

    Instances are picklable (config + plain numpy kernel state), which is
    what lets :mod:`repro.core.parallel` run them in worker processes.
    """

    def __init__(self, config: CADConfig, n_sensors: int) -> None:
        if n_sensors < 2:
            raise ValueError("CAD needs at least 2 sensors")
        self.config = config
        self.n_sensors = n_sensors
        self._k = config.effective_k(n_sensors)
        self._kernel: RollingCorrelation | None = None
        self._builder: DeltaTSGBuilder | None = None
        if config.engine == "fast":
            self._kernel = RollingCorrelation(
                n_sensors,
                config.window,
                config.step,
                refresh_every=config.corr_refresh,
                min_overlap=config.min_overlap(),
            )
            self._builder = DeltaTSGBuilder(n_sensors, self._k, config.tau)

    @property
    def kernel(self) -> RollingCorrelation | None:
        """The rolling-correlation kernel (None for the reference engine)."""
        return self._kernel

    def process(self, window_values: np.ndarray) -> RoundCommunity:
        """Run stage A on one ``(n_sensors, window)`` window."""
        window_values = np.asarray(window_values, dtype=np.float64)
        if window_values.shape != (self.n_sensors, self.config.window):
            raise ValueError(
                f"expected window of shape ({self.n_sensors}, {self.config.window}), "
                f"got {window_values.shape}"
            )
        quality: DataQuality | None = None
        valid: np.ndarray | None = None
        if self.config.allow_missing:
            window_values, quality, valid = degrade_window(window_values, self.config)
        else:
            # Only the columns no clean earlier window of this kernel
            # covered: the last step on consecutive views of one array,
            # the whole window otherwise (and always on the reference engine).
            unseen = (
                window_values
                if self._kernel is None
                else self._kernel.unseen_columns(window_values)
            )
            if not np.isfinite(unseen).all():
                raise ValueError(NON_FINITE_WINDOW)

        if self._kernel is not None:
            # Finiteness is already settled here (strict mode raised above;
            # degraded mode reported it in quality), so the kernel can skip
            # its own O(n*w) sweep.
            finite = quality is None or not quality.degraded
            labels, n_communities = self._fast_stage(window_values, finite)
        else:
            labels, n_communities = self._reference_stage(window_values)
        return RoundCommunity(
            labels=labels, n_communities=n_communities, quality=quality, valid=valid
        )

    def _fast_stage(
        self, window_values: np.ndarray, finite: bool
    ) -> tuple[np.ndarray, int]:
        assert self._kernel is not None and self._builder is not None
        corr = self._kernel.update(window_values, assume_finite=finite)
        # Anchors take the separation certificate like any clean round: a
        # certified cached set is the unique top-k, so it is what a
        # from-scratch re-rank would pick, and a builder with no picks yet
        # (a chunk started at an anchor, a restore without delta state)
        # ranks every row anyway.  Degraded rounds skip the certificate
        # outright — NaN rows would fail it row by row.
        tsg = self._builder.build(corr, full=not finite)
        if self.config.community_method == "louvain":
            labels = louvain_labels_csr(tsg)
        else:
            labels = label_propagation_labels_csr(tsg)
        return labels, int(labels.max()) + 1

    def _reference_stage(self, window_values: np.ndarray) -> tuple[np.ndarray, int]:
        # The seed pipeline verbatim: full Pearson matrix, per-edge dict
        # graph construction, dict community detection.  build_tsg itself
        # now routes through the vectorised edge selection, so the seed
        # loops are inlined here to keep this engine a faithful baseline.
        if self.config.allow_missing:
            corr = pearson_matrix_masked(window_values, self.config.min_overlap())
        else:
            corr = pearson_matrix(window_values)
        tsg = prune_weak_edges(knn_graph(corr, self._k), self.config.tau)
        detect_communities = (
            louvain
            if self.config.community_method == "louvain"
            else label_propagation
        )
        partition = detect_communities(absolute_weight_graph(tsg))
        return np.array(partition.labels, dtype=np.int64), partition.n_communities

    def reset(self) -> None:
        """Forget kernel/TSG state; the next round behaves like round 0."""
        if self._kernel is not None:
            self._kernel.reset()
        if self._builder is not None:
            self._builder.reset()

    # ------------------------------------------------------------------
    # checkpoint support

    def to_state(self) -> dict[str, Any]:
        """Kernel + TSG state — config/n_sensors ride with the detector."""
        state: dict[str, Any] = {
            "kernel": None if self._kernel is None else self._kernel.to_state(),
        }
        if self._builder is not None:
            state["delta"] = {"builder": self._builder.to_state()}
        return state

    def restore_state(self, state: dict[str, Any] | None) -> None:
        """Adopt a :meth:`to_state` snapshot (None leaves a fresh pipeline).

        A missing/None kernel entry on a fast-engine pipeline is legal —
        the kernel simply refreshes exactly on its next round — but it
        breaks the bit-identical-resume promise, so checkpoints always
        carry the kernel when the fast engine is active.  The same holds
        for the delta entry: without it the builder re-ranks from scratch
        on its first round (exact, just not a resumed cache).
        """
        if not state:
            return
        kernel_state = state.get("kernel")
        if kernel_state is not None and self._kernel is not None:
            self._kernel = RollingCorrelation.from_state(kernel_state)
        delta_state = state.get("delta")
        if delta_state is not None and self._builder is not None:
            self._builder = DeltaTSGBuilder.from_state(delta_state["builder"])
