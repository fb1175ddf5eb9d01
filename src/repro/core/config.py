"""Configuration for the CAD detector.

Collects every knob from the paper in one validated place:

* ``window`` (w) and ``step`` (s) — MTS partitioning (Section III-B);
  the paper suggests ``w in [0.01|T|, 0.03|T]`` and ``s in [0.01w, 0.02w]``.
* ``k`` — neighbours per vertex in the TSG (Table II per dataset).
* ``tau`` — correlation threshold pruning weak TSG edges; 0.4–0.6 suggested.
* ``theta`` — outlier threshold on the ratio of co-appearance number
  (Definition 7); around 0.3 suggested.
* ``eta`` — the Chebyshev multiplier; the paper fixes eta = 3, giving the
  abnormal-time rule ``|n_r - mu| >= 3 sigma`` (Section IV-E).
* ``min_sigma`` — lower bound on sigma so a perfectly quiet warm-up
  (sigma = 0) cannot make every subsequent wobble abnormal.
* ``rc_mode`` — how the ratio of co-appearance number aggregates history:
  the paper's running average over all rounds (``"running"``), an
  exponentially decayed average (``"decay"``), or a sliding window
  (``"window"``).  The alternatives are ablation hooks (DESIGN.md §5).
* ``sensor_attribution`` — which vertices an abnormal round contributes to
  the anomaly's sensor set ``V_Z``: the vertices *in transition* between
  outlier states (``"transitions"``, default — this matches the paper's
  Definitions 2–3, where affected vertices are the ones that moved), or the
  full outlier set ``O_r`` (``"outliers"``, the literal Algorithm 2 rule,
  which also sweeps in chronically low-RC vertices such as members of small
  communities).
* ``variation_sides`` — which outlier transitions count towards ``n_r``:
  ``"both"`` (paper Definition 8: vertices entering or leaving the outlier
  set) or ``"enter"`` (ablation: entering vertices only, which suppresses
  the recovery spike at an anomaly's end).
* ``community_method`` — Phase-1 community detector: ``"louvain"`` (paper,
  reference [11]) or ``"label_propagation"`` (ablation: how sensitive is
  CAD to the community detector?).
* ``allow_missing`` — degraded-data mode: accept NaN readings, correlate
  over pairwise-complete observations and mask sensors whose window is too
  incomplete instead of crashing (the paper assumes a clean feed).
* ``max_missing_fraction`` — a sensor whose window is missing more than
  this fraction of its readings is masked out of the round: it gains no TSG
  edges and its RC is carried forward unchanged, so data gaps do not fake
  outlier variations.
* ``min_overlap_fraction`` — floor on the pairwise-complete overlap (as a
  fraction of ``window``) below which a sensor pair's correlation is
  treated as unknown (edge weight 0).
* ``engine`` — per-round implementation: ``"fast"`` (default; incremental
  rolling correlation, round-over-round TSG maintenance with cached top-k
  candidate sets and array-backed Louvain, see DESIGN.md §6/§10) or
  ``"reference"`` (the readable dict-based path, bit-identical to the
  original pipeline).  ``"delta"`` is accepted as an alias of ``"fast"``
  and normalised to it, so configs, checkpoints and health output carry
  one name.
* ``corr_refresh`` — fast engine: recompute the correlation matrix
  exactly every this many rounds to bound floating-point drift of the
  incremental updates.  Also the anchor cadence for the full TSG
  re-ranks and the chunk alignment unit for parallel offline detection.
  1 disables the incremental path.
* ``n_jobs`` — worker processes for *offline* ``warm_up``/``detect`` calls
  (the streaming path is always single-threaded).  1 runs in-process, -1
  uses every CPU.  Results are bit-identical for any job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

_RC_MODES = ("running", "decay", "window")


@dataclass(frozen=True)
class CADConfig:
    """Validated CAD hyper-parameters; see module docstring for semantics."""

    window: int
    step: int
    k: int = 10
    tau: float = 0.5
    theta: float = 0.3
    eta: float = 3.0
    min_sigma: float = 0.5
    rc_mode: str = "running"
    rc_decay: float = 0.95
    rc_window: int = 50
    sensor_attribution: str = "transitions"
    variation_sides: str = "both"
    community_method: str = "louvain"
    allow_missing: bool = False
    max_missing_fraction: float = 0.5
    min_overlap_fraction: float = 0.25
    engine: str = "fast"
    corr_refresh: int = 64
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if not 1 <= self.step < self.window:
            raise ValueError(
                f"step must satisfy 1 <= s < w, got s={self.step} w={self.window}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.min_sigma <= 0:
            raise ValueError(f"min_sigma must be > 0, got {self.min_sigma}")
        if self.rc_mode not in _RC_MODES:
            raise ValueError(f"rc_mode must be one of {_RC_MODES}, got {self.rc_mode!r}")
        if not 0.0 < self.rc_decay <= 1.0:
            raise ValueError(f"rc_decay must be in (0, 1], got {self.rc_decay}")
        if self.rc_window < 1:
            raise ValueError(f"rc_window must be >= 1, got {self.rc_window}")
        if self.sensor_attribution not in ("transitions", "outliers"):
            raise ValueError(
                "sensor_attribution must be 'transitions' or 'outliers', "
                f"got {self.sensor_attribution!r}"
            )
        if self.variation_sides not in ("both", "enter"):
            raise ValueError(
                f"variation_sides must be 'both' or 'enter', got {self.variation_sides!r}"
            )
        if self.community_method not in ("louvain", "label_propagation"):
            raise ValueError(
                "community_method must be 'louvain' or 'label_propagation', "
                f"got {self.community_method!r}"
            )
        if not 0.0 <= self.max_missing_fraction < 1.0:
            raise ValueError(
                f"max_missing_fraction must be in [0, 1), got {self.max_missing_fraction}"
            )
        if not 0.0 < self.min_overlap_fraction <= 1.0:
            raise ValueError(
                f"min_overlap_fraction must be in (0, 1], got {self.min_overlap_fraction}"
            )
        if self.engine not in ("fast", "delta", "reference"):
            raise ValueError(
                f"engine must be 'fast', 'delta' or 'reference', got {self.engine!r}"
            )
        if self.engine == "delta":
            # Frozen dataclass: normalise the alias in place.
            object.__setattr__(self, "engine", "fast")
        if self.corr_refresh < 1:
            raise ValueError(f"corr_refresh must be >= 1, got {self.corr_refresh}")
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1 or -1 (all CPUs), got {self.n_jobs}")

    def min_overlap(self) -> int:
        """Pairwise-overlap floor in time points (at least 2)."""
        return max(2, int(round(self.min_overlap_fraction * self.window)))

    def effective_k(self, n_sensors: int) -> int:
        """``k`` capped at ``n_sensors - 1`` so tiny systems stay valid."""
        if n_sensors < 2:
            raise ValueError("CAD needs at least 2 sensors")
        return min(self.k, n_sensors - 1)

    @classmethod
    def suggest(cls, length: int, n_sensors: int, **overrides: Any) -> "CADConfig":
        """Paper-recommended defaults for a series of the given shape.

        Sets ``w = 0.02 |T|`` and ``s = 0.02 w`` (midpoints of the suggested
        ranges), ``k`` scaled with the sensor count roughly as in Table II,
        and tau/theta at the paper's sweet spots.  Any field can be
        overridden by keyword.
        """
        window = max(10, int(round(0.015 * length)))
        window = min(window, max(2, length // 2))
        # Small steps give fine round granularity and early alarms (the
        # paper suggests s in [0.01w, 0.02w]); but each round costs one
        # Louvain pass, so cap the total round count, and coarsen further
        # for very wide sensor networks where Louvain dominates.
        step = max(2, window // 20)
        step = max(step, -(-(length - window) // 1400))
        if n_sensors >= 500:
            step = max(step, window // 8)
        step = min(step, window - 1)
        if n_sensors <= 40:
            k = 10
        elif n_sensors <= 300:
            k = 20
        elif n_sensors <= 500:
            k = 30
        else:
            k = 50
        k = min(k, n_sensors - 1)
        params = {
            "window": window,
            "step": step,
            "k": k,
            "tau": 0.5,
            "theta": 0.2,
            # The windowed RC responds to correlation breaks within a few
            # rounds regardless of how long the detector has been running;
            # the paper's running average dilutes with service life
            # (DESIGN.md §5).
            "rc_mode": "window",
            "rc_window": 8,
        }
        params.update(overrides)
        return cls(**params)
