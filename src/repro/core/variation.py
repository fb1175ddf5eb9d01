"""Outlier sets and outlier-variation counting (paper Definitions 7 and 8).

A vertex whose ratio of co-appearance number drops below the outlier
threshold ``theta`` joins the round's outlier set ``O_r``.  The *number of
outlier variations* ``n_r`` counts vertices in a transition state — normal in
one of two consecutive rounds and an outlier in the other — i.e. the size of
the symmetric difference of ``O_{r-1}`` and ``O_r``.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def outlier_set(rc: np.ndarray, theta: float) -> frozenset[int]:
    """Vertices with ``RC_{v,r} < theta`` (Definition 7)."""
    rc = np.asarray(rc, dtype=np.float64)
    if rc.ndim != 1:
        raise ValueError("rc must be a 1-D vector")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    return frozenset(np.flatnonzero(rc < theta).tolist())


def transition_set(previous: frozenset[int], current: frozenset[int]) -> frozenset[int]:
    """Vertices entering or leaving the outlier set between two rounds."""
    return previous.symmetric_difference(current)


def outlier_variations(previous: frozenset[int], current: frozenset[int]) -> int:
    """``n_r``: vertices entering or leaving the outlier set (Definition 8)."""
    return len(transition_set(previous, current))


class RunningMoments:
    """Streaming mean / standard deviation of the ``n_r`` series.

    Algorithm 2 maintains ``mu`` and ``sigma`` over all observed ``n_r``
    (warm-up plus detection) and updates them after each round.  Welford's
    update keeps it O(1) per round and numerically stable.
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        """Population standard deviation (0.0 with fewer than 2 samples)."""
        if self._count < 2:
            return 0.0
        return (self._m2 / self._count) ** 0.5

    def push(self, value: float) -> None:
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def snapshot(self) -> tuple[float, float]:
        """Current ``(mean, std)`` pair."""
        return self.mean, self.std

    def to_state(self) -> dict[str, Any]:
        """Exact internal state, for checkpointing."""
        return {"count": self._count, "mean": self._mean, "m2": self._m2}

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "RunningMoments":
        """Rebuild from :meth:`to_state` output, bit-identically."""
        moments = cls()
        moments._count = int(state["count"])
        moments._mean = float(state["mean"])
        moments._m2 = float(state["m2"])
        if moments._count < 0 or moments._m2 < 0.0:
            raise ValueError("invalid RunningMoments state")
        return moments
