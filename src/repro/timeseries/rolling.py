"""Incremental rolling Pearson correlation across overlapping windows.

Consecutive CAD rounds share ``window - step`` columns, yet the seed
pipeline recomputes the full Pearson matrix from scratch every round at
O(n^2 * w).  :class:`RollingCorrelation` instead maintains per-sensor sums
and the pairwise cross-product matrix of the current window, and advances
them with rank-``step`` BLAS updates (``added @ added.T`` minus
``evicted @ evicted.T``) at O(n^2 * s) per round.

Numerical safety:

* Sums are kept relative to a per-sensor *baseline* (the window means
  captured at the last exact refresh), so the accumulated cross products
  stay well-conditioned even when raw readings sit far from zero.
* Every ``refresh_every``-th round the matrix is recomputed exactly —
  bit for bit :func:`repro.timeseries.pearson_matrix` — bounding
  floating-point drift.
  The refresh is anchored to the *absolute* round counter
  (``round % refresh_every == 0``), never to "rounds since last refresh" —
  this is what lets the parallel offline pipeline chop a detection run
  into refresh-aligned chunks whose per-chunk kernels reproduce the
  sequential kernel's float state bit for bit.
* A window containing non-finite readings falls back to
  :func:`repro.timeseries.pearson_matrix_masked` (the degraded-data path)
  and marks the kernel dirty; the next clean round triggers an exact
  refresh instead of updating from poisoned sums.
* If a window does not actually overlap the previous one as promised
  (``prev[:, step:] != window[:, :w - step]``), the kernel notices and
  refreshes exactly, so arbitrary ``update`` calls are always correct —
  just slower than the steady-state incremental path.  When the overlap is
  the *same memory* (consecutive views of one array), the check is an
  identity test, and :meth:`RollingCorrelation.unseen_columns` tells a
  caller that only the last ``step`` columns are new, so a strict
  finiteness check can skip the columns a clean previous window covered.

Turning the running sums into a correlation matrix is an O(n^2) chain of
outer product, scaling, clip and pinning passes.  :func:`corr_from_sums`
is that chain in numpy; the fast path runs it as one fused loop in the
compiled kernels (``repro/_kernels.c``, loaded by :mod:`repro._native`)
with the same operations in the same order, so both return the same bits.

An exact refresh is numpy's ``unit @ unit.T`` Gram product between an
O(n*w) chain (mean, centring, sums of squares, normalisation) and an O(n^2)
one (clip, pinning, cross-product rebuild).  :func:`refresh_from_window`
is the whole refresh in numpy; the fast path runs the two chains as two
compiled passes around the same product (numpy's pairwise summation order
included), so it returns the same bits too.

Without a working C compiler the numpy chains run instead; so does the
refresh of a window whose columns are not adjacent in memory.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._native import load_kernels, rows_contiguous
from .correlation import pearson_matrix_masked


class RollingCorrelation:
    """Rolling Pearson-matrix kernel for overlapping ``(n, w)`` windows.

    Parameters
    ----------
    n_sensors:
        Number of rows of every window.
    window:
        Window length ``w`` (columns per window).
    step:
        Stride between consecutive windows.  ``step >= window`` disables
        the incremental path entirely (windows share no columns).
    refresh_every:
        Exact-recompute cadence in rounds; 1 means "always exact".
    min_overlap:
        Forwarded to :func:`pearson_matrix_masked` on degraded rounds.
    """

    __slots__ = (
        "n_sensors",
        "window",
        "step",
        "refresh_every",
        "min_overlap",
        "_baseline",
        "_sums",
        "_cross",
        "_prev",
        "_round",
        "_dirty",
        "_sign",
    )

    def __init__(
        self,
        n_sensors: int,
        window: int,
        step: int,
        refresh_every: int = 64,
        min_overlap: int = 2,
    ) -> None:
        if n_sensors < 1:
            raise ValueError(f"need at least 1 sensor, got {n_sensors}")
        if window < 2:
            raise ValueError(f"window length must be >= 2, got {window}")
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        self.n_sensors = n_sensors
        self.window = window
        self.step = step
        self.refresh_every = refresh_every
        self.min_overlap = min_overlap
        self._baseline: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._cross: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._round = 0
        self._dirty = False
        # Signs of the rank-2s update's left factor: +added, -evicted.
        self._sign = np.repeat([1.0, -1.0], step)

    @property
    def rounds_seen(self) -> int:
        """Number of ``update`` calls since construction or :meth:`reset`."""
        return self._round

    @property
    def next_update_is_anchor(self) -> bool:
        """True when the *next* :meth:`update` falls on an exact-refresh round.

        Parallel offline detection cuts its chunks at these rounds.  It is
        a statement about the refresh *cadence* only — a dirty or
        non-overlapping window can force an exact refresh on any round —
        but cadence is what chunking needs: after an anchor the kernel's
        state depends on that round's window and counter alone.
        """
        return self._round % self.refresh_every == 0

    def reset(self) -> None:
        """Forget all state; the next update behaves like round 0."""
        self._baseline = None
        self._sums = None
        self._cross = None
        self._prev = None
        self._round = 0
        self._dirty = False

    def seek(self, round_index: int) -> None:
        """Position a *fresh* kernel at an absolute round index.

        Parallel offline detection starts one kernel per chunk; a chunk
        whose first round is an exact-refresh anchor needs no history, only
        the right round counter so later anchors line up.  Seeking a kernel
        that has already seen data would silently desynchronise the refresh
        schedule, so it is rejected.
        """
        if self._round != 0 or self._prev is not None:
            raise ValueError("seek is only valid on a fresh kernel")
        if round_index < 0:
            raise ValueError(f"round index must be >= 0, got {round_index}")
        self._round = int(round_index)

    def unseen_columns(self, window: np.ndarray) -> np.ndarray:
        """The columns of ``window`` no clean previous window covered.

        ``window[:, w - step:]`` when the head of ``window`` is the same
        memory as the tail of the previous (clean) window this kernel
        advanced over; otherwise the whole window.  A strict caller that
        checked every earlier window can then check only these columns,
        as long as nobody writes into a window after passing it in (the
        kernel already requires that).
        """
        if self._dirty or not self._follows(window):
            return window
        return window[:, self.window - self.step :]

    def update(self, window: np.ndarray, *, assume_finite: bool = False) -> np.ndarray:
        """Correlation matrix of ``window``, advanced incrementally.

        Equivalent to ``pearson_matrix(window)`` within ~1e-9 on finite
        data and *exactly* equal on refresh rounds; degraded windows take
        the masked path like the sequential detector does.

        ``assume_finite=True`` skips the O(n*w) finiteness sweep — pass it
        only when the caller has already validated the window (the
        detector pipeline checks finiteness before the kernel runs).
        """
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (self.n_sensors, self.window):
            raise ValueError(
                f"expected window of shape ({self.n_sensors}, {self.window}), "
                f"got {window.shape}"
            )

        if not assume_finite and not np.isfinite(window).all():
            # Degraded round: the masked estimator handles missing data;
            # the running sums would be poisoned, so skip them and force
            # an exact rebuild on the next clean round.
            corr = pearson_matrix_masked(window, self.min_overlap)
            self._dirty = True
            self._prev = window
            self._round += 1
            return corr

        if self._needs_refresh(window):
            corr = self._refresh(window)
        else:
            corr = self._advance(window)
        # Kept by reference, not copied: an O(n*w) copy per round would
        # rival the rank-s update itself.  Callers must not mutate a window
        # after passing it in (the detector pipeline never does).
        self._prev = window
        self._round += 1
        return corr

    # ------------------------------------------------------------------
    # internals

    def _needs_refresh(self, window: np.ndarray) -> bool:
        if self._round % self.refresh_every == 0:
            return True  # anchor refresh — keeps parallel chunks aligned
        if self._dirty or self._prev is None or self.step >= self.window:
            return True
        # A dirty flag covers every non-finite previous window, so a clean
        # (not dirty) prev is finite by construction — no per-round
        # isfinite sweep needed here.
        if self._follows(window):
            return False
        return not np.array_equal(
            self._prev[:, self.step :], window[:, : self.window - self.step]
        )

    def _follows(self, window: np.ndarray) -> bool:
        """Whether ``window``'s head is the same memory as ``_prev``'s tail.

        Consecutive windows sliced from one base array: the overlap
        comparison would compare a memory region with itself, so the O(n*w)
        check collapses to this O(1) identity test.
        """
        if self._prev is None or self.step >= self.window:
            return False
        shared = self.window - self.step
        return self._same_memory(self._prev[:, self.step :], window[:, :shared])

    @staticmethod
    def _same_memory(a: np.ndarray, b: np.ndarray) -> bool:
        return (
            a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.strides == b.strides
            and a.shape == b.shape
        )

    def _refresh(self, window: np.ndarray) -> np.ndarray:
        kernels = load_kernels()
        if kernels is None or not rows_contiguous(window):
            corr, baseline, sums, cross = refresh_from_window(window)
        else:
            corr, baseline, sums, cross = kernels.refresh(window)
        self._baseline = baseline
        self._sums = sums
        self._cross = cross
        self._dirty = False
        return corr

    def _advance(self, window: np.ndarray) -> np.ndarray:
        assert self._prev is not None and self._baseline is not None
        step = self.step
        # One rank-2s GEMM instead of two rank-s ones: stack the added and
        # evicted columns, negate the evicted side of the left factor, and
        # the product is added@added.T - evicted@evicted.T in a single pass.
        right = np.concatenate(
            (window[:, self.window - step :], self._prev[:, :step]), axis=1
        )
        right -= self._baseline[:, None]
        added, evicted = right.reshape(self.n_sensors, 2, step).sum(axis=2).T
        self._sums += added
        self._sums -= evicted
        self._cross += (right * self._sign) @ right.T
        return self._corr_from_sums()

    def _corr_from_sums(self) -> np.ndarray:
        assert self._sums is not None and self._cross is not None
        kernels = load_kernels()
        if kernels is None:
            return corr_from_sums(self._sums, self._cross, self.window)
        return kernels.corr_from_sums(self._sums, self._cross, self.window)

    # ------------------------------------------------------------------
    # checkpoint support

    def to_state(self) -> dict[str, Any]:
        """Snapshot of the kernel: scalars plus float64 array copies.

        Arrays are copied, not shared: ``prev`` is the caller's window
        (often a view of a ring buffer that moves on) and the running sums
        change in place on the next round.
        """

        def copy(array: np.ndarray | None) -> np.ndarray | None:
            return None if array is None else array.copy()

        return {
            "n_sensors": self.n_sensors,
            "window": self.window,
            "step": self.step,
            "refresh_every": self.refresh_every,
            "min_overlap": self.min_overlap,
            "round": self._round,
            "dirty": self._dirty,
            "baseline": copy(self._baseline),
            "sums": copy(self._sums),
            "cross": copy(self._cross),
            "prev": copy(self._prev),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "RollingCorrelation":
        kernel = cls(
            n_sensors=int(state["n_sensors"]),
            window=int(state["window"]),
            step=int(state["step"]),
            refresh_every=int(state["refresh_every"]),
            min_overlap=int(state["min_overlap"]),
        )
        kernel._round = int(state["round"])
        kernel._dirty = bool(state["dirty"])
        for name in ("baseline", "sums", "cross", "prev"):
            value = state.get(name)
            # A private copy: the running sums are updated in place, and a
            # state adopted twice must not tie two kernels together.
            setattr(
                kernel,
                f"_{name}",
                None if value is None else np.array(value, dtype=np.float64),
            )
        return kernel


def refresh_from_window(
    window: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(corr, baseline, sums, cross)`` of an exact refresh over ``window``.

    ``corr`` is :func:`repro.timeseries.pearson_matrix` of the window, bit
    for bit: the same arithmetic, inlined because its O(n^2 * w)
    ``unit @ unit.T`` product doubles as the source of the cross-product
    accumulator.  ``cross`` is rebuilt as ``corr * outer(norms, norms)`` in
    O(n^2) instead of paying a second ``shifted @ shifted.T`` GEMM; it
    differs from that exact product by ~1 ulp (normalise-then-multiply vs
    multiply-then-normalise, plus the clip/diagonal pinning), far inside
    the kernel's 1e-9 equivalence budget, and the next anchor wipes it
    anyway.  ``baseline`` is the window means and ``sums`` the row sums of
    the centred window.

    This numpy chain is the specification the compiled
    ``repro_refresh_unit`` / ``repro_refresh_finish`` pair reproduces bit
    for bit around the same Gram product, and the fallback when no
    compiler is available or the window's columns are not adjacent in
    memory.
    """
    baseline = window.mean(axis=1)
    centered = window - baseline[:, None]
    norms = np.sqrt((centered * centered).sum(axis=1))
    constant = norms <= 1e-12
    safe_norms = np.where(constant, 1.0, norms)
    unit = centered / safe_norms[:, None]
    corr = unit @ unit.T
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    if constant.any():
        corr[constant, :] = 0.0
        corr[:, constant] = 0.0
    cross = corr * np.outer(safe_norms, safe_norms)
    return corr, baseline, centered.sum(axis=1), cross


def corr_from_sums(sums: np.ndarray, cross: np.ndarray, window: int) -> np.ndarray:
    """Pearson matrix of a window from its baseline-shifted running sums.

    ``sums[i]`` is the window's sum of ``x_i - baseline_i`` and
    ``cross[i, j]`` the sum of the products of two such shifted series.
    This numpy chain is the specification the compiled
    ``repro_corr_from_sums`` reproduces bit for bit, and the fallback when
    no compiler is available.
    """
    w = float(window)
    # cov[i, j] = sum_t (x_i(t) - mean_i)(x_j(t) - mean_j); the baseline
    # shift cancels out of the algebra but keeps the sums small.
    corr = np.outer(sums, sums / -w)
    corr += cross
    var = np.clip(np.diag(corr), 0.0, None).copy()
    norms = np.sqrt(var)
    constant = norms <= 1e-12
    inv_norms = 1.0 / np.where(constant, 1.0, norms)
    corr *= inv_norms[:, None]
    corr *= inv_norms[None, :]
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    if constant.any():
        corr[constant, :] = 0.0
        corr[:, constant] = 0.0
    return corr
