"""Pearson correlation between sensor time series (paper Section III-B).

TSG edges carry the Pearson correlation of two sensors' readings inside one
window.  Constant sensors (zero variance within the window) have an undefined
correlation; the paper's graphs simply never gain strong edges for them, so
we define their correlation with everything as 0 rather than NaN.
"""

from __future__ import annotations

import numpy as np


def pearson_matrix(window: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of the rows of an ``(n, w)`` window.

    Returns an ``(n, n)`` symmetric matrix with unit diagonal (except for
    constant rows, whose whole row/column — including the diagonal — is 0,
    signalling "no usable correlation information").

    This is a vectorised re-implementation of :func:`numpy.corrcoef` with the
    constant-row behaviour pinned down, because TSG construction depends on
    it: a sensor that flat-lines must not keep phantom strong edges.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"window must be 2-D, got shape {window.shape}")
    n, w = window.shape
    if w < 2:
        raise ValueError(f"window length must be >= 2 to correlate, got {w}")

    centered = window - window.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    constant = norms <= 1e-12

    safe_norms = np.where(constant, 1.0, norms)
    unit = centered / safe_norms[:, None]
    corr = unit @ unit.T
    # Clamp numerical overshoot so downstream thresholds behave.
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)

    if constant.any():
        corr[constant, :] = 0.0
        corr[:, constant] = 0.0
    return corr


def pearson_matrix_masked(window: np.ndarray, min_overlap: int = 2) -> np.ndarray:
    """NaN-aware :func:`pearson_matrix` over pairwise-complete observations.

    Each pair (i, j) is correlated over the time points where *both* sensors
    have a reading.  A pair with fewer than ``min_overlap`` common points, or
    whose overlap is constant, carries no usable correlation information and
    gets 0 — the same convention :func:`pearson_matrix` uses for constant
    rows.  A sensor with fewer than ``min_overlap`` readings of its own gets
    a fully zeroed row/column (including the diagonal), so it becomes an
    isolated TSG vertex instead of crashing the round.

    A window without any NaN takes the exact :func:`pearson_matrix` code
    path, so clean data produces bit-identical correlations in degraded mode.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"window must be 2-D, got shape {window.shape}")
    if window.shape[1] < 2:
        raise ValueError(f"window length must be >= 2 to correlate, got {window.shape[1]}")
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be >= 2, got {min_overlap}")

    observed = np.isfinite(window)
    if observed.all():
        return pearson_matrix(window)

    # Missing entries contribute 0 to every product below, so plain matrix
    # products accumulate sums over exactly the pairwise-common support.
    x = np.where(observed, window, 0.0)
    m = observed.astype(np.float64)
    n_common = m @ m.T
    sum_x = x @ m.T          # [i, j]: sum of sensor i over the common support
    sum_xx = (x * x) @ m.T
    sum_xy = x @ x.T
    safe_n = np.maximum(n_common, 1.0)
    cov = sum_xy - sum_x * sum_x.T / safe_n
    var = sum_xx - sum_x * sum_x / safe_n  # [i, j]: variance of i on the support
    denom = np.sqrt(np.maximum(var * var.T, 0.0))
    usable = (n_common >= min_overlap) & (denom > 1e-12)
    corr = np.where(usable, cov / np.where(usable, denom, 1.0), 0.0)
    np.clip(corr, -1.0, 1.0, out=corr)

    own_count = np.diag(n_common)
    own_var = np.diag(var)
    dead = (own_count < min_overlap) | (own_var <= 1e-12)
    np.fill_diagonal(corr, 1.0)
    if dead.any():
        corr[dead, :] = 0.0
        corr[:, dead] = 0.0
    return corr


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two 1-D series (0.0 if either is constant)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson expects two 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points to correlate")
    xc = x - x.mean()
    yc = y - y.mean()
    nx = np.sqrt((xc * xc).sum())
    ny = np.sqrt((yc * yc).sum())
    if nx <= 1e-12 or ny <= 1e-12:
        return 0.0
    return float(np.clip((xc @ yc) / (nx * ny), -1.0, 1.0))


def top_k_neighbors(corr: np.ndarray, k: int, ordered: bool = True) -> np.ndarray:
    """Indices of each row's ``k`` most-correlated *other* rows.

    Neighbours are ranked by absolute correlation, matching the paper's
    pruning rule ``|w(e)| < tau`` which treats strong negative correlation as
    informative structure too.

    Returns an ``(n, k)`` integer array.  ``k`` must be < ``n``.  With
    ``ordered=False`` the within-row sort (strongest first, ties by index)
    is skipped — the *set* per row is identical, in argpartition order;
    callers that only test membership (TSG edge selection) save the
    ranking pass.
    """
    corr = np.asarray(corr, dtype=np.float64)
    n = corr.shape[0]
    if corr.shape != (n, n):
        raise ValueError(f"corr must be square, got shape {corr.shape}")
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, n), got k={k} n={n}")

    strength = np.copysign(corr, -1.0)  # -|corr| in one pass
    # A NaN strength ranks after every number and the diagonal after every
    # NaN, so a row with fewer than k usable correlations never picks itself.
    np.fmin(strength, 1.0, out=strength)
    np.fill_diagonal(strength, np.inf)
    # argpartition gives the top-k set in O(n).
    part = np.argpartition(strength, kth=k - 1, axis=1)[:, :k]
    if not ordered:
        return part
    row_idx = np.arange(n)[:, None]
    order = np.lexsort((part, strength[row_idx, part]), axis=1)
    return part[row_idx, order]


def autocorrelation(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Sample autocorrelation function of a 1-D series up to ``max_lag``.

    Computed via FFT in O(T log T).  Index ``l`` of the result is the
    autocorrelation at lag ``l``; index 0 is always 1 (or 0 for a constant
    series).
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("autocorrelation expects a 1-D series")
    t = series.size
    if t < 2:
        raise ValueError("need at least 2 points")
    if max_lag is None:
        max_lag = t - 1
    max_lag = min(max_lag, t - 1)

    centered = series - series.mean()
    var = centered @ centered
    if var <= 1e-12:
        return np.zeros(max_lag + 1)
    size = 1 << int(np.ceil(np.log2(2 * t)))
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conjugate(spectrum), size)[: max_lag + 1]
    return acov / var
