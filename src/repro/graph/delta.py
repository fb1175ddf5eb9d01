"""Incremental (delta) TSG maintenance between consecutive rounds.

Consecutive CAD rounds share ``window - step`` of their samples, so the
correlation matrix — and with it the k-NN Time-Series Graph — barely moves
round over round.  A from-scratch build (:func:`repro.graph.csr.tsg_csr`)
pays a full ``argpartition`` over every row plus a fresh CSR assembly each
round.  This module — the fast engine's TSG stage — keeps the previous
round's per-row top-k candidate sets in an ``(n, k)`` pick table and
re-derives only what the new correlation matrix actually invalidates,
while staying **bitwise identical** to ``tsg_csr(corr, k, tau).absolute()``
on every round (not just anchors).  Both per-round passes read the table,
not an n x n mask, and run in the compiled kernels (``repro/_kernels.c``,
loaded by :mod:`repro._native`).

The exactness argument, row by row:

* *Separation certificate* (``repro_tsg_certify``).  A cached top-k
  member set is the unique top-k of the new strength row iff the weakest
  member is **strictly** stronger than the strongest non-member.  When
  that holds, any correct top-k algorithm — including the
  ``argpartition`` the full path runs — must return exactly that set, so
  the cache is the full path's answer without running it.  The kernel
  gathers the k member strengths, takes their minimum, and counts the
  off-diagonal strengths at or above it in one branch-free pass: the row
  is certified iff none is NaN and the count is exactly k.  The
  certificate is a property of the *new* matrix alone, so it is valid
  regardless of how the cache was produced.  A row holding NaN fails it,
  and so does a row whose table row repeats a column or names the
  diagonal.
* *Row-subset recompute.*  Stale rows are re-ranked in numpy with
  ``argpartition`` on exactly the bytes the full path would rank, so tie
  picks stay the full path's, and written over their table rows.
  Introselect is row-independent, so a row-subset call returns the same
  per-row picks as the full call.
* *Edge assembly* (``repro_tsg_csr``).  An undirected edge {i, j}
  exists when either side picked the other; it keeps the correlation of
  the lower-index side's pick when there is one (``corr[lo, hi]``, the
  dict path's insertion rule), else ``corr[hi, lo]``, and is pruned when
  ``|weight| < tau``.  The kernel sets "i picked j" and "either picked
  the other" bits from the table and walks each row's set bits in
  ascending column order, writing absolute weights —
  :meth:`CSRGraph.from_edges`'s layout — in O(n^2 / 64 + n k).

No round re-ranks every row on a schedule, not even the correlation
kernel's ``corr_refresh`` anchors: the certificate already makes every
round exact, and a row it cannot certify is re-ranked that round.  Rows are
re-ranked from scratch only when the builder holds no candidate sets (its
first round, after :meth:`DeltaTSGBuilder.reset`, or a restore without
them) or when the caller passes ``full=True`` (the pipeline does on
degraded rounds).  Parallel chunking stays exact: a chunk starting at an
anchor ranks every row from scratch, and the sequential run's sets at that
round are the same top-k sets, row by row.

Without a working C compiler the builder re-ranks every row each round and
returns ``tsg_csr(corr, k, tau).absolute()`` itself.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._native import load_kernels
from .csr import CSRGraph, tsg_csr

__all__ = ["DeltaTSGBuilder"]


class DeltaTSGBuilder:
    """Round-over-round TSG construction with cached top-k candidate sets.

    One builder instance serves one stream.  Per round, call
    :meth:`build` with the round's correlation matrix; pass ``full=True``
    on degraded rounds, where the caller already knows the matrix came from
    the masked estimator, to skip the certificate and re-rank every row
    from scratch.

    The returned graph carries **absolute** weights — exactly
    ``tsg_csr(corr, k, tau).absolute()`` — because every consumer in the
    round pipeline (Louvain, co-appearance) wants non-negative weights and
    the signed intermediate would be an extra O(E) copy.
    """

    def __init__(self, n_sensors: int, k: int, tau: float) -> None:
        if n_sensors < 2:
            raise ValueError(f"delta TSG needs at least 2 sensors, got {n_sensors}")
        if not 1 <= k < n_sensors:
            raise ValueError(f"k must be in [1, n), got k={k} n={n_sensors}")
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        self.n_sensors = n_sensors
        self.k = k
        self.tau = tau
        #: (n, k) int64; row i holds the k columns of row i's top-k
        #: candidate set, in no particular order.  Invariant: k distinct
        #: off-diagonal columns per row (argpartition's picks), which bounds
        #: the CSR assembly's output at 2 n k entries.
        self._picks: np.ndarray | None = None
        #: (n, 1) flat index of each row's first cell in an (n, n) mask.
        self._row_starts = np.arange(0, n_sensors * n_sensors, n_sensors)[:, None]
        # Diagnostics (not serialised; reset on restore).  full_rebuilds
        # counts rounds that ranked every row from scratch: full=True, or
        # no candidate sets held.
        self.full_rebuilds = 0
        self.rows_recomputed = 0
        self.certified_rounds = 0

    # ------------------------------------------------------------------
    # membership maintenance

    def _rank_rows(self, corr: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Top-k picks for ``rows``, bitwise-equal to the full path's picks.

        Mirrors :func:`repro.timeseries.correlation.top_k_neighbors`
        (``ordered=False``): ``-|corr|`` with NaN ranked after every number
        and the diagonal last, then ``argpartition(kth=k-1)``.  Introselect
        partitions each row independently, so ranking a row subset returns
        the same picks as ranking the whole matrix.
        """
        strength = corr[rows]
        np.copysign(strength, -1.0, out=strength)
        np.fmin(strength, 1.0, out=strength)
        strength[np.arange(rows.size), rows] = np.inf
        return np.argpartition(strength, kth=self.k - 1, axis=1)[:, : self.k]

    def _refresh_picks(self, corr: np.ndarray) -> np.ndarray:
        picks = self._rank_rows(corr, np.arange(self.n_sensors))
        self._picks = np.ascontiguousarray(picks)
        self.full_rebuilds += 1
        return self._picks

    # ------------------------------------------------------------------
    # per-round construction

    def build(self, corr: np.ndarray, *, full: bool = False) -> CSRGraph:
        """The round's TSG, bitwise ``tsg_csr(corr, k, tau).absolute()``.

        ``full=True`` re-ranks every row from scratch (rounds on
        degraded/masked windows); otherwise cached candidate sets are kept
        wherever the separation certificate holds, and every row is ranked
        only when no sets are cached yet.
        """
        corr = np.ascontiguousarray(corr, dtype=np.float64)
        n = self.n_sensors
        if corr.shape != (n, n):
            raise ValueError(f"corr must have shape ({n}, {n}), got {corr.shape}")
        kernels = load_kernels()
        picks = self._picks
        if kernels is None or full or picks is None:
            picks = self._refresh_picks(corr)
        else:
            stale = kernels.tsg_certify(corr, picks)
            if stale.size:
                picks[stale] = self._rank_rows(corr, stale)
                self.rows_recomputed += int(stale.size)
            else:
                self.certified_rounds += 1
        if kernels is None:
            return tsg_csr(corr, self.k, self.tau).absolute()
        return CSRGraph(n, *kernels.tsg_csr(corr, picks, self.tau))

    # ------------------------------------------------------------------
    # state round-trip (checkpoints)

    def reset(self) -> None:
        """Forget cached candidate sets; keep configuration."""
        self._picks = None

    def to_state(self) -> dict[str, Any]:
        """Portable state: the candidate sets as an ``(n, n)`` bool mask.

        ``members[i, j]`` is True when j is in row i's top k: the
        ``delta_members`` layout every checkpoint version stores.
        """
        members = None
        if self._picks is not None:
            members = np.zeros((self.n_sensors, self.n_sensors), dtype=bool)
            members.ravel()[self._picks + self._row_starts] = True
        return {"n_sensors": self.n_sensors, "k": self.k, "tau": self.tau,
                "members": members}

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "DeltaTSGBuilder":
        builder = cls(int(state["n_sensors"]), int(state["k"]), float(state["tau"]))
        members = state.get("members")
        if members is None:
            return builder
        members = np.asarray(members, dtype=bool)
        n, k = builder.n_sensors, builder.k
        if members.shape != (n, n):
            raise ValueError(f"members must have shape ({n}, {n}), got {members.shape}")
        # Flat indices ascend row by row, so with k entries per row the i-th
        # block of k lies in row i: every column it gives is in [0, n) (a
        # negative one wraps to >= 2**63 as uint64).
        flat = np.flatnonzero(members)
        if flat.size == n * k:
            picks = flat.reshape(n, k) - builder._row_starts
            if picks.view(np.uint64).max() < n:
                builder._picks = picks
                return builder
        raise ValueError("members must have exactly k entries per row")
