"""Incremental (delta) TSG maintenance between consecutive rounds.

Consecutive CAD rounds share ``window - step`` of their samples, so the
correlation matrix — and with it the k-NN Time-Series Graph — barely moves
round over round.  A from-scratch build (:func:`repro.graph.csr.tsg_csr`)
pays a full ``argpartition`` over every row plus a fresh CSR assembly each
round.  This module — the fast engine's TSG stage — keeps the previous
round's per-row top-k candidate sets and re-derives only what the new
correlation matrix actually invalidates, while staying **bitwise
identical** to :func:`repro.graph.csr.tsg_edge_arrays` on every
round (not just anchors).

The exactness argument, row by row:

* *Separation certificate.*  A cached top-k member set is the unique top-k
  of the new strength row iff the weakest member is **strictly** stronger
  than the strongest non-member.  When that holds, any correct top-k
  algorithm — including the ``argpartition`` the full path runs — must
  return exactly that set, so the cache is the full path's answer without
  running it.  The certificate is a property of the *new* matrix alone, so
  it is valid regardless of how the cache was produced.
* *Row-subset recompute.*  Rows that fail the certificate (including any
  row containing NaN, which fails every strict comparison) are re-ranked
  with ``argpartition`` on exactly the bytes the full path would rank.
  Introselect is row-independent, so a row-subset call returns the same
  per-row picks as the full call.
* *Edge assembly.*  Downstream only consumes the membership *sets*: the
  undirected edge list is the upper triangle of ``members | members.T`` in
  row-major order — the same (lo, hi)-lexicographic order the full path
  gets from ``np.unique`` over pair keys — and each edge keeps the
  correlation of the direction whose pick created it (``corr[lo, hi]``
  when the lower-index side picked the higher, matching the dict path's
  insertion rule), then prunes on ``|weight| < tau``.  The CSR arrays are
  assembled densely (presence-mask scatter, row-major ``np.nonzero``), so
  no per-round lexsort is paid; row-major enumeration of a symmetric mask
  is already in (row, ascending column) order, which is exactly what
  ``CSRGraph.from_edges`` sorts into.

Periodic anchored full rebuilds (driven by the caller, aligned with the
correlation kernel's ``corr_refresh`` anchors) re-rank every row from
scratch.  They are not needed for exactness — the certificate already
guarantees it — but they bound how long any cached row can go unranked and
keep parallel chunking exact: a chunk starting at an anchor needs no
carried TSG state.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .csr import CSRGraph

__all__ = ["DeltaTSGBuilder"]


class DeltaTSGBuilder:
    """Round-over-round TSG construction with cached top-k candidate sets.

    One builder instance serves one stream.  Per round, call
    :meth:`build` with the round's correlation matrix; pass ``full=True``
    on anchor rounds (and after degraded rounds, where the caller already
    knows the matrix came from the masked estimator) to force a from-scratch
    re-rank of every row.

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
        #: (n, n) bool; ``members[i, j]`` — j is in row i's top-k candidate
        #: set.  Invariant: exactly k True per row (argpartition picks k
        #: distinct columns), which the certificate's reshape relies on.
        self._members: np.ndarray | None = None
        self._triu = np.triu(np.ones((n_sensors, n_sensors), dtype=bool), 1)
        # Per-round scratch buffers, reused to keep the hot path
        # allocation-free.  Stale entries are harmless: every consumer only
        # reads slots the current round just wrote.
        self._strength = np.zeros((n_sensors, n_sensors), dtype=np.float64)
        self._nonmembers = np.zeros((n_sensors, n_sensors), dtype=bool)
        self._union = np.zeros((n_sensors, n_sensors), dtype=bool)
        self._kept_flat = np.zeros(n_sensors * n_sensors, dtype=bool)
        self._weight_flat = np.zeros(n_sensors * n_sensors, dtype=np.float64)
        # Diagnostics (not serialised; reset on restore).
        self.full_rebuilds = 0
        self.rows_recomputed = 0
        self.certified_rounds = 0

    # ------------------------------------------------------------------
    # membership maintenance

    def _rank_rows(self, strength: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Top-k picks for ``rows``, bitwise-equal to the full path's picks.

        Mirrors :func:`repro.timeseries.correlation.top_k_neighbors`
        (``ordered=False``): negate, then ``argpartition(kth=k-1)``.
        Introselect partitions each row independently, so ranking a row
        subset returns the same picks as ranking the whole matrix.
        """
        neg = -strength[rows]
        return np.argpartition(neg, kth=self.k - 1, axis=1)[:, : self.k]

    def _refresh_members(self, strength: np.ndarray) -> None:
        n = self.n_sensors
        picks = self._rank_rows(strength, np.arange(n))
        if self._members is None:
            self._members = np.zeros((n, n), dtype=bool)
        else:
            self._members[:] = False
        self._members[np.arange(n)[:, None], picks] = True
        self.full_rebuilds += 1

    def _patch_members(self, strength: np.ndarray) -> None:
        members = self._members
        assert members is not None
        n = self.n_sensors
        # Separation certificate: the cached set is the unique top-k of the
        # new row iff min(member strength) > max(non-member strength),
        # strictly.  Ties at the boundary — and NaN anywhere in the row —
        # fail the comparison and fall through to an exact re-rank.  The
        # reshape is valid because every row has exactly k members, and
        # boolean indexing enumerates them in row-major order.
        member_min = strength[members].reshape(n, self.k).min(axis=1)
        nonmembers = np.logical_not(members, out=self._nonmembers)
        other_max = strength[nonmembers].reshape(n, n - self.k).max(axis=1)
        stale = np.flatnonzero(~(member_min > other_max))
        if stale.size:
            picks = self._rank_rows(strength, stale)
            members[stale] = False
            members[stale[:, None], picks] = True
            self.rows_recomputed += int(stale.size)
        else:
            self.certified_rounds += 1

    # ------------------------------------------------------------------
    # per-round construction

    def build(self, corr: np.ndarray, *, full: bool = False) -> CSRGraph:
        """The round's TSG, bitwise ``tsg_csr(corr, k, tau).absolute()``.

        ``full=True`` re-ranks every row from scratch (anchor rounds and
        rounds after degraded/masked windows); otherwise cached candidate
        sets are kept wherever the separation certificate holds.
        """
        corr = np.asarray(corr, dtype=np.float64)
        n = self.n_sensors
        if corr.shape != (n, n):
            raise ValueError(f"corr must have shape ({n}, {n}), got {corr.shape}")
        strength = np.abs(corr, out=self._strength)
        np.fill_diagonal(strength, -np.inf)
        if full or self._members is None:
            self._refresh_members(strength)
        else:
            self._patch_members(strength)
        members = self._members
        assert members is not None

        # Undirected edges: upper triangle of the directed-pick union, in
        # row-major (lo, hi) order — the full path's np.unique key order.
        # Everything below works on flat n*n indices: 1-D scatters/gathers
        # and flatnonzero are measurably cheaper than their 2-D fancy-index
        # equivalents at these sizes.
        union = np.logical_or(members, members.T, out=self._union)
        union &= self._triu
        key_fwd = np.flatnonzero(union.reshape(-1))
        rows_e = key_fwd // n
        cols_e = key_fwd - rows_e * n
        key_rev = cols_e * n + rows_e
        corr_flat = corr.reshape(-1) if corr.flags.c_contiguous else corr.ravel()
        forward = members.reshape(-1)[key_fwd]
        weights = np.where(forward, corr_flat[key_fwd], corr_flat[key_rev])
        keep = np.abs(weights) >= self.tau
        rows_k = rows_e[keep]
        cols_k = cols_e[keep]
        kf = key_fwd[keep]
        kr = key_rev[keep]
        w_k = weights[keep]

        # Dense CSR assembly, no sort: scatter the kept edges into a
        # symmetric presence mask; flatnonzero enumerates it row-major,
        # i.e. each row's columns ascending — CSRGraph's layout.  Presence
        # is tracked separately from the weights so tau=0 zero-weight edges
        # survive.
        kept = self._kept_flat
        kept[:] = False
        kept[kf] = True
        kept[kr] = True
        counts = np.bincount(rows_k, minlength=n) + np.bincount(cols_k, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        flat_idx = np.flatnonzero(kept)
        indices = flat_idx % n
        scratch = self._weight_flat
        scratch[kf] = w_k
        scratch[kr] = w_k
        csr_weights = np.abs(scratch[flat_idx])
        return CSRGraph(n, indptr, indices, csr_weights)

    # ------------------------------------------------------------------
    # state round-trip (checkpoints)

    def reset(self) -> None:
        """Forget cached candidate sets; keep configuration and scratch."""
        self._members = None

    def to_state(self) -> dict[str, Any]:
        """Portable state: the candidate-set cache (scratch is rebuilt)."""
        members = None if self._members is None else self._members.copy()
        return {"n_sensors": self.n_sensors, "k": self.k, "tau": self.tau,
                "members": members}

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "DeltaTSGBuilder":
        builder = cls(int(state["n_sensors"]), int(state["k"]), float(state["tau"]))
        members = state.get("members")
        if members is not None:
            members = np.asarray(members, dtype=bool)
            n = builder.n_sensors
            if members.shape != (n, n):
                raise ValueError(
                    f"members must have shape ({n}, {n}), got {members.shape}"
                )
            if not (members.sum(axis=1) == builder.k).all():
                raise ValueError("members must have exactly k entries per row")
            builder._members = members.copy()
        return builder
