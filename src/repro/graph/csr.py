"""Array-backed TSG construction and community detection (CSR layout).

The dict-of-dicts :class:`~repro.graph.graph.Graph` is the readable
reference API, but building one TSG per round costs thousands of per-edge
Python dict operations — and the seed pipeline built *three* of them per
round (k-NN graph, pruned copy, absolute copy).  This module keeps a round's
graph in three flat numpy arrays (``indptr`` / ``indices`` / ``weights``,
the standard CSR layout, both edge directions stored) and provides:

* :func:`tsg_edge_arrays` — vectorised k-NN + tau-pruning edge selection
  that reproduces :func:`repro.graph.knn_graph` + ``prune_weak_edges``
  exactly, including which direction's correlation an edge keeps;
* :func:`louvain_csr` / :func:`label_propagation_csr` — array-backed
  community detection mirroring the deterministic dict implementations
  move for move (same visit order, same candidate order, same tie-breaks),
  so they produce the same labels.  After a level's first sweep, Louvain
  evaluates only community-boundary vertices and the neighbours of vertices
  that moved; an interior vertex's evaluation provably keeps it in place
  and writes nothing, so the skip changes no decision;
* :func:`modularity_csr` — vectorised Newman modularity.

Label equivalence caveat: the dict and CSR code paths accumulate the same
floating-point sums in different orders (dict insertion order vs. sorted
column order), so intermediate quantities can differ by ~1 ulp.  Decisions
only flip when a modularity gain sits *exactly* on the ``min_gain``
boundary — a measure-zero event for continuous correlation weights, and
impossible for exact (e.g. unit) weights where the sums are exact either
way.
"""

from __future__ import annotations

import numpy as np

from ..timeseries.correlation import top_k_neighbors
from .graph import Graph
from .louvain import LouvainResult


class CSRGraph:
    """Immutable undirected weighted graph in CSR form.

    Both directions of every undirected edge are stored, with each row's
    columns sorted ascending.  Rows are vertices ``0 .. n_vertices - 1``.
    """

    __slots__ = ("n_vertices", "indptr", "indices", "weights", "_degrees", "_total")

    def __init__(
        self, n_vertices: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        if n_vertices < 1:
            raise ValueError(f"graph needs at least 1 vertex, got {n_vertices}")
        self.n_vertices = n_vertices
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self._degrees: np.ndarray | None = None
        self._total: float | None = None
        if self.indptr.shape != (n_vertices + 1,):
            raise ValueError(f"indptr must have length {n_vertices + 1}")
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights must have equal length")

    @classmethod
    def from_edges(
        cls, n_vertices: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
    ) -> "CSRGraph":
        """Build from one direction per undirected edge (no duplicates)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        src = np.concatenate([rows, cols])
        dst = np.concatenate([cols, rows])
        w = np.concatenate([weights, weights])
        order = np.lexsort((dst, src))
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n_vertices), out=indptr[1:])
        return cls(n_vertices, indptr, dst[order], w[order])

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert a dict :class:`Graph` (snapshot; later edits not seen)."""
        edges = list(graph.edges())
        if edges:
            rows, cols, weights = (np.asarray(part) for part in zip(*edges))
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            weights = np.zeros(0, dtype=np.float64)
        return cls.from_edges(graph.n_vertices, rows, cols, weights)

    def to_graph(self) -> Graph:
        """Convert back to the dict reference representation."""
        graph = Graph(self.n_vertices)
        rows = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
        upper = rows < self.indices
        for u, v, w in zip(rows[upper], self.indices[upper], self.weights[upper]):
            graph.add_edge(int(u), int(v), float(w))
        return graph

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def total_weight(self) -> float:
        """Sum of edge weights, each undirected edge counted once.

        Cached after the first call — the graph is immutable, and per-round
        pipelines (modularity, Louvain level setup, co-appearance hooks) ask
        repeatedly.
        """
        if self._total is None:
            self._total = float(self.weights.sum()) / 2.0
        return self._total

    def weighted_degrees(self) -> np.ndarray:
        """Per-vertex sum of incident edge weights, as an ``(n,)`` array.

        Cached after the first call; treat the returned array as read-only.
        The graph is immutable: code that patches CSR arrays (the delta TSG
        builder) always constructs a *new* :class:`CSRGraph`, so a fresh
        instance (with empty caches) is the invalidation protocol.
        """
        if self._degrees is None:
            rows = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
            self._degrees = np.bincount(
                rows, weights=self.weights, minlength=self.n_vertices
            )
        return self._degrees

    def absolute(self) -> "CSRGraph":
        """Copy with absolute weights (Louvain needs non-negative input)."""
        return CSRGraph(self.n_vertices, self.indptr, self.indices, np.abs(self.weights))

    def __repr__(self) -> str:
        return f"CSRGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def tsg_edge_arrays(
    corr: np.ndarray, k: int, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised TSG edge selection: ``(rows, cols, weights)`` with rows < cols.

    Replicates ``prune_weak_edges(knn_graph(corr, k), tau)`` edge for edge:
    an undirected edge {u, v} exists when v is among u's top-k neighbours or
    vice versa, weighted by the correlation of whichever direction inserted
    it first in the dict path (``corr[u, v]`` if ``v in topk[u]`` for
    ``u < v``, else ``corr[v, u]``), then pruned when ``|weight| < tau``.
    """
    corr = np.asarray(corr, dtype=np.float64)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    n = corr.shape[0]
    neighbors = top_k_neighbors(corr, k, ordered=False)  # membership only
    # Work on the n*k directed picks directly — never materialise an
    # (n, n) membership mask.  Each undirected pair is keyed as lo*n+hi;
    # np.unique returns keys sorted, i.e. (row, col) lexicographic order,
    # matching the dense path's np.nonzero order.
    src = np.repeat(np.arange(n), k)
    dst = neighbors.reshape(-1)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keys = lo * np.int64(n) + hi
    unique_keys = np.unique(keys)
    rows = unique_keys // n
    cols = unique_keys % n
    # pick[rows, cols] (the lower-index side picked the edge) decides which
    # direction's correlation the dict path would have kept.
    forward = np.zeros(unique_keys.size, dtype=bool)
    forward[np.searchsorted(unique_keys, keys[src < dst])] = True
    weights = np.where(forward, corr[rows, cols], corr[cols, rows])
    keep = np.abs(weights) >= tau
    return rows[keep], cols[keep], weights[keep]


def tsg_csr(corr: np.ndarray, k: int, tau: float) -> CSRGraph:
    """The TSG of a correlation matrix as a :class:`CSRGraph`."""
    rows, cols, weights = tsg_edge_arrays(corr, k, tau)
    return CSRGraph.from_edges(corr.shape[0], rows, cols, weights)


# --------------------------------------------------------------------------
# Louvain on CSR arrays
# --------------------------------------------------------------------------


class _CSRLevel:
    """One Louvain pass's working graph (mirrors ``louvain._Level``)."""

    __slots__ = ("indptr", "indices", "weights", "self_weight", "rows", "degree", "two_m")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        self_weight: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.self_weight = self_weight
        n = self_weight.size
        # Kept around: every later sweep's boundary mask and the
        # aggregation step index edges by their source row.
        self.rows = np.repeat(np.arange(n), np.diff(indptr))
        row_sums = np.bincount(self.rows, weights=weights, minlength=n)
        self.degree = row_sums + 2.0 * self_weight
        self.two_m = float(self.degree.sum())

    @property
    def n(self) -> int:
        return self.self_weight.size


def _one_level_csr(
    level: _CSRLevel,
    resolution: float,
    min_gain: float,
) -> tuple[np.ndarray, bool]:
    """One local-moving pass; mirrors ``louvain._one_level`` decision flow.

    The sweep is inherently sequential (each move feeds the next vertex's
    gains), so per-vertex numpy calls would pay ~100x their arithmetic in
    dispatch overhead; it runs on flat Python lists extracted once per
    level.  The first sweep evaluates every vertex.  Each later sweep
    evaluates only the vertices on a community boundary when it starts (one
    vectorised mask over the level's edges) plus the neighbours of every
    vertex that moves during it.  The level ends on the first sweep with no
    moves.

    Why the skip is exact: evaluating a vertex that stays writes nothing
    (the remove-from-own-community step is computed on a scratch value and
    only written back on an actual move).  A vertex whose neighbours all
    share its label has one candidate, its own label, so it stays.  Its
    neighbourhood changes only when a neighbour moves, and that move marks
    it.  Skipping the unmarked interior therefore reproduces the full
    sequential sweep decision for decision.  (The classic formulation's
    ``-= deg`` / ``+= deg`` round trip on a stay would perturb
    ``community_degree`` by ~1 ulp; relative to the dict path, dropping it
    shifts intermediates by at most the ~1 ulp the module docstring already
    budgets for.)
    """
    n = level.n
    two_m = level.two_m
    if two_m <= 0:
        return np.arange(n, dtype=np.int64), False
    labels = list(range(n))
    community_degree = level.degree.tolist()
    degree = level.degree.tolist()

    # Per-vertex neighbour and weight lists, built once per level: the
    # first sweep visits every vertex, so the extraction amortises
    # immediately.  (Slicing two flat lists is several times cheaper than
    # materialising one (neighbour, weight) tuple per edge.)
    indptr = level.indptr.tolist()
    indices = level.indices.tolist()
    weights = level.weights.tolist()
    neighbor_ids = [indices[indptr[v] : indptr[v + 1]] for v in range(n)]
    neighbor_weights = [weights[indptr[v] : indptr[v + 1]] for v in range(n)]

    improved_any = False
    active = set(range(n))  # the first sweep evaluates every vertex ...
    marking = False  # ... so it needs no marks from movers
    while True:
        moves = 0
        for v in range(n):
            if v not in active:
                continue
            neighbors = neighbor_ids[v]
            if not neighbors:
                continue
            old = labels[v]
            links: dict[int, float] = {}
            # CSR columns are sorted, so accumulation order per label is
            # ascending neighbour index.  (The explicit membership test
            # beats both dict.get and try/except: early sweeps miss
            # constantly, and CPython specialises the contains + subscript
            # pair.)
            for u, w in zip(neighbors, neighbor_weights[v]):
                label = labels[u]
                if label in links:
                    links[label] += w
                else:
                    links[label] = w
            deg_v = degree[v]
            removed = community_degree[old] - deg_v
            base = links.get(old, 0.0) - resolution * deg_v * removed / two_m
            best_label = old
            best_gain = 0.0
            # Sorted candidates + strict min_gain beat: the dict tie-break.
            # One-candidate dicts skip the sort.
            candidates = links if len(links) == 1 else sorted(links)
            for label in candidates:
                if label == old:
                    continue
                gain = (
                    links[label]
                    - resolution * deg_v * community_degree[label] / two_m
                ) - base
                if gain > best_gain + min_gain:
                    best_gain = gain
                    best_label = label
            if best_label != old:
                community_degree[old] = removed
                community_degree[best_label] += deg_v
                labels[v] = best_label
                if marking:
                    active.update(neighbors)
                moves += 1
        if moves == 0:
            break  # a sweep with no moves: the level converged
        improved_any = True
        current = np.asarray(labels, dtype=np.int64)
        boundary = current[level.rows] != current[level.indices]
        active = set(level.rows[boundary].tolist())
        marking = True
    return np.asarray(labels, dtype=np.int64), improved_any


#: Aggregated levels at or below this vertex count take the dense merge
#: path in :func:`_aggregate_csr` (O(n_new^2) scratch instead of a sort).
_DENSE_AGGREGATE_MAX = 64


def _aggregate_csr(level: _CSRLevel, labels: np.ndarray) -> _CSRLevel:
    """Condense communities into super-vertices (mirrors ``louvain._aggregate``)."""
    n_new = int(labels.max()) + 1
    rows = level.rows
    upper = level.indices > rows  # each undirected edge once
    cv = labels[rows[upper]]
    cu = labels[level.indices[upper]]
    w = level.weights[upper]

    self_weight = np.bincount(labels, weights=level.self_weight, minlength=n_new)
    intra = cv == cu
    if intra.any():
        self_weight += np.bincount(cv[intra], weights=w[intra], minlength=n_new)

    a, b, wi = cv[~intra], cu[~intra], w[~intra]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * np.int64(n_new) + hi
    if n_new <= _DENSE_AGGREGATE_MAX:
        # Dense merge: bincount over flat (lo, hi) keys accumulates the
        # merged weights sequentially in input order — the same additions
        # in the same order as the sparse unique/inverse path — and a
        # separate presence mask keeps edges whose weights merge to 0.0.
        # Row-major np.nonzero of the symmetric presence mask enumerates
        # each row's columns ascending, which is CSRGraph's layout, so no
        # lexsort is paid.
        merged_flat = np.bincount(key, weights=wi, minlength=n_new * n_new)
        present = np.zeros(n_new * n_new, dtype=bool)
        present[key] = True
        present_mat = present.reshape(n_new, n_new)
        sym = present_mat | present_mat.T
        indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(sym.sum(axis=1), out=indptr[1:])
        indices = np.nonzero(sym)[1]
        merged_mat = merged_flat.reshape(n_new, n_new)
        rows_u, cols_u = np.nonzero(present_mat)
        wmat = np.zeros((n_new, n_new), dtype=np.float64)
        wmat[rows_u, cols_u] = merged_mat[rows_u, cols_u]
        wmat[cols_u, rows_u] = merged_mat[rows_u, cols_u]
        return _CSRLevel(indptr, indices, wmat[sym], self_weight)
    unique_keys, inverse = np.unique(key, return_inverse=True)
    merged = np.bincount(inverse, weights=wi) if unique_keys.size else np.zeros(0)
    csr = CSRGraph.from_edges(
        n_new, unique_keys // n_new, unique_keys % n_new, merged
    )
    return _CSRLevel(csr.indptr, csr.indices, csr.weights, self_weight)


def _compact_labels_array(labels: np.ndarray) -> np.ndarray:
    """Relabel to 0..k-1 in order of first appearance (vectorised)."""
    unique, first_index = np.unique(labels, return_index=True)
    new_id = np.empty(unique.size, dtype=np.int64)
    new_id[np.argsort(first_index, kind="stable")] = np.arange(unique.size)
    return new_id[np.searchsorted(unique, labels)]


def louvain_labels_csr(
    graph: CSRGraph,
    resolution: float = 1.0,
    min_gain: float = 1e-9,
) -> np.ndarray:
    """Louvain community labels on a CSR graph (no modularity computation).

    Produces the same labels as :func:`repro.graph.louvain` on the
    equivalent dict graph (see the module docstring for the float-ordering
    caveat).  The per-round fast pipeline uses this entry point because
    :class:`~repro.core.result.RoundRecord` never stores modularity.
    """
    if (graph.weights < 0).any():
        bad = int(np.argmax(graph.weights < 0))
        raise ValueError(
            f"louvain requires non-negative weights, got {graph.weights[bad]}"
        )
    n = graph.n_vertices
    membership = np.arange(n, dtype=np.int64)
    level = _CSRLevel(
        graph.indptr, graph.indices, graph.weights, np.zeros(n, dtype=np.float64)
    )
    while True:
        labels, improved = _one_level_csr(level, resolution, min_gain)
        compact = _compact_labels_array(labels)
        membership = compact[membership]
        if not improved:
            break
        level = _aggregate_csr(level, compact)
        if level.n <= 1:
            break
    return _compact_labels_array(membership)


def louvain_csr(
    graph: CSRGraph, resolution: float = 1.0, min_gain: float = 1e-9
) -> LouvainResult:
    """Array-backed Louvain returning the same result type as ``louvain``."""
    labels = louvain_labels_csr(graph, resolution, min_gain)
    return LouvainResult(
        labels=tuple(int(label) for label in labels),
        n_communities=int(labels.max()) + 1,
        modularity=modularity_csr(graph, labels),
    )


def label_propagation_labels_csr(graph: CSRGraph, max_sweeps: int = 50) -> np.ndarray:
    """Label-propagation labels on CSR arrays (mirrors the dict version)."""
    if (graph.weights < 0).any():
        bad = int(np.argmax(graph.weights < 0))
        raise ValueError(
            f"label propagation requires non-negative weights, "
            f"got {graph.weights[bad]}"
        )
    n = graph.n_vertices
    labels = list(range(n))
    indptr = graph.indptr.tolist()
    pairs = list(zip(graph.indices.tolist(), graph.weights.tolist()))
    adjacency = [pairs[indptr[v] : indptr[v + 1]] for v in range(n)]

    # Flat-list hot loop for the same reason as ``_one_level_csr``: the
    # sweep is sequential, and numpy dispatch per vertex costs more than
    # the few-neighbour arithmetic it would vectorise.
    for _ in range(max_sweeps):
        changed = False
        for v in range(n):
            neighbors = adjacency[v]
            if not neighbors:
                continue
            links: dict[int, float] = {}
            for u, w in neighbors:
                label = labels[u]
                if label in links:
                    links[label] += w
                else:
                    links[label] = w
            best_weight = max(links.values())
            # Smallest label among the (tolerance-tied) heaviest — the
            # dict implementation's tie-break.
            threshold = best_weight - 1e-12
            best_label = min(
                label for label, weight in links.items() if weight >= threshold
            )
            if best_label != labels[v]:
                labels[v] = best_label
                changed = True
        if not changed:
            break
    return _compact_labels_array(np.asarray(labels, dtype=np.int64))


def label_propagation_csr(graph: CSRGraph, max_sweeps: int = 50) -> LouvainResult:
    """Array-backed label propagation returning a :class:`LouvainResult`."""
    labels = label_propagation_labels_csr(graph, max_sweeps)
    return LouvainResult(
        labels=tuple(int(label) for label in labels),
        n_communities=int(labels.max()) + 1,
        modularity=modularity_csr(graph, labels),
    )


def modularity_csr(graph: CSRGraph, communities: np.ndarray) -> float:
    """Newman modularity of a partition on a CSR graph (vectorised)."""
    communities = np.asarray(communities, dtype=np.int64)
    if communities.shape != (graph.n_vertices,):
        raise ValueError(
            f"partition has {communities.size} labels for {graph.n_vertices} vertices"
        )
    two_m = 2.0 * graph.total_weight()
    if two_m <= 0:
        return 0.0
    n_labels = int(communities.max()) + 1
    degree_sum = np.bincount(
        communities, weights=graph.weighted_degrees(), minlength=n_labels
    )
    rows = np.repeat(np.arange(graph.n_vertices), np.diff(graph.indptr))
    same = communities[rows] == communities[graph.indices]
    # Both directions stored, so the intra sum already counts each edge twice.
    internal_twice = np.bincount(
        communities[rows[same]], weights=graph.weights[same], minlength=n_labels
    )
    q = internal_twice / two_m - (degree_sum / two_m) ** 2
    return float(q.sum())
