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
* :func:`louvain_labels_csr` — Louvain in one call
  to the compiled kernel in ``repro/_kernels.c`` (built on first use and
  cached; see :mod:`repro._native`).  The kernel mirrors the deterministic
  dict implementation move for move (same visit order, same candidate
  order, same tie-breaks), so it produces the same labels.  After a
  level's first sweep it evaluates only community-boundary vertices and
  the neighbours of vertices that moved; an interior vertex's evaluation
  provably keeps it in place and writes nothing, so the skip changes no
  decision.  Without a working C compiler these functions warn once and
  run the dict reference :func:`~repro.graph.louvain` on
  :meth:`CSRGraph.to_graph` instead;
* :func:`label_propagation_labels_csr` — array-backed label propagation,
  mirroring the dict version.

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
from .._native import load_kernels, raise_for_status
from .graph import Graph
from .louvain import louvain


class CSRGraph:
    """Immutable undirected weighted graph in CSR form.

    Both directions of every undirected edge are stored, with each row's
    columns sorted ascending.  Rows are vertices ``0 .. n_vertices - 1``.
    """

    __slots__ = ("n_vertices", "indptr", "indices", "weights")

    def __init__(
        self, n_vertices: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        if n_vertices < 1:
            raise ValueError(f"graph needs at least 1 vertex, got {n_vertices}")
        self.n_vertices = n_vertices
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
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

    Raises ``ValueError`` for a negative weight or for malformed CSR arrays
    (``indptr`` not starting at 0, decreasing, or not ending at
    ``len(indices)``; an index outside ``[0, n)``).
    """
    if (graph.weights < 0).any():
        bad = int(np.argmax(graph.weights < 0))
        raise ValueError(
            f"louvain requires non-negative weights, got {graph.weights[bad]}"
        )
    kernels = load_kernels()
    if kernels is None:
        raise_for_status(_structure_status(graph))
        partition = louvain(graph.to_graph(), resolution, min_gain)
        return np.asarray(partition.labels, dtype=np.int64)
    return kernels.louvain_labels(
        graph.indptr, graph.indices, graph.weights, resolution, min_gain
    )


def _structure_status(graph: CSRGraph) -> int:
    """The kernel's CSR input check in numpy, for the dict fallback."""
    indptr, indices, n = graph.indptr, graph.indices, graph.n_vertices
    if indptr[0] != 0:
        return 1
    if (np.diff(indptr) < 0).any():
        return 2
    if indptr[n] != indices.size:
        return 3
    if indices.size and not (indices.min() >= 0 and indices.max() < n):
        return 4
    return 0


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

    # Flat-list hot loop: the sweep is sequential, and numpy dispatch per
    # vertex costs more than the few-neighbour arithmetic it would
    # vectorise.
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
