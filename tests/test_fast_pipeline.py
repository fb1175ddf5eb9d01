"""Tests for the fast round pipeline: rolling correlation and CSR graphs.

The contract under test is *equivalence*: the incremental kernel must track
:func:`pearson_matrix` within 1e-9 over long streams (including rounds right
after an exact refresh), and the array-backed TSG/Louvain must reproduce the
dict reference implementations label for label.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CAD, CADConfig, build_tsg
from repro.graph import (
    CSRGraph,
    Graph,
    absolute_weight_graph,
    knn_graph,
    label_propagation,
    label_propagation_csr,
    louvain,
    louvain_csr,
    modularity,
    modularity_csr,
    prune_weak_edges,
    tsg_csr,
    tsg_edge_arrays,
)
from repro.graph.csr import louvain_labels_csr
from repro.timeseries import (
    MultivariateTimeSeries,
    RollingCorrelation,
    pearson_matrix,
    pearson_matrix_masked,
)

def community_values(n_sensors, length, n_communities=3, seed=0, noise=0.05):
    """Community-structured sensor matrix (same shape as the conftest toy)."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    drivers = np.vstack(
        [
            np.sin(2 * np.pi * t / rng.uniform(18, 40) + rng.uniform(0, 6))
            for _ in range(n_communities)
        ]
    )
    values = np.empty((n_sensors, length))
    for i in range(n_sensors):
        values[i] = (
            rng.uniform(0.8, 1.2) * drivers[i % n_communities]
            + noise * rng.standard_normal(length)
        )
    return values


def stream_windows(values, window, step):
    start = 0
    while start + window <= values.shape[1]:
        yield values[:, start : start + window]
        start += step


class TestRollingCorrelation:
    def test_matches_pearson_over_long_stream(self):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.normal(size=(9, 2000)), axis=1)
        kernel = RollingCorrelation(9, 60, 7, refresh_every=16)
        refresh_rounds, post_refresh_rounds = 0, 0
        for index, win in enumerate(stream_windows(values, 60, 7)):
            fast = kernel.update(win)
            exact = pearson_matrix(win)
            np.testing.assert_allclose(fast, exact, atol=1e-9)
            if index % 16 == 0:
                refresh_rounds += 1
                # Refresh rounds are *exactly* the reference computation.
                assert np.array_equal(fast, exact)
            elif index % 16 == 1:
                post_refresh_rounds += 1
        assert refresh_rounds > 3 and post_refresh_rounds > 3

    def test_far_from_zero_data_stays_conditioned(self):
        # Large offsets are where naive sum-of-products kernels lose
        # precision; the baseline shift must keep errors ~1e-12.
        rng = np.random.default_rng(4)
        values = 1e6 + np.cumsum(rng.normal(size=(6, 1500)), axis=1)
        kernel = RollingCorrelation(6, 50, 5, refresh_every=64)
        for win in stream_windows(values, 50, 5):
            np.testing.assert_allclose(
                kernel.update(win), pearson_matrix(win), atol=1e-9
            )

    def test_constant_rows_zeroed(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(4, 300))
        values[2] = 7.5  # flat-lined sensor
        kernel = RollingCorrelation(4, 40, 4)
        for win in stream_windows(values, 40, 4):
            corr = kernel.update(win)
            assert np.array_equal(corr[2], np.zeros(4))
            assert np.array_equal(corr[:, 2], np.zeros(4))

    def test_nan_window_takes_masked_path_and_recovers(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(5, 400))
        kernel = RollingCorrelation(5, 40, 4, refresh_every=64)
        windows = list(stream_windows(values, 40, 4))
        poisoned = windows[3].copy()
        poisoned[1, 5] = np.nan
        for index, win in enumerate(windows):
            if index == 3:
                corr = kernel.update(poisoned)
                expected = pearson_matrix_masked(poisoned, kernel.min_overlap)
            else:
                corr = kernel.update(win)
                expected = pearson_matrix(win)
            np.testing.assert_allclose(corr, expected, atol=1e-9)

    def test_non_overlapping_call_refreshes_exactly(self):
        rng = np.random.default_rng(7)
        kernel = RollingCorrelation(5, 30, 3, refresh_every=64)
        kernel.update(rng.normal(size=(5, 30)))
        unrelated = rng.normal(size=(5, 30))  # does not extend the stream
        assert np.array_equal(kernel.update(unrelated), pearson_matrix(unrelated))

    def test_state_round_trip_bit_identical(self):
        rng = np.random.default_rng(8)
        values = np.cumsum(rng.normal(size=(6, 800)), axis=1)
        windows = list(stream_windows(values, 50, 5))
        kernel = RollingCorrelation(6, 50, 5, refresh_every=32)
        for win in windows[:40]:
            kernel.update(win)
        resumed = RollingCorrelation.from_state(kernel.to_state())
        for win in windows[40:]:
            assert np.array_equal(kernel.update(win), resumed.update(win))

    def test_seek_only_on_fresh_kernel(self):
        kernel = RollingCorrelation(3, 10, 2)
        kernel.seek(64)
        assert kernel.rounds_seen == 64
        kernel.update(np.random.default_rng(0).normal(size=(3, 10)))
        with pytest.raises(ValueError, match="fresh"):
            kernel.seek(128)

    def test_rejects_bad_shapes_and_params(self):
        with pytest.raises(ValueError):
            RollingCorrelation(0, 10, 2)
        with pytest.raises(ValueError):
            RollingCorrelation(3, 10, 2, refresh_every=0)
        kernel = RollingCorrelation(3, 10, 2)
        with pytest.raises(ValueError, match="shape"):
            kernel.update(np.zeros((3, 11)))


def random_knn_corr(rng, n):
    """A symmetric correlation-like matrix with community structure."""
    drivers = rng.normal(size=(3, 64))
    data = drivers[rng.integers(0, 3, size=n)] + 0.4 * rng.normal(size=(n, 64))
    return pearson_matrix(data)


class TestTSGEdgeArrays:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dict_path(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 50))
        k = int(rng.integers(1, min(n - 1, 8) + 1))
        tau = float(rng.uniform(0.0, 0.8))
        corr = random_knn_corr(rng, n)
        reference = prune_weak_edges(knn_graph(corr, k), tau)
        rows, cols, weights = tsg_edge_arrays(corr, k, tau)
        expected = {(u, v): w for u, v, w in reference.edges()}
        got = {(int(u), int(v)): w for u, v, w in zip(rows, cols, weights)}
        assert expected.keys() == got.keys()
        for key, weight in expected.items():
            assert got[key] == weight  # same float, same direction choice

    def test_build_tsg_unchanged_edges(self):
        rng = np.random.default_rng(11)
        window = rng.normal(size=(10, 40))
        corr = pearson_matrix(window)
        via_build = build_tsg(window, k=3, tau=0.2)
        via_loops = prune_weak_edges(knn_graph(corr, 3), 0.2)
        assert via_build.edge_set() == via_loops.edge_set()
        for u, v, w in via_loops.edges():
            assert via_build.weight(u, v) == w


class TestCSRGraph:
    def test_round_trip_through_dict_graph(self):
        rng = np.random.default_rng(12)
        corr = random_knn_corr(rng, 20)
        csr = tsg_csr(corr, 4, 0.1)
        dict_graph = csr.to_graph()
        back = CSRGraph.from_graph(dict_graph)
        assert np.array_equal(back.indptr, csr.indptr)
        assert np.array_equal(back.indices, csr.indices)
        assert np.array_equal(back.weights, csr.weights)
        assert csr.n_edges == dict_graph.n_edges
        assert csr.total_weight() == pytest.approx(dict_graph.total_weight())
        degrees = csr.weighted_degrees()
        for v in range(20):
            assert degrees[v] == pytest.approx(dict_graph.weighted_degree(v))

    def test_empty_graph(self):
        csr = CSRGraph.from_edges(4, np.zeros(0, int), np.zeros(0, int), np.zeros(0))
        assert csr.n_edges == 0
        assert csr.total_weight() == 0.0
        assert louvain_csr(csr).labels == (0, 1, 2, 3)


def planted_partition_edges(seed, n, blocks, tau, p_out, isolated_frac):
    """Planted-partition edges ``(rows, cols, weights)`` with rows < cols.

    Vertices get shuffled block labels, so blocks interleave in visit
    order.  Intra-block edges are heavy, inter-block edges light (none
    when ``p_out`` is 0); about a tenth of all weights are exactly 0.0, so
    ``tau=0`` keeps zero-weight edges.  A fraction of vertices loses every
    edge and stays isolated.
    """
    rng = np.random.default_rng(seed)
    block = rng.integers(0, blocks, size=n)
    rows, cols = np.triu_indices(n, k=1)
    same = block[rows] == block[cols]
    block_size = max(n / blocks, 2.0)
    p_in = min(1.0, rng.uniform(2.0, 10.0) / block_size)
    keep = rng.random(rows.size) < np.where(same, p_in, p_out)
    isolated = rng.random(n) < isolated_frac
    keep &= ~isolated[rows] & ~isolated[cols]
    rows, cols, same = rows[keep], cols[keep], same[keep]
    weights = np.where(
        same, rng.uniform(0.5, 1.0, rows.size), rng.uniform(0.0, 0.5, rows.size)
    )
    weights[rng.random(rows.size) < 0.1] = 0.0
    survive = weights >= tau
    return rows[survive], cols[survive], weights[survive]


class TestCSRCommunities:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        blocks=st.integers(1, 12),
        tau=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
        p_out=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        isolated_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    )
    def test_louvain_labels_match_dict_on_planted_partitions(
        self, seed, n, blocks, tau, p_out, isolated_frac
    ):
        rows, cols, weights = planted_partition_edges(
            seed, n, blocks, tau, p_out, isolated_frac
        )
        graph = Graph(n)
        for u, v, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
            graph.add_edge(u, v, w)
        csr = CSRGraph.from_edges(n, rows, cols, weights)
        labels = louvain_labels_csr(csr)
        assert tuple(labels.tolist()) == louvain(graph).labels

    @pytest.mark.parametrize("seed", range(8))
    def test_louvain_labels_match_dict(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(6, 80))
        k = int(rng.integers(1, min(n - 1, 10) + 1))
        corr = random_knn_corr(rng, n)
        tau = float(rng.uniform(0.0, 0.5))
        dict_graph = absolute_weight_graph(prune_weak_edges(knn_graph(corr, k), tau))
        csr = tsg_csr(corr, k, tau).absolute()
        reference = louvain(dict_graph)
        fast = louvain_csr(csr)
        assert fast.labels == reference.labels
        assert fast.n_communities == reference.n_communities
        assert fast.modularity == pytest.approx(reference.modularity, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_label_propagation_matches_dict(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(6, 60))
        corr = random_knn_corr(rng, n)
        dict_graph = absolute_weight_graph(prune_weak_edges(knn_graph(corr, 3), 0.2))
        csr = tsg_csr(corr, 3, 0.2).absolute()
        assert label_propagation_csr(csr).labels == label_propagation(dict_graph).labels

    def test_modularity_matches_dict(self):
        rng = np.random.default_rng(300)
        corr = random_knn_corr(rng, 30)
        dict_graph = absolute_weight_graph(prune_weak_edges(knn_graph(corr, 4), 0.1))
        csr = tsg_csr(corr, 4, 0.1).absolute()
        labels = louvain(dict_graph).labels
        assert modularity_csr(csr, np.array(labels)) == pytest.approx(
            modularity(dict_graph, list(labels)), abs=1e-12
        )

    def test_louvain_csr_rejects_negative_weights(self):
        csr = CSRGraph.from_edges(3, np.array([0]), np.array([1]), np.array([-0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            louvain_csr(csr)
        with pytest.raises(ValueError, match="non-negative"):
            label_propagation_csr(csr)


class TestEngineEquivalence:
    """The fast engine must reproduce the reference engine's detections."""

    @pytest.mark.parametrize("method", ["louvain", "label_propagation"])
    def test_detect_records_match_reference(self, method):
        values = community_values(n_sensors=10, length=1600, seed=21)
        series = MultivariateTimeSeries(values)
        results = {}
        for engine in ("fast", "reference"):
            config = CADConfig(
                window=80,
                step=8,
                k=4,
                tau=0.5,
                theta=0.2,
                rc_mode="window",
                rc_window=6,
                community_method=method,
                engine=engine,
                corr_refresh=16,
            )
            results[engine] = CAD(config, 10).detect(series)
        assert results["fast"].rounds == results["reference"].rounds
        assert results["fast"].anomalies == results["reference"].anomalies


class TestGraphSatellites:
    """Running total weight and the zero-copy neighbour view."""

    def test_total_weight_tracks_add_overwrite_remove(self):
        g = Graph(5)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 2, 0.25)
        assert g.total_weight() == pytest.approx(0.75)
        g.add_edge(1, 0, 1.0)  # overwrite replaces, not accumulates
        assert g.total_weight() == pytest.approx(1.25)
        g.remove_edge(0, 1)
        assert g.total_weight() == pytest.approx(0.25)
        g.remove_edge(1, 2)
        assert g.total_weight() == pytest.approx(0.0)

    def test_total_weight_matches_recomputation_randomised(self):
        rng = np.random.default_rng(42)
        g = Graph(12)
        live = {}
        for _ in range(300):
            u, v = sorted(rng.choice(12, size=2, replace=False))
            if (u, v) in live and rng.random() < 0.4:
                g.remove_edge(int(u), int(v))
                del live[(u, v)]
            else:
                w = float(rng.normal())
                g.add_edge(int(u), int(v), w)
                live[(u, v)] = w
            assert g.total_weight() == pytest.approx(sum(live.values()), abs=1e-9)

    def test_neighbors_view_is_read_only(self):
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        view = g.neighbors_view(0)
        assert dict(view) == {1: 0.5}
        with pytest.raises(TypeError):
            view[2] = 1.0
        # The copying accessor still hands out an independent dict.
        copy = g.neighbors(0)
        copy[2] = 1.0
        assert not g.has_edge(0, 2)

    def test_neighbors_view_tracks_mutation(self):
        g = Graph(3)
        g.add_edge(0, 1, 0.5)
        view = g.neighbors_view(0)
        g.add_edge(0, 2, 0.7)
        assert dict(view) == {1: 0.5, 2: 0.7}
