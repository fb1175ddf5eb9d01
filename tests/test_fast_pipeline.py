"""Tests for the fast round pipeline: rolling correlation and CSR graphs.

The contract under test is *equivalence*: the incremental kernel must track
:func:`pearson_matrix` within 1e-9 over long streams (including rounds right
after an exact refresh), and the array-backed TSG/Louvain must reproduce the
dict reference implementations label for label.
"""

import ctypes
import shutil
import subprocess
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CAD, CADConfig, CommunityPipeline, build_tsg
from repro.core.pipeline import NON_FINITE_WINDOW
from repro.graph import (
    CSRGraph,
    Graph,
    absolute_weight_graph,
    knn_graph,
    label_propagation,
    louvain,
    prune_weak_edges,
    tsg_csr,
    tsg_edge_arrays,
)
from repro import _native
from repro.graph import csr
from repro.graph.csr import label_propagation_labels_csr, louvain_labels_csr
from repro.timeseries import (
    MultivariateTimeSeries,
    RollingCorrelation,
    pearson_matrix,
    pearson_matrix_masked,
)
from repro.timeseries.rolling import corr_from_sums, refresh_from_window

#: Skip mark for tests that need the kernels actually compiled.
needs_compiler = pytest.mark.skipif(
    not _native.compiler_command()
    or shutil.which(_native.compiler_command()[0]) is None,
    reason="no C compiler to build the kernels with",
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

    def test_state_holds_private_array_copies(self):
        rng = np.random.default_rng(9)
        values = np.cumsum(rng.normal(size=(6, 400)), axis=1)
        windows = list(stream_windows(values, 50, 5))
        kernel = RollingCorrelation(6, 50, 5, refresh_every=32)
        for win in windows[:20]:
            kernel.update(win)
        state = kernel.to_state()
        for name in ("baseline", "sums", "cross", "prev"):
            assert isinstance(state[name], np.ndarray), name
            assert state[name].dtype == np.float64, name
            assert not np.shares_memory(state[name], getattr(kernel, f"_{name}"))
        assert not np.shares_memory(state["prev"], values)
        # One state adopted twice: the running sums one kernel updates in
        # place must not leak into the other.
        first = RollingCorrelation.from_state(state)
        second = RollingCorrelation.from_state(state)
        expected = [kernel.update(win) for win in windows[20:30]]
        for corrs in (
            [first.update(win) for win in windows[20:30]],
            [second.update(win) for win in windows[20:30]],
        ):
            assert all(map(bitwise_equal, corrs, expected))

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


def spec_advance(kernel, window):
    """The rank-2s update as numpy staged it one slice at a time, on copies.

    Returns ``(sums, cross, corr)`` for ``kernel.update(window)`` on a
    non-anchor round whose window extends the previous one: each half of
    the factor copied and shifted on its own, the left factor an explicit
    copy with its evicted half negated, then :func:`corr_from_sums`.
    """
    step, w = kernel.step, kernel.window
    baseline = kernel._baseline
    sums, cross = kernel._sums.copy(), kernel._cross.copy()
    right = np.empty((kernel.n_sensors, 2 * step))
    right[:, :step] = window[:, w - step :]
    right[:, :step] -= baseline[:, None]
    right[:, step:] = kernel._prev[:, :step]
    right[:, step:] -= baseline[:, None]
    left = right.copy()
    left[:, step:] *= -1.0
    sums += right[:, :step].sum(axis=1)
    sums -= right[:, step:].sum(axis=1)
    cross += left @ right.T
    return sums, cross, corr_from_sums(sums, cross, w)


def bitwise_equal(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestRollingUpdateBitwise:
    """The one-pass rolling update keeps the float state of the old chain."""

    @pytest.mark.parametrize("engine", ["compiled", "fallback"])
    @settings(max_examples=25, deadline=None)
    @example(seed=0, n=2, window=3, step=1, refresh=64, scale=1.0)
    @example(seed=1, n=17, window=40, step=39, refresh=4, scale=1e6)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        window=st.integers(3, 80),
        step=st.integers(1, 12),
        refresh=st.sampled_from([2, 7, 64]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_advance_is_bitwise_the_numpy_chain(
        self, engine, seed, n, window, step, refresh, scale
    ):
        step = min(step, window - 1)
        rng = np.random.default_rng(seed)
        # A drifting stream far from zero with a flat-lined sensor: the
        # baseline goes stale between anchors, so the shifted sums grow.
        length = window + 30 * step
        drift = np.linspace(0.0, rng.uniform(0.0, 50.0), length)
        values = scale * (np.cumsum(rng.normal(size=(n, length)), axis=1) + drift + 1e3)
        values[n // 2] = 7.25
        kernel = RollingCorrelation(n, window, step, refresh_every=refresh)
        advanced = 0
        with pytest.MonkeyPatch.context() as patch:
            if engine == "fallback":
                patch.setattr("repro.timeseries.rolling.load_kernels", lambda: None)
            elif _native.load_kernels() is None:
                pytest.skip("the kernels could not be compiled here")
            for win in stream_windows(values, window, step):
                spec = None
                if kernel.rounds_seen and not kernel.next_update_is_anchor:
                    spec = spec_advance(kernel, win)
                corr = kernel.update(win, assume_finite=True)
                if spec is not None:
                    advanced += 1
                    for got, expected in zip((kernel._sums, kernel._cross, corr), spec):
                        assert bitwise_equal(got, expected)
        assert advanced > 0


class TestIncrementalStrictCheck:
    """A strict round checks only the columns no clean earlier window had."""

    N, WINDOW, STEP = 6, 24, 4

    def pipeline(self, engine="fast", allow_missing=False):
        config = CADConfig(
            window=self.WINDOW,
            step=self.STEP,
            k=2,
            engine=engine,
            allow_missing=allow_missing,
            corr_refresh=8,
        )
        return CommunityPipeline(config, self.N)

    def views(self, values, count):
        return [
            values[:, r * self.STEP : r * self.STEP + self.WINDOW] for r in range(count)
        ]

    def values(self, seed=0):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.normal(size=(self.N, self.WINDOW + 20 * self.STEP)), axis=1)

    def test_consecutive_views_check_only_the_new_step(self):
        values = self.values()
        pipeline = self.pipeline()
        windows = self.views(values, 6)
        assert pipeline.kernel.unseen_columns(windows[0]) is windows[0]
        for previous, window in zip(windows, windows[1:]):
            pipeline.process(previous)
            unseen = pipeline.kernel.unseen_columns(window)
            assert unseen.shape == (self.N, self.STEP)
            assert np.shares_memory(unseen, values[:, previous.shape[1] :])
            assert np.array_equal(unseen, window[:, -self.STEP :])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, STEP - 1])
    def test_non_finite_in_the_new_columns_raises(self, bad, column):
        values = self.values()
        pipeline = self.pipeline()
        windows = self.views(values, 5)
        for window in windows[:4]:
            pipeline.process(window)
        values[2, 4 * self.STEP + self.WINDOW - self.STEP + column] = bad
        with pytest.raises(ValueError) as excinfo:
            pipeline.process(windows[4])
        assert str(excinfo.value) == NON_FINITE_WINDOW

    @pytest.mark.parametrize("kind", ["unrelated-array", "equal-valued-copy"])
    def test_windows_not_sharing_memory_are_swept_whole(self, kind):
        values = self.values()
        pipeline = self.pipeline()
        windows = self.views(values, 5)
        for window in windows[:4]:
            pipeline.process(window)
        if kind == "unrelated-array":
            window = self.values(seed=1)[:, : self.WINDOW].copy()
        else:
            window = windows[4].copy()  # same values, different memory
        window[1, 0] = np.nan  # an old column, one a clean window covered
        assert pipeline.kernel.unseen_columns(window) is window
        with pytest.raises(ValueError, match="non-finite"):
            pipeline.process(window)

    @pytest.mark.parametrize("refusal", ["poisoned-copy", "poisoned-view"])
    def test_refused_window_leaves_the_kernel_untouched(self, refusal, monkeypatch):
        values = self.values()
        corrs = []
        original = RollingCorrelation.update

        def recording(kernel, window, **kwargs):
            corr = original(kernel, window, **kwargs)
            corrs.append(corr)
            return corr

        monkeypatch.setattr(RollingCorrelation, "update", recording)
        clean = self.pipeline()
        expected = [clean.process(w).labels for w in self.views(values, 10)]
        expected_corrs, corrs[:] = list(corrs), []

        pipeline = self.pipeline()
        windows = self.views(values, 10)
        got = [pipeline.process(w).labels for w in windows[:6]]
        bad_column = 6 * self.STEP + self.WINDOW - 1
        if refusal == "poisoned-copy":
            poisoned = windows[6].copy()
            poisoned[3, -1] = np.nan
        else:
            saved = values[3, bad_column]
            values[3, bad_column] = np.inf
            poisoned = windows[6]
        with pytest.raises(ValueError, match="non-finite"):
            pipeline.process(poisoned)
        if refusal == "poisoned-view":
            values[3, bad_column] = saved
        got += [pipeline.process(w).labels for w in windows[6:]]
        assert len(corrs) == len(expected_corrs)
        for corr, expected_corr in zip(corrs, expected_corrs):
            assert bitwise_equal(corr, expected_corr)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_without_a_clean_same_memory_predecessor_every_column_is_unseen(self):
        values = self.values()
        windows = self.views(values, 3)
        kernel = RollingCorrelation(self.N, self.WINDOW, self.STEP)
        assert kernel.unseen_columns(windows[0]) is windows[0]  # fresh kernel
        kernel.update(windows[0])
        assert kernel.unseen_columns(windows[1]).shape[1] == self.STEP
        kernel.update(windows[1])
        # The same window again does not extend the stream.
        assert kernel.unseen_columns(windows[1]) is windows[1]
        # A restored kernel holds a copy of its previous window.
        resumed = RollingCorrelation.from_state(kernel.to_state())
        assert resumed.unseen_columns(windows[2]) is windows[2]
        kernel.reset()
        assert kernel.unseen_columns(windows[2]) is windows[2]
        # A non-finite window takes the masked path and leaves the kernel dirty.
        poisoned = values.copy()
        poisoned[0, 3] = np.nan
        degraded = self.views(poisoned, 2)
        kernel.update(degraded[0])
        assert kernel.unseen_columns(degraded[1]) is degraded[1]
        # step == window: consecutive windows share no column.
        disjoint = RollingCorrelation(self.N, self.WINDOW, self.WINDOW)
        disjoint.update(values[:, : self.WINDOW])
        following = values[:, self.WINDOW : 2 * self.WINDOW]
        assert disjoint.unseen_columns(following) is following

    def test_reference_engine_and_allow_missing_check_every_column(self):
        values = self.values()
        windows = self.views(values, 5)
        reference = self.pipeline(engine="reference")
        degraded = self.pipeline(allow_missing=True)
        for window in windows[:4]:
            reference.process(window)
            assert degraded.process(window).quality.missing_fraction == 0.0
        # A NaN written into an old column after it was scored: only a whole
        # window sweep sees it, and these two modes always sweep.
        values[0, 4 * self.STEP] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            reference.process(windows[4])
        quality = degraded.process(windows[4]).quality
        assert quality.missing_fraction == pytest.approx(1 / (self.N * self.WINDOW))


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

    def test_empty_graph(self):
        csr = CSRGraph.from_edges(4, np.zeros(0, int), np.zeros(0, int), np.zeros(0))
        assert csr.n_edges == 0
        assert louvain_labels_csr(csr).tolist() == [0, 1, 2, 3]


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
    # Degenerate shapes: one vertex, two, all isolated, no edges at all.
    @example(seed=1, n=1, blocks=1, tau=0.0, p_out=0.0, isolated_frac=0.0,
             unit_weights=False)
    @example(seed=2, n=2, blocks=1, tau=0.0, p_out=0.0, isolated_frac=0.0,
             unit_weights=False)
    @example(seed=3, n=40, blocks=3, tau=0.0, p_out=0.05, isolated_frac=1.0,
             unit_weights=False)
    @example(seed=4, n=12, blocks=12, tau=0.0, p_out=0.0, isolated_frac=0.0,
             unit_weights=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        blocks=st.integers(1, 12),
        tau=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
        p_out=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        isolated_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
        unit_weights=st.booleans(),
    )
    def test_louvain_labels_match_dict_on_planted_partitions(
        self, seed, n, blocks, tau, p_out, isolated_frac, unit_weights
    ):
        rows, cols, weights = planted_partition_edges(
            seed, n, blocks, tau, p_out, isolated_frac
        )
        if unit_weights:
            # Exact sums make gain ties common: the candidate order and the
            # strict min_gain beat decide them.
            weights = np.ones_like(weights)
        graph = Graph(n)
        for u, v, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
            graph.add_edge(u, v, w)
        csr = CSRGraph.from_edges(n, rows, cols, weights)
        labels = louvain_labels_csr(csr)
        assert tuple(labels.tolist()) == louvain(graph).labels

    @pytest.mark.parametrize(
        "seed, shape",
        [pytest.param(seed, None, id=str(seed)) for seed in range(8)]
        # k = n - 1: every vertex is every other vertex's neighbour.
        + [pytest.param(8, (n, n - 1), id=f"n{n}-k{n - 1}") for n in (2, 3, 9)],
    )
    def test_louvain_labels_match_dict(self, seed, shape):
        rng = np.random.default_rng(100 + seed)
        if shape is None:
            n = int(rng.integers(6, 80))
            k = int(rng.integers(1, min(n - 1, 10) + 1))
        else:
            n, k = shape
        corr = random_knn_corr(rng, n)
        tau = float(rng.uniform(0.0, 0.5))
        dict_graph = absolute_weight_graph(prune_weak_edges(knn_graph(corr, k), tau))
        csr = tsg_csr(corr, k, tau).absolute()
        assert tuple(louvain_labels_csr(csr).tolist()) == louvain(dict_graph).labels

    @pytest.mark.parametrize("seed", range(4))
    def test_label_propagation_matches_dict(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(6, 60))
        corr = random_knn_corr(rng, n)
        dict_graph = absolute_weight_graph(prune_weak_edges(knn_graph(corr, 3), 0.2))
        csr = tsg_csr(corr, 3, 0.2).absolute()
        labels = label_propagation_labels_csr(csr)
        assert tuple(labels.tolist()) == label_propagation(dict_graph).labels

    def test_louvain_csr_rejects_negative_weights(self):
        csr = CSRGraph.from_edges(3, np.array([0]), np.array([1]), np.array([-0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            louvain_labels_csr(csr)
        with pytest.raises(ValueError, match="non-negative"):
            label_propagation_labels_csr(csr)


#: Malformed CSR inputs ``(n, indptr, indices)``; each must raise ValueError.
MALFORMED_CSR = {
    "index-past-n": (3, [0, 1, 2, 2], [1, 3]),
    "negative-index": (3, [0, 1, 2, 2], [1, -1]),
    "decreasing-indptr": (3, [0, 2, 1, 2], [1, 0]),
    "indptr-not-from-0": (3, [1, 1, 2, 2], [1, 0]),
    "indptr-not-to-m": (3, [0, 1, 2, 3], [1, 0]),
}


class TestLouvainKernel:
    """The compiled kernel's input checks, loader and dict fallback."""

    @pytest.fixture(autouse=True)
    def _reset_loader_memo(self):
        yield
        _native.load_kernels.cache_clear()

    @staticmethod
    def planted_graphs():
        graphs = []
        for seed, n in enumerate((6, 24, 64, 150)):
            edges = planted_partition_edges(seed, n, 4, 0.0, 0.02, 0.1)
            graphs.append(CSRGraph.from_edges(n, *edges))
        return graphs

    @pytest.mark.parametrize("fallback", [False, True], ids=["kernel", "fallback"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CSR))
    def test_malformed_csr_raises_value_error(self, case, fallback, monkeypatch):
        n, indptr, indices = MALFORMED_CSR[case]
        graph = CSRGraph(n, np.array(indptr), np.array(indices), np.ones(len(indices)))
        if fallback:
            monkeypatch.setattr(csr, "load_kernels", lambda: None)
        with pytest.raises(ValueError, match="malformed CSR graph"):
            louvain_labels_csr(graph)

    def test_fallback_matches_kernel_and_warns_once(self, monkeypatch, tmp_path):
        graphs = self.planted_graphs()
        expected = [louvain_labels_csr(graph) for graph in graphs]

        def failing_compiler(command, **kwargs):
            raise subprocess.CalledProcessError(1, command, stderr=b"cc: error")

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(subprocess, "run", failing_compiler)
        _native.load_kernels.cache_clear()
        with pytest.warns(RuntimeWarning, match="dict reference Louvain") as warned:
            got = [louvain_labels_csr(graph) for graph in graphs]
        assert len(warned) == 1
        for fallback_labels, kernel_labels in zip(got, expected):
            assert np.array_equal(fallback_labels, kernel_labels)
        assert list(tmp_path.rglob("*.so")) == []  # the failed build left nothing

    @needs_compiler
    def test_cold_cache_builds_once_then_loads_without_compiling(
        self, monkeypatch, tmp_path
    ):
        compiles = []
        real_run = subprocess.run

        def counting_run(command, **kwargs):
            compiles.append(command)
            return real_run(command, **kwargs)

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(subprocess, "run", counting_run)
        _native.load_kernels.cache_clear()
        assert _native.load_kernels() is not None
        assert len(compiles) == 1
        cache = tmp_path / "repro"
        assert cache.stat().st_mode & 0o777 == 0o700
        name = _native.cache_name(
            _native.SOURCE.read_bytes(), _native.compiler_command()
        )
        assert [path.name for path in cache.iterdir()] == [name]

        def no_compiler(command, **kwargs):
            raise AssertionError("a warm cache must not invoke the compiler")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        _native.load_kernels.cache_clear()
        assert _native.load_kernels() is not None
        graph = self.planted_graphs()[1]
        assert tuple(louvain_labels_csr(graph).tolist()) == louvain(graph.to_graph()).labels

    def test_unwritable_cache_dir_builds_privately(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        _native.load_kernels.cache_clear()
        graph = self.planted_graphs()[0]
        assert tuple(louvain_labels_csr(graph).tolist()) == louvain(graph.to_graph()).labels
        assert blocker.read_text() == ""

    def test_edited_source_maps_to_a_different_cache_name(self):
        source = _native.SOURCE.read_bytes()
        command = _native.compiler_command()
        name = _native.cache_name(source, command)
        assert _native.cache_name(source, command) == name
        assert _native.cache_name(source + b"\n", command) != name
        assert _native.cache_name(source, [*command, "-m32"]) != name


class TestNativeKernels:
    """The compiled correlation and TSG kernels, their checks and the cache."""

    @pytest.fixture(autouse=True)
    def _reset_loader_memo(self):
        yield
        _native.load_kernels.cache_clear()

    @staticmethod
    def kernels():
        kernels = _native.load_kernels()
        if kernels is None:
            pytest.skip("the kernels could not be compiled here")
        return kernels

    @settings(max_examples=150, deadline=None)
    @example(seed=0, n=1, window=2, scale=1.0, n_constant=1, drift=0.0)
    @example(seed=1, n=5, window=3, scale=1.0, n_constant=5, drift=1.0)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        window=st.integers(2, 200),
        scale=st.sampled_from([1e-9, 1.0, 1e6]),
        n_constant=st.integers(0, 3),
        drift=st.sampled_from([0.0, 1e-3, 1.0]),
    )
    def test_compiled_normalisation_is_bitwise_numpy(
        self, seed, n, window, scale, n_constant, drift
    ):
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal((n, window))
        # Zero-variance sensors, at zero and at a non-zero level.
        values[:n_constant] = rng.choice([0.0, 7.5], size=(min(n_constant, n), 1))
        # The kernel keeps sums relative to a baseline from an earlier window.
        baseline = values.mean(axis=1) + drift * scale * rng.standard_normal(n)
        shifted = values - baseline[:, None]
        sums = shifted.sum(axis=1)
        cross = shifted @ shifted.T
        expected = corr_from_sums(sums, cross, window)
        got = self.kernels().corr_from_sums(sums, cross, window)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=1, window=2, offset=0.0, n_constant=0, ring=False)
    @example(seed=1, n=6, window=7, offset=1e9, n_constant=1, ring=True)
    @example(seed=2, n=9, window=8, offset=1.0, n_constant=2, ring=False)
    @example(seed=3, n=12, window=9, offset=0.0, n_constant=0, ring=True)
    @example(seed=4, n=17, window=128, offset=1e3, n_constant=1, ring=False)
    @example(seed=5, n=23, window=129, offset=1e9, n_constant=3, ring=True)
    @example(seed=6, n=40, window=8193, offset=1e6, n_constant=2, ring=True)
    @example(seed=7, n=3, window=10_000, offset=0.0, n_constant=0, ring=False)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        window=st.one_of(st.integers(2, 300), st.integers(2, 10_000)),
        offset=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e9]),
        n_constant=st.integers(0, 3),
        ring=st.booleans(),
    )
    def test_compiled_refresh_is_bitwise_numpy(
        self, seed, n, window, offset, n_constant, ring
    ):
        rng = np.random.default_rng(seed)
        n_constant = min(n_constant, n)
        # A ring view: rows of adjacent columns, rows farther apart than w.
        width = 2 * window + 5 if ring else window
        values = offset + np.cumsum(rng.standard_normal((n, width)), axis=1)
        # Copies and negated copies of one sensor push |corr| a rounding
        # error past 1 before the clip.
        for i in range(n_constant + 1, n, 3):
            values[i] = rng.choice([-1.0, 1.0, 2.5]) * values[n_constant]
        values[:n_constant] = rng.choice([0.0, -3.5, 0.3, offset], size=(n_constant, 1))
        # Near-constant sensors: noise far under the 1e-12 norm threshold
        # leaves their centred rows, and so their Gram entries, non-zero.
        near = values[:n_constant:2]
        near += 1e-15 * rng.standard_normal(near.shape)
        win = values[:, 3 : 3 + window] if ring else values
        assert win.shape == (n, window) and win.strides == (8 * width, 8)
        got = self.kernels().refresh(win)
        expected = refresh_from_window(win)
        for name, a, b in zip(("corr", "baseline", "sums", "cross"), got, expected):
            assert bitwise_equal(a, b), name
        assert bitwise_equal(got[0], pearson_matrix(win))

    def test_refresh_routes_strided_windows_to_numpy(self, monkeypatch):
        def trap(self, window):
            raise AssertionError("the compiled refresh got a strided window")

        self.kernels()
        monkeypatch.setattr(_native.Kernels, "refresh", trap)
        values = np.cumsum(np.random.default_rng(3).normal(size=(5, 200)), axis=1)
        kernel = RollingCorrelation(5, 40, 4)
        for window in (values[:, :80:2], np.asfortranarray(values[:, :40])):
            assert bitwise_equal(kernel.update(window), pearson_matrix(window))
            kernel.reset()

    def test_rolling_stream_is_bitwise_the_numpy_fallback(self, monkeypatch):
        rng = np.random.default_rng(12)
        values = np.cumsum(rng.normal(size=(7, 900)), axis=1)
        values[3] = 2.0  # a flat-lined sensor
        windows = list(stream_windows(values, 60, 6))
        self.kernels()
        compiled = RollingCorrelation(7, 60, 6, refresh_every=32)
        expected = [compiled.update(win) for win in windows]
        monkeypatch.setattr(
            "repro.timeseries.rolling.load_kernels", lambda: None
        )
        fallback = RollingCorrelation(7, 60, 6, refresh_every=32)
        for win, corr in zip(windows, expected):
            got = fallback.update(win)
            assert np.array_equal(got.view(np.uint64), corr.view(np.uint64))

    def test_certificate_marks_exactly_the_uncertified_rows(self):
        corr = np.array(
            [
                [1.0, 0.9, 0.2, 0.1],  # member 0.9 > 0.2: certified
                [0.9, 1.0, 0.5, 0.5],  # member ties a non-member: stale
                [0.2, 0.5, 1.0, np.nan],  # NaN in the row: stale
                [0.1, 0.5, np.nan, 1.0],  # picked its own diagonal: stale
            ]
        )
        picks = np.array([[1], [2], [1], [3]])
        stale = self.kernels().tsg_certify(corr, picks)
        assert stale.tolist() == [1, 2, 3]
        corr[2, 3] = 0.0
        assert self.kernels().tsg_certify(corr, picks).tolist() == [1, 3]
        # A repeated pick (a corrupt table) only makes its row stale, even
        # where counting alone would pass: row 2 has k = 2 strengths at or
        # above its weakest pick's 0.5, but only one distinct pick.
        corr[1, 3] = corr[3, 2] = 0.0
        corr[2, 0] = 0.6
        picks = np.array([[1, 2], [0, 2], [1, 1], [0, 1]])
        assert self.kernels().tsg_certify(corr, picks).tolist() == [2]

    @pytest.mark.parametrize(
        "call",
        [
            "stale-nonsquare-corr",
            "stale-members-shape",
            "stale-pick-out-of-range",
            "assemble-nonsquare-corr",
            "assemble-members-shape",
            "assemble-k-not-below-n",
            "assemble-negative-pick",
            "corr-cross-shape",
            "corr-sums-2d",
            "refresh-1d",
            "refresh-3d",
            "refresh-empty",
            "refresh-column-stride",
            "refresh-fortran-order",
            "refresh-float32",
        ],
    )
    def test_shape_mismatch_raises_before_the_c_call(self, call):
        def trap(*args):
            raise AssertionError("the C code was called with malformed input")

        kernels = _native.Kernels(
            types.SimpleNamespace(
                repro_louvain_labels=trap,
                repro_tsg_certify=trap,
                repro_tsg_csr=trap,
                repro_corr_from_sums=trap,
                repro_refresh_unit=trap,
                repro_refresh_finish=trap,
            )
        )
        corr = np.zeros((4, 4))
        picks = np.array([[1, 2], [0, 2], [0, 1], [0, 1]])
        calls = {
            "stale-nonsquare-corr": lambda: kernels.tsg_certify(
                np.zeros((4, 3)), picks
            ),
            "stale-members-shape": lambda: kernels.tsg_certify(corr, picks[:3]),
            "stale-pick-out-of-range": lambda: kernels.tsg_certify(
                corr, np.where(picks == 2, 4, picks)
            ),
            "assemble-nonsquare-corr": lambda: kernels.tsg_csr(
                np.zeros(16), picks, 0.5
            ),
            "assemble-members-shape": lambda: kernels.tsg_csr(
                corr, picks.ravel(), 0.5
            ),
            "assemble-k-not-below-n": lambda: kernels.tsg_csr(
                corr, np.tile(np.arange(4), (4, 1)), 0.5
            ),
            "assemble-negative-pick": lambda: kernels.tsg_csr(
                corr, np.where(picks == 2, -1, picks), 0.5
            ),
            "corr-cross-shape": lambda: kernels.corr_from_sums(
                np.zeros(4), np.zeros((4, 3)), 10
            ),
            "corr-sums-2d": lambda: kernels.corr_from_sums(
                np.zeros((2, 2)), np.zeros((4, 4)), 10
            ),
            "refresh-1d": lambda: kernels.refresh(np.zeros(8)),
            "refresh-3d": lambda: kernels.refresh(np.zeros((2, 3, 4))),
            "refresh-empty": lambda: kernels.refresh(np.zeros((4, 0))),
            "refresh-column-stride": lambda: kernels.refresh(np.zeros((4, 20))[:, ::2]),
            "refresh-fortran-order": lambda: kernels.refresh(
                np.asfortranarray(np.zeros((4, 10)))
            ),
            "refresh-float32": lambda: kernels.refresh(np.zeros((4, 10), np.float32)),
        }
        with pytest.raises(ValueError, match="shape|square|lie in"):
            calls[call]()

    @needs_compiler
    def test_rebuild_after_a_source_edit_leaves_one_library(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        _native.load_kernels.cache_clear()
        assert _native.load_kernels() is not None
        cache = tmp_path / "xdg" / "repro"
        (cache / "louvain-0123456789abcdef.so").write_bytes(b"")  # an old build
        in_flight = cache / ".kernels-build.so"  # another process mid-build
        in_flight.write_bytes(b"")

        edited = tmp_path / "_kernels.c"
        edited.write_bytes(_native.SOURCE.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(_native, "SOURCE", edited)
        _native.load_kernels.cache_clear()
        assert _native.load_kernels() is not None
        libraries = sorted(
            path.name for path in cache.glob("*.so") if not path.name.startswith(".")
        )
        name = _native.cache_name(edited.read_bytes(), _native.compiler_command())
        assert libraries == [name]
        assert in_flight.exists()

    @needs_compiler
    def test_baseline_clone_is_bitwise_the_loaded_library(self, tmp_path):
        # On an AVX2 host the loaded library runs the avx2 clones; a second
        # build with the clones off runs the baseline code the dynamic
        # loader picks elsewhere.  Both must return the same bits.
        loaded = self.kernels()
        target = tmp_path / "baseline.so"
        subprocess.run(
            [
                *_native.compiler_command(),
                *_native.FLAGS,
                "-DREPRO_NO_TARGET_CLONES",
                "-o",
                str(target),
                str(_native.SOURCE),
                *_native.LIBS,
            ],
            check=True,
            capture_output=True,
        )
        baseline = _native.Kernels(ctypes.CDLL(str(target)))
        rng = np.random.default_rng(28)
        for case in range(60):
            # Odd sizes leave scalar tails after every vector width.
            n = int(rng.integers(2, 70))
            k = int(rng.integers(1, n))
            window = int(rng.integers(2, 300))
            values = rng.standard_normal((n, window)) * rng.choice([1e-9, 1.0, 1e6])
            values[: case % 3] = 4.0  # zero-variance sensors
            shifted = values - rng.standard_normal(n)[:, None]
            sums, cross = shifted.sum(axis=1), shifted @ shifted.T
            corrs = [
                loaded.corr_from_sums(sums, cross, window),
                baseline.corr_from_sums(sums, cross, window),
            ]
            assert np.array_equal(corrs[0].view(np.uint64), corrs[1].view(np.uint64))
            values[-1] = -values[-2]  # |corr| a rounding error past 1
            for got, expected in zip(loaded.refresh(values), baseline.refresh(values)):
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            corr = np.round(corrs[0], int(rng.integers(1, 4)))  # boundary ties
            if case % 4 == 0:
                corr[rng.integers(0, n), :] = np.nan
            # Each row's top k (certified unless tied or NaN), some re-drawn.
            strength = np.where(np.eye(n, dtype=bool), np.inf, -np.abs(corr))
            picks = np.argpartition(strength, k - 1, axis=1)[:, :k]
            for i in np.flatnonzero(rng.random(n) < 0.3):
                picks[i] = rng.choice(np.delete(np.arange(n), i), k, replace=False)
            assert np.array_equal(
                loaded.tsg_certify(corr, picks), baseline.tsg_certify(corr, picks)
            )
            tau = float(rng.choice([0.0, 0.3, 1.0]))
            for got, expected in zip(
                loaded.tsg_csr(corr, picks, tau), baseline.tsg_csr(corr, picks, tau)
            ):
                assert got.dtype == expected.dtype
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


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
