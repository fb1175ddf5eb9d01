"""Property-based tests for core data structures and algorithms."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CoAppearanceTracker, coappearance_counts, outlier_set
from repro.core.variation import RunningMoments, outlier_variations
from repro.graph import Graph, louvain, modularity
from repro.timeseries import WindowSpec, pearson_matrix


partition_pairs = st.integers(2, 25).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, 4)),
        arrays(np.int64, n, elements=st.integers(0, 4)),
    )
)


@given(partition_pairs)
@settings(max_examples=80, deadline=None)
def test_coappearance_symmetric_and_bounded(pair):
    previous, current = pair
    counts = coappearance_counts(previous, current)
    n = previous.size
    assert (counts >= 0).all()
    assert (counts <= n - 1).all()
    # Co-appearance is symmetric: summing the indicator over ordered pairs
    # gives an even total.
    assert counts.sum() % 2 == 0


def spec_coappearance_counts(previous_labels, labels):
    """The pair-key grouping by sorting (np.unique), the original formula."""
    n_current = int(labels.max()) + 1 if labels.size else 0
    keys = previous_labels.astype(np.int64) * max(n_current, 1) + labels.astype(np.int64)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return counts[inverse] - 1


def label_vectors(n):
    """Community labels of n vertices: compact, with id gaps, a single
    community or all singletons."""
    compact = arrays(np.int64, n, elements=st.integers(0, 4))
    return st.one_of(
        compact,
        compact.map(lambda labels: labels * 3 + 1),  # ids with gaps
        compact.map(lambda labels: labels * 97 + 3),  # past the bincount span
        st.just(np.zeros(n, dtype=np.int64)),
        st.permutations(list(range(n))).map(lambda p: np.array(p, dtype=np.int64)),
    )


@given(st.integers(1, 80).flatmap(lambda n: st.tuples(label_vectors(n), label_vectors(n))))
@settings(max_examples=150, deadline=None)
def test_coappearance_counts_match_the_sorting_spec(pair):
    previous, current = pair
    got = coappearance_counts(previous, current)
    expected = spec_coappearance_counts(previous, current)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.lists(
            st.tuples(label_vectors(n), arrays(bool, n, elements=st.booleans())),
            min_size=2,
            max_size=6,
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_tracker_with_ghosted_sensors_matches_the_sorting_spec(rounds):
    # Invalid sensors are ghosted along with their previous community before
    # the counts are taken; the tracker must give the same S_r and RC as one
    # counting with the spec.
    n = rounds[0][0].size
    tracker, spec = CoAppearanceTracker(n), CoAppearanceTracker(n)
    for labels, valid in rounds:
        got = tracker.update(labels, valid)
        with mock.patch(
            "repro.core.coappearance.coappearance_counts", spec_coappearance_counts
        ):
            expected = spec.update(labels, valid)
        if expected is None:
            assert got is None
            continue
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(partition_pairs)
@settings(max_examples=40, deadline=None)
def test_coappearance_invariant_to_relabeling(pair):
    previous, current = pair
    # Shift every current label by a constant: same partition.
    np.testing.assert_array_equal(
        coappearance_counts(previous, current),
        coappearance_counts(previous, current + 7),
    )


@given(
    st.integers(2, 10).flatmap(
        lambda n: st.lists(
            arrays(np.int64, n, elements=st.integers(0, 3)),
            min_size=2,
            max_size=8,
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_tracker_rc_in_unit_interval(partitions):
    n = partitions[0].size
    tracker = CoAppearanceTracker(n)
    tracker.update(partitions[0])
    for labels in partitions[1:]:
        _, rc = tracker.update(labels)
        assert (rc >= 0).all()
        assert (rc <= 1 + 1e-12).all()


@given(
    arrays(np.float64, st.integers(1, 30), elements=st.floats(0, 1)),
    st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_outlier_set_monotone_in_theta(rc, theta):
    smaller = outlier_set(rc, theta / 2)
    larger = outlier_set(rc, theta)
    assert smaller <= larger


@given(
    st.sets(st.integers(0, 20)),
    st.sets(st.integers(0, 20)),
)
@settings(max_examples=60, deadline=None)
def test_outlier_variations_is_metric_like(a, b):
    a, b = frozenset(a), frozenset(b)
    assert outlier_variations(a, b) == outlier_variations(b, a)
    assert outlier_variations(a, a) == 0
    assert outlier_variations(a, b) <= len(a) + len(b)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_running_moments_match_numpy(values):
    moments = RunningMoments()
    for value in values:
        moments.push(value)
    array = np.array(values)
    assert abs(moments.mean - array.mean()) < 1e-8 * max(1, abs(array.mean()))
    assert abs(moments.std - array.std()) < 1e-6 * max(1.0, array.std())


@given(
    st.integers(2, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29), st.floats(0.01, 1)), max_size=60),
)
@settings(max_examples=40, deadline=None)
def test_louvain_partition_is_valid_and_nonnegative_modularity(n, edges):
    graph = Graph(n)
    for u, v, w in edges:
        if u % n != v % n:
            graph.add_edge(u % n, v % n, w)
    result = louvain(graph)
    assert len(result.labels) == n
    assert set(result.labels) == set(range(result.n_communities))
    # Louvain starts from singletons (Q can't be worse than... any single
    # move is only taken on positive gain), so the final modularity must be
    # at least the singleton partition's.
    singleton = modularity(graph, list(range(n)))
    assert result.modularity >= singleton - 1e-9


@given(
    st.integers(2, 8),
    st.integers(4, 30),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_pearson_matrix_psd_diagonal(n, w, seed):
    rng = np.random.default_rng(seed)
    window = rng.standard_normal((n, w))
    corr = pearson_matrix(window)
    np.testing.assert_allclose(corr, corr.T, atol=1e-12)
    assert (np.abs(corr) <= 1 + 1e-12).all()
    eigenvalues = np.linalg.eigvalsh(corr)
    assert eigenvalues.min() > -1e-8


@given(st.integers(2, 50), st.integers(1, 49), st.integers(50, 300))
@settings(max_examples=60, deadline=None)
def test_windowspec_round_arithmetic(window, step, length):
    if step >= window or length < window:
        return
    spec = WindowSpec(window, step)
    total = spec.n_rounds(length)
    assert total >= 1
    # Last round fits inside the series.
    assert spec.round_span(total - 1)[1] <= length
    # One more round would not fit.
    assert spec.round_span(total)[1] > length
    # Fresh spans tile [0, last_stop) exactly once.
    covered = np.zeros(length, dtype=int)
    for r in range(total):
        a, b = spec.fresh_span(r)
        covered[a:b] += 1
    assert (covered[: spec.round_span(total - 1)[1]] == 1).all()
