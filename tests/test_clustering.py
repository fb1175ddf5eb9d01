"""Tests for SBD, k-Shape and k-means."""

import numpy as np
import pytest

from repro.clustering import (
    cross_correlation,
    extract_shape,
    kmeans,
    kshape,
    ncc_c,
    sbd,
    shift_series,
)
from repro.clustering.sbd import sbd_to_reference


class TestCrossCorrelation:
    def test_matches_numpy_correlate(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(16), rng.standard_normal(16)
        ours = cross_correlation(x, y)
        expected = np.correlate(x, y, mode="full")
        np.testing.assert_allclose(ours, expected, atol=1e-10)

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            cross_correlation(np.zeros(3), np.zeros(4))


class TestSbd:
    def test_identical_series(self):
        x = np.sin(np.arange(32) / 3.0)
        distance, shift = sbd(x, x)
        assert distance == pytest.approx(0.0, abs=1e-10)
        assert shift == 0

    def test_shifted_series_recovered(self):
        x = np.zeros(32)
        x[8:12] = 1.0
        y = np.roll(x, 5)
        distance, shift = sbd(x, y)
        assert distance == pytest.approx(0.0, abs=1e-10)
        # The returned shift aligns y back onto x.
        np.testing.assert_allclose(shift_series(y, shift), x, atol=1e-10)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d, _ = sbd(rng.standard_normal(20), rng.standard_normal(20))
            assert 0.0 <= d <= 2.0

    def test_anticorrelated_pulse_is_large(self):
        # A one-sided pulse cannot be aligned with its negation at any
        # shift (a periodic signal could — half a period away).
        x = np.zeros(32)
        x[10:14] = 1.0
        d, _ = sbd(x, -x)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_zero_series(self):
        d, _ = sbd(np.zeros(8), np.ones(8))
        assert d == pytest.approx(1.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        reference = rng.standard_normal(24)
        rows = rng.standard_normal((10, 24))
        distances, shifts = sbd_to_reference(rows, reference)
        for i in range(10):
            d, s = sbd(reference, rows[i])
            assert distances[i] == pytest.approx(d, abs=1e-10)
            assert shifts[i] == s


class TestShiftSeries:
    def test_positive_shift(self):
        np.testing.assert_array_equal(
            shift_series(np.array([1.0, 2.0, 3.0]), 1), [0.0, 1.0, 2.0]
        )

    def test_negative_shift(self):
        np.testing.assert_array_equal(
            shift_series(np.array([1.0, 2.0, 3.0]), -1), [2.0, 3.0, 0.0]
        )

    def test_zero_shift_copies(self):
        x = np.array([1.0, 2.0])
        out = shift_series(x, 0)
        out[0] = 9.0
        assert x[0] == 1.0


class TestKShape:
    def two_shape_data(self, rng, per_cluster=20, m=48):
        t = np.arange(m)
        sine = np.sin(2 * np.pi * t / 12)
        square = np.sign(np.sin(2 * np.pi * t / 12))
        rows = []
        for _ in range(per_cluster):
            rows.append(np.roll(sine, rng.integers(0, 6)) + 0.05 * rng.standard_normal(m))
        for _ in range(per_cluster):
            rows.append(np.roll(square, rng.integers(0, 6)) + 0.05 * rng.standard_normal(m))
        return np.vstack(rows)

    def test_separates_two_shapes(self):
        rng = np.random.default_rng(3)
        data = self.two_shape_data(rng)
        result = kshape(data, 2, rng)
        first = set(result.labels[:20])
        second = set(result.labels[20:])
        # Allow a couple of strays but the clusters must be dominated.
        assert np.bincount(result.labels[:20]).max() >= 16
        assert np.bincount(result.labels[20:]).max() >= 16
        assert first != second or len(first) > 1

    def test_k_one(self):
        rng = np.random.default_rng(4)
        result = kshape(rng.standard_normal((10, 16)), 1, rng)
        assert set(result.labels) == {0}

    def test_iteration_cap_returns_the_last_assignment(self):
        data = self.two_shape_data(np.random.default_rng(8))
        converged = kshape(data, 2, np.random.default_rng(9))
        assert converged.n_iterations > 1
        capped = kshape(data, 2, np.random.default_rng(9), max_iterations=1)
        assert capped.n_iterations == 1
        assert capped.labels.shape == (data.shape[0],)

    def test_invalid_k(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            kshape(np.zeros((3, 8)), 4, rng)

    def test_centroids_z_normalised(self):
        rng = np.random.default_rng(6)
        result = kshape(self.two_shape_data(rng), 2, rng)
        for centroid in result.centroids:
            assert abs(centroid.mean()) < 1e-8
            assert centroid.std() == pytest.approx(1.0, abs=1e-8)

    def test_extract_shape_recovers_common_shape(self):
        rng = np.random.default_rng(7)
        t = np.arange(32)
        base = np.sin(2 * np.pi * t / 8)
        members = np.vstack(
            [base + 0.01 * rng.standard_normal(32) for _ in range(15)]
        )
        shape = extract_shape(members, base)
        d, _ = sbd(base, shape)
        assert d < 0.01


class TestKMeans:
    def blobs(self, rng):
        a = rng.normal(0.0, 0.2, (30, 2))
        b = rng.normal(5.0, 0.2, (30, 2))
        return np.vstack([a, b])

    def test_two_blobs(self):
        rng = np.random.default_rng(8)
        result = kmeans(self.blobs(rng), 2, rng)
        assert len(set(result.labels[:30])) == 1
        assert len(set(result.labels[30:])) == 1
        assert result.labels[0] != result.labels[-1]

    def test_inertia_positive_and_small_for_tight_blobs(self):
        rng = np.random.default_rng(9)
        result = kmeans(self.blobs(rng), 2, rng)
        assert 0 < result.inertia < 30.0

    def test_cluster_sizes(self):
        rng = np.random.default_rng(10)
        result = kmeans(self.blobs(rng), 2, rng)
        np.testing.assert_array_equal(np.sort(result.cluster_sizes()), [30, 30])

    def test_k_equals_n(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((5, 2))
        result = kmeans(data, 5, rng)
        assert sorted(result.labels.tolist()) == [0, 1, 2, 3, 4]
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0, np.random.default_rng(0))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2, np.random.default_rng(0))
