"""Tests for outlier sets, variations and running moments (Defs 7-8)."""

import numpy as np
import pytest

from repro.core import RunningMoments, outlier_set, outlier_variations
from repro.core.variation import transition_set


class TestOutlierSet:
    def test_below_threshold(self):
        rc = np.array([0.5, 0.1, 0.3, 0.29])
        assert outlier_set(rc, 0.3) == frozenset({1, 3})

    def test_strict_inequality(self):
        rc = np.array([0.3])
        assert outlier_set(rc, 0.3) == frozenset()

    def test_empty(self):
        assert outlier_set(np.array([0.9, 0.8]), 0.1) == frozenset()

    @pytest.mark.parametrize(
        "theta, expected",
        [(0.0, set()), (1.0, {0, 1, 2}), (0.5, {0, 1})],
    )
    def test_theta_boundaries(self, theta, expected):
        # RC lies in [0, 1]: theta 0 flags nothing (not even RC 0), theta 1
        # flags everything below 1, and RC equal to theta is never flagged.
        rc = np.array([0.0, 0.25, 0.5, 1.0])
        outliers = outlier_set(rc, theta)
        assert outliers == frozenset(expected)
        assert all(type(v) is int for v in outliers)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            outlier_set(np.array([0.5]), 1.5)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            outlier_set(np.zeros((2, 2)), 0.5)


class TestVariations:
    def test_symmetric_difference(self):
        previous = frozenset({1, 2, 3})
        current = frozenset({3, 4})
        assert transition_set(previous, current) == frozenset({1, 2, 4})
        assert outlier_variations(previous, current) == 3

    def test_no_change(self):
        s = frozenset({1, 2})
        assert outlier_variations(s, s) == 0

    def test_from_empty(self):
        assert outlier_variations(frozenset(), frozenset({1, 2})) == 2


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, 100)
        moments = RunningMoments()
        for value in values:
            moments.push(value)
        assert moments.mean == pytest.approx(values.mean())
        assert moments.std == pytest.approx(values.std())
        assert moments.count == 100

    def test_single_value(self):
        moments = RunningMoments()
        moments.push(5.0)
        assert moments.mean == 5.0
        assert moments.std == 0.0

    def test_empty(self):
        moments = RunningMoments()
        assert moments.mean == 0.0
        assert moments.std == 0.0
        assert moments.count == 0

    def test_snapshot(self):
        moments = RunningMoments()
        moments.push(1.0)
        moments.push(3.0)
        mean, std = moments.snapshot()
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_constant_stream(self):
        moments = RunningMoments()
        for _ in range(10):
            moments.push(4.0)
        assert moments.std == pytest.approx(0.0, abs=1e-12)
