"""Tests for the data-mining baselines: LOF, ECOD, IForest."""

import numpy as np
import pytest

from repro.baselines import ECOD, LOF, IsolationForest, average_path_length
from repro.timeseries import MultivariateTimeSeries


def clean_series(seed=0, n=4, length=600):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 25)
    return np.vstack(
        [base * rng.uniform(0.8, 1.2) + 0.1 * rng.standard_normal(length) for _ in range(n)]
    )


def spiked_test(seed=1, n=4, length=400, spike_at=(200, 220)):
    values = clean_series(seed, n, length)
    values[0, spike_at[0] : spike_at[1]] += 8.0
    return values, spike_at


@pytest.fixture
def train():
    return MultivariateTimeSeries(clean_series())


@pytest.fixture
def spiked():
    values, span = spiked_test()
    return MultivariateTimeSeries(values), span


@pytest.mark.parametrize("detector_cls", [LOF, ECOD, IsolationForest])
class TestCommonBehaviour:
    def test_scores_shape_and_range(self, detector_cls, train, spiked):
        test, _ = spiked
        detector = detector_cls().fit(train)
        scores = detector.score(test)
        assert scores.shape == (test.length,)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_spike_scores_higher(self, detector_cls, train, spiked):
        test, (start, stop) = spiked
        detector = detector_cls().fit(train)
        scores = detector.score(test)
        inside = scores[start:stop].mean()
        outside = np.concatenate([scores[:start], scores[stop:]]).mean()
        assert inside > outside * 1.5

    def test_score_before_fit(self, detector_cls, spiked):
        test, _ = spiked
        with pytest.raises(RuntimeError):
            detector_cls().score(test)


class TestLOF:
    def test_deterministic(self, train, spiked):
        test, _ = spiked
        a = LOF().fit(train).score(test)
        b = LOF().fit(train).score(test)
        np.testing.assert_array_equal(a, b)

    def test_reference_subsampling(self, spiked):
        test, _ = spiked
        big_train = MultivariateTimeSeries(clean_series(length=3000))
        detector = LOF(max_reference=500).fit(big_train)
        assert detector._reference.shape[0] == 500
        scores = detector.score(test)
        assert np.isfinite(scores).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LOF(n_neighbors=0)
        with pytest.raises(ValueError):
            LOF(n_neighbors=10, max_reference=10)

    def test_train_too_small(self):
        tiny = MultivariateTimeSeries(np.random.default_rng(0).random((3, 10)))
        with pytest.raises(ValueError):
            LOF(n_neighbors=20).fit(tiny)


class TestECOD:
    def test_deterministic(self, train, spiked):
        test, _ = spiked
        a = ECOD().fit(train).score(test)
        b = ECOD().fit(train).score(test)
        np.testing.assert_array_equal(a, b)

    def test_sensor_scores_localise(self, train, spiked):
        test, (start, stop) = spiked
        matrix = ECOD().fit(train).sensor_scores(test)
        assert matrix.shape == (test.n_sensors, test.length)
        in_event = matrix[:, start:stop].mean(axis=1)
        # The spiked sensor 0 must dominate the event window.
        assert np.argmax(in_event) == 0

    def test_sensor_count_mismatch(self, train):
        detector = ECOD().fit(train)
        other = MultivariateTimeSeries(np.zeros((2, 50)))
        with pytest.raises(ValueError):
            detector.score(other)

    def test_extreme_low_values_scored(self, train):
        values = clean_series(seed=2, length=300)
        values[1, 100:120] -= 9.0
        scores = ECOD().fit(train).score(MultivariateTimeSeries(values))
        assert scores[100:120].mean() > scores[:100].mean()


class TestIForest:
    def test_stochastic_across_seeds(self, train, spiked):
        test, _ = spiked
        a = IsolationForest(seed=0).fit(train).score(test)
        b = IsolationForest(seed=1).fit(train).score(test)
        assert not np.array_equal(a, b)

    def test_reproducible_same_seed(self, train, spiked):
        test, _ = spiked
        a = IsolationForest(seed=7).fit(train).score(test)
        b = IsolationForest(seed=7).fit(train).score(test)
        np.testing.assert_array_equal(a, b)

    def test_constant_training_data_grows_single_leaf_trees(self):
        train = MultivariateTimeSeries(np.full((3, 64), 2.0))
        forest = IsolationForest(n_estimators=5).fit(train)
        assert all(tree.is_leaf for tree in forest._trees)
        test = MultivariateTimeSeries(clean_series(seed=3, n=3, length=40))
        scores = forest.score(test)
        assert np.all(scores == scores[0])

    def test_split_that_separates_nothing_ends_the_branch(self):
        # Adjacent floats: half the drawn thresholds round onto the lower
        # value and put every point on one side; that node is a leaf.
        values = np.full((1, 64), 1e6)
        values[0, ::2] = np.nextafter(1e6, np.inf)
        series = MultivariateTimeSeries(values)
        forest = IsolationForest(n_estimators=20, seed=0).fit(series)
        assert any(tree.is_leaf for tree in forest._trees)
        assert np.isfinite(forest.score(series)).all()

    def test_average_path_length(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        # c(n) grows like 2 ln(n-1) + 2*gamma - 2(n-1)/n.
        assert 5.0 < average_path_length(256) < 12.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IsolationForest(n_estimators=0)
        with pytest.raises(ValueError):
            IsolationForest(subsample=1)
