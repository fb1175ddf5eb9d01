"""Degraded-data handling: NaN-aware Pearson, missing-data ingestion,
per-round masking, and the data-quality reports."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core import CAD, CADConfig, DataQuality, build_tsg
from repro.timeseries import (
    MultivariateTimeSeries,
    pearson_matrix,
    pearson_matrix_masked,
)
from tests.conftest import correlated_values


class TestMaskedPearson:
    def test_clean_input_bit_identical_to_plain(self):
        window = np.random.default_rng(0).standard_normal((8, 120))
        assert np.array_equal(pearson_matrix_masked(window), pearson_matrix(window))

    def test_matches_pairwise_complete_corrcoef(self):
        rng = np.random.default_rng(1)
        window = rng.standard_normal((6, 200))
        window[rng.random(window.shape) < 0.1] = np.nan
        got = pearson_matrix_masked(window)
        n = window.shape[0]
        for i in range(n):
            for j in range(n):
                both = np.isfinite(window[i]) & np.isfinite(window[j])
                if i == j:
                    continue
                expected = np.corrcoef(window[i, both], window[j, both])[0, 1]
                assert got[i, j] == pytest.approx(expected, abs=1e-9)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        window = rng.standard_normal((5, 100))
        window[rng.random(window.shape) < 0.2] = np.nan
        corr = pearson_matrix_masked(window)
        assert np.array_equal(corr, corr.T)
        assert (np.abs(corr) <= 1.0).all()

    def test_insufficient_overlap_gives_zero(self):
        window = np.full((3, 50), np.nan)
        window[0, :25] = np.arange(25, dtype=float)
        window[1, 25:] = np.arange(25, dtype=float)
        window[2, :] = np.sin(np.arange(50) / 3.0)
        corr = pearson_matrix_masked(window, min_overlap=2)
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
        assert corr[0, 2] != 0.0

    def test_fully_missing_sensor_is_dead(self):
        rng = np.random.default_rng(3)
        window = rng.standard_normal((4, 60))
        window[2, :] = np.nan
        corr = pearson_matrix_masked(window)
        assert (corr[2, :] == 0.0).all()
        assert (corr[:, 2] == 0.0).all()

    def test_constant_overlap_gives_zero(self):
        window = np.vstack([np.ones(40), np.arange(40, dtype=float)])
        window[0, 0] = np.nan  # force the masked path
        corr = pearson_matrix_masked(window)
        assert corr[0, 1] == 0.0

    def test_min_overlap_floor(self):
        rng = np.random.default_rng(4)
        window = rng.standard_normal((2, 30))
        window[0, 10:] = np.nan  # only 10 common points
        assert pearson_matrix_masked(window, min_overlap=10)[0, 1] != 0.0
        assert pearson_matrix_masked(window, min_overlap=11)[0, 1] == 0.0


class TestMissingIngestion:
    def test_nan_rejected_by_default(self):
        values = np.ones((3, 50))
        values[1, 4] = np.nan
        with pytest.raises(ValueError, match="allow_missing"):
            MultivariateTimeSeries(values)

    def test_nan_accepted_when_allowed(self):
        values = np.ones((3, 50))
        values[1, 4] = np.nan
        series = MultivariateTimeSeries(values, allow_missing=True)
        assert series.missing_mask()[1, 4]
        assert series.missing_fraction() == pytest.approx(1 / 150)

    def test_inf_always_rejected(self):
        values = np.ones((2, 20))
        values[0, 3] = np.inf
        with pytest.raises(ValueError, match="inf"):
            MultivariateTimeSeries(values, allow_missing=True)

    def test_allow_missing_propagates(self):
        values = np.ones((2, 40))
        values[0, 0] = np.nan
        series = MultivariateTimeSeries(values, allow_missing=True)
        assert series.slice_time(0, 20).allow_missing
        assert series.select_sensors([0]).allow_missing

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CADConfig(window=80, step=8, k=4, tau=0.5, theta=0.2, max_missing_fraction=1.0)
        with pytest.raises(ValueError):
            CADConfig(window=80, step=8, k=4, tau=0.5, theta=0.2, min_overlap_fraction=0.0)

    def test_min_overlap_scales_with_window(self):
        config = CADConfig(window=100, step=10, k=4, tau=0.5, theta=0.2,
                           min_overlap_fraction=0.25)
        assert config.min_overlap() == 25
        tiny = CADConfig(window=4, step=2, k=2, tau=0.5, theta=0.2,
                         min_overlap_fraction=0.25)
        assert tiny.min_overlap() == 2  # floor


class TestTSGWithMissing:
    def test_masked_tsg_isolates_dead_sensor(self):
        values = correlated_values(n_sensors=6, length=300, seed=8)
        window = values[:, :120].copy()
        window[4, :] = np.nan
        graph = build_tsg(window, k=2, tau=0.3, allow_missing=True)
        assert graph.degree(4) == 0

    def test_clean_window_same_graph_either_mode(self):
        values = correlated_values(n_sensors=8, length=200, seed=9)
        window = values[:, :150]
        clean = build_tsg(window, k=3, tau=0.4)
        degraded = build_tsg(window, k=3, tau=0.4, allow_missing=True)
        assert clean.edge_set() == degraded.edge_set()


class TestDetectorMasking:
    @pytest.fixture
    def degraded_config(self, toy_config):
        return replace(toy_config, allow_missing=True)

    def test_clean_detector_rejects_nan(self, toy_config, toy_values):
        values = toy_values[:, :400].copy()
        values[0, 100] = np.nan
        detector = CAD(toy_config, 12)
        with pytest.raises(ValueError, match="allow_missing"):
            detector.detect(MultivariateTimeSeries(values, allow_missing=True))

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("call", ["warm_up", "detect"])
    def test_clean_detector_rejects_nan_before_any_round(
        self, toy_config, toy_values, call, n_jobs
    ):
        """A NaN in a late window raises before the first round is applied:
        counters, moments, tracker and kernel are as they were."""
        detector = CAD(toy_config, 12)
        detector.warm_up(MultivariateTimeSeries(toy_values[:, :400]))
        before = pickle.dumps(detector.to_state())
        values = toy_values[:, 400:1000].copy()
        values[0, 500] = np.nan
        with pytest.raises(ValueError, match="allow_missing"):
            getattr(detector, call)(
                MultivariateTimeSeries(values, allow_missing=True), n_jobs=n_jobs
            )
        assert pickle.dumps(detector.to_state()) == before

    def test_masked_sensor_reported(self, degraded_config, toy_values):
        values = toy_values[:, :600].copy()
        values[5, :] = np.nan  # sensor 5 dead for the whole run
        detector = CAD(degraded_config, 12)
        result = detector.detect(MultivariateTimeSeries(values, allow_missing=True))
        assert result.rounds
        for record in result.rounds:
            assert record.quality is not None
            assert 5 in record.quality.masked_sensors
            assert record.quality.degraded

    def test_masked_sensor_never_becomes_outlier(self, degraded_config, toy_values):
        """A dead sensor's own outlier status is frozen for the gap.

        Its community mates may still wobble (the k-NN graph genuinely
        rewires around an isolated vertex), but the masked sensor itself
        must never be reported as an outlier variation, and any extra
        alarms must stay confined to the gap.
        """
        gap = (400, 800)
        values = toy_values[:, :1200].copy()
        values[5, gap[0] : gap[1]] = np.nan
        detector = CAD(degraded_config, 12)
        result = detector.detect(MultivariateTimeSeries(values, allow_missing=True))

        assert all(5 not in record.outliers for record in result.rounds)
        abnormal = [record for record in result.rounds if record.abnormal]
        for record in abnormal:
            assert gap[0] <= record.stop and record.start <= gap[1]
        assert len(abnormal) <= len(result.rounds) // 10

    def test_quality_none_in_clean_mode(self, toy_config, toy_values):
        detector = CAD(toy_config, 12)
        result = detector.detect(MultivariateTimeSeries(toy_values[:, :400]))
        assert all(record.quality is None for record in result.rounds)

    def test_degraded_rounds_helper(self, degraded_config, toy_values):
        values = toy_values[:, :600].copy()
        values[2, 100:300] = np.nan
        detector = CAD(degraded_config, 12)
        result = detector.detect(MultivariateTimeSeries(values, allow_missing=True))
        degraded = result.degraded_rounds()
        assert degraded
        assert all(record.quality.degraded for record in degraded)
        assert len(degraded) < len(result.rounds)


class TestDataQuality:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataQuality(missing_fraction=-0.1, masked_sensors=frozenset(), degraded=False)
        with pytest.raises(ValueError):
            DataQuality(missing_fraction=1.5, masked_sensors=frozenset(), degraded=True)

    def test_clean_quality(self):
        quality = DataQuality(
            missing_fraction=0.0, masked_sensors=frozenset(), degraded=False
        )
        assert not quality.degraded
        assert quality.masked_sensors == frozenset()


class TestQualityReport:
    def test_report_formats(self, toy_values):
        from repro.bench import format_quality_report

        config = CADConfig(
            window=80, step=8, k=4, tau=0.5, theta=0.2, allow_missing=True
        )
        values = toy_values[:, :600].copy()
        values[3, :] = np.nan
        detector = CAD(config, 12)
        result = detector.detect(MultivariateTimeSeries(values, allow_missing=True))
        report = format_quality_report(result.rounds)
        assert "data quality" in report
        assert "degraded" in report
        assert "3" in report  # the dead sensor shows up

    def test_report_on_clean_rounds(self, toy_config, toy_values):
        from repro.bench import format_quality_report

        detector = CAD(toy_config, 12)
        result = detector.detect(MultivariateTimeSeries(toy_values[:, :400]))
        report = format_quality_report(result.rounds)
        assert "data quality" in report
